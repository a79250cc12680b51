import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polylearn import PointMatrix
from polylearn.cli import load_matrix, main, save_matrix

VOLATILE_KEYS = {"timing_sec", "paths"}


def run_cli(args):
    return main([str(a) for a in args])


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def stable(report):
    return {k: v for k, v in report.items() if k not in VOLATILE_KEYS}


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pm = PointMatrix(rng.standard_normal((7, 13)) * 1e-7)
    path = tmp_path / "m.mat"
    save_matrix(path, pm)
    back = load_matrix(path)
    assert np.array_equal(back.entries, pm.entries)  # 17 digits round-trips exactly
    with open(path) as fh:
        assert fh.readline().strip() == "dims 7 13"


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100)
@given(
    entries=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(0, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_VALUES),
    )
)
def test_matrix_round_trip_is_bit_exact(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("round-trip") / "m.mat"
    save_matrix(path, PointMatrix(entries))
    back = load_matrix(path).entries
    assert back.shape == entries.shape
    assert back.tobytes() == entries.tobytes()


def test_save_matrix_exact_bytes(tmp_path):
    path = tmp_path / "m.mat"
    save_matrix(path, PointMatrix(np.array([[-0.0, 5e-324, 1e300], [1e-300, -1e300, 0.1]])))
    assert path.read_bytes() == (
        b"dims 2 3\n"
        b"-0 1e-300\n"
        b"4.9406564584124654e-324 -1.0000000000000001e+300\n"
        b"1.0000000000000001e+300 0.10000000000000001\n"
    )
    save_matrix(path, PointMatrix(np.zeros((3, 0))))
    assert path.read_bytes() == b"dims 3 0\n"
    assert load_matrix(path).entries.shape == (3, 0)


def test_matrix_parse_errors(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("dims 2 2\n1.0 2.0\n")
    with pytest.raises(ValueError, match=":3:"):
        load_matrix(p)
    p.write_text("dims 2 1\n1.0 oops\n")
    with pytest.raises(ValueError, match="column 2"):
        load_matrix(p)
    p.write_text("hello\n")
    with pytest.raises(ValueError, match=":1:"):
        load_matrix(p)
    for header in ("dims 0 2", "dims -1 2", "dims 2 -1", "dims 1 100000000000000",
                   "dims 1 10000000000000000000"):
        p.write_text(header + "\n")
        with pytest.raises(ValueError, match=r"bad\.mat:1:"):
            load_matrix(p)
    for token in ("nan", "inf", "-Infinity"):
        p.write_text(f"dims 2 2\n1.0 2.0\n3.0 {token}\n")
        with pytest.raises(ValueError, match=r"bad\.mat:3: column 2"):
            load_matrix(p)


def test_matrix_rejects_data_after_declared_columns(tmp_path, capsys):
    p = tmp_path / "extra.mat"
    p.write_text("dims 2 2\n1.0 2.0\n3.0 4.0\n\n5.0 6.0\n")
    with pytest.raises(ValueError, match=r"extra\.mat:5:"):
        load_matrix(p)
    code = run_cli(
        ["softhull", "--points", p, "--epsilon", 0.02, "--delta", 0.5, "--eps3", 0.08,
         "--out", tmp_path / "r.json"]
    )
    assert code == 2
    assert "extra.mat:5:" in capsys.readouterr().err
    p.write_text("dims 2 2\n1.0 2.0\n3.0 4.0\n\n   \n")  # trailing blank lines are fine
    assert np.array_equal(load_matrix(p).entries, [[1.0, 3.0], [2.0, 4.0]])


def test_audit_oracle_manifest_missing_key_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    manifest = {"files": {"P": "P.mat", "A": "A.mat"}, "w0": 0.1, "sigma0": 0.0}
    (data_dir / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli(["audit-oracle", "--dir", data_dir, "--out", tmp_path / "r.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "'M'" in err


def test_gen_two_gaussian_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = ["gen", "--kind", "two-gaussian", "--d", 20, "--n", 400, "--seed", 7]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    for name in ("A.mat", "P.mat", "M.mat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["d"] == 20 and man["n"] == 400 and man["w0"] == 0.5
    assert man["sigma0"] > 0
    r1 = stable(load_report(out1 / "report.json"))
    r2 = stable(load_report(out2 / "report.json"))
    assert r1 == r2


def test_gen_invalid_w0_exits_nonzero(tmp_path, capsys):
    code = run_cli(
        ["gen", "--kind", "lkp", "--d", 8, "--k", 4, "--n", 10, "--w0", 0.5,
         "--seed", 1, "--out", tmp_path / "x"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "w0*k" in err


@pytest.mark.parametrize(
    "kind, flag, value, name",
    [("lkp", "--noise-scale", v, "noise_scale") for v in ("-1", "-1e-300", "nan", "inf", "-inf")]
    + [("two-gaussian", "--v-norm", v, "v_norm") for v in ("0", "-0", "-1", "nan", "inf", "-inf")],
)
def test_gen_rejects_bad_noise_scale_and_v_norm(tmp_path, capsys, kind, flag, value, name):
    # The check runs before any sampling and names the parameter.
    out = tmp_path / "x"
    shape = ["--k", 2, "--w0", 0.1] if kind == "lkp" else []
    code = run_cli(["gen", "--kind", kind, "--d", 8, "--n", 40, *shape,
                    f"{flag}={value}", "--seed", 1, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite and ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_lkp_runs_with_default_w0(tmp_path):
    # The default w0 of 0.1 fits k = 3 clusters of ceil(w0*n) points in n.
    out = tmp_path / "x"
    assert run_cli(["gen", "--kind", "lkp", "--d", 8, "--k", 3, "--n", 300,
                    "--noise-scale", 0, "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["w0"] == 0.1


@pytest.mark.parametrize(
    "kind, flag",
    [("two-gaussian", f) for f in ("--k", "--w0", "--noise-scale", "--delta-target")]
    + [("polytope", f) for f in ("--n", "--w0", "--noise-scale", "--v-norm")]
    + [("lkp", "--v-norm")],
)
def test_gen_rejects_flags_its_kind_ignores(tmp_path, capsys, kind, flag):
    out = tmp_path / "x"
    code = run_cli(["gen", "--kind", kind, "--d", 8, flag, 2, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag} does not apply to --kind {kind}\n"
    assert not out.exists()


def test_gen_accepts_zero_noise_scale(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["gen", "--kind", "lkp", "--d", 8, "--k", 2, "--n", 40, "--w0", 0.1,
                    "--noise-scale", 0, "--seed", 1, "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["sigma0"] == 0.0


def test_fixtures_command(tmp_path):
    out = tmp_path / "fx"
    assert run_cli(["fixtures", "--out", out]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert "two-rings" in man["fixtures"]
    pm = load_matrix(out / "two-cluster.mat")
    assert pm.count == 10


def test_softhull_square_plus_midpoint(tmp_path):
    rpt = tmp_path / "r.json"
    code = run_cli(
        ["softhull", "--fixture", "square-plus-midpoint", "--epsilon", 0.0005,
         "--delta", 0.1, "--eps3", 0.02, "--out", rpt]
    )
    assert code == 0
    report = load_report(rpt)
    assert report["results"]["found"] is True
    assert report["results"]["q_indices"] == [0, 1, 2, 3]


def test_rsh_estimate_report_contains_bound(tmp_path):
    rpt = tmp_path / "rsh.json"
    code = run_cli(
        ["rsh-estimate", "--fixture", "example1-segment", "--delta", 1.0,
         "--trials", 20000, "--seed", 5, "--out", rpt]
    )
    assert code == 0
    report = load_report(rpt)
    assert report["theory_bounds"]["success_probability_lower_bound"] == pytest.approx(
        2.44140625e-05
    )
    assert report["results"]["bound_satisfied"] is True
    # rerun: value-identical modulo volatile keys
    rpt2 = tmp_path / "rsh2.json"
    run_cli(
        ["rsh-estimate", "--fixture", "example1-segment", "--delta", 1.0,
         "--trials", 20000, "--seed", 5, "--out", rpt2]
    )
    assert stable(load_report(rpt2)) == stable(report)


def test_sep_reduce_certifies_margin(tmp_path):
    rpt = tmp_path / "sep.json"
    # a sits at delta*diam along axis 1 for the segment fixture
    code = run_cli(
        ["sep-reduce", "--fixture", "example1-segment", "--delta", 0.5,
         "--queries", 50000, "--seed", 2, "--out", rpt]
    )
    assert code == 0
    report = load_report(rpt)
    assert report["results"]["verdict"] == "separated"
    assert report["results"]["margin_certified"] is True


def test_haus_and_list_learn_reports(tmp_path):
    rpt = tmp_path / "h.json"
    code = run_cli(
        ["haus-learn", "--fixture", "example1-segment", "--probes", 200,
         "--seed", 3, "--out", rpt]
    )
    assert code == 0
    rep = load_report(rpt)
    assert rep["results"]["hausdorff_to_truth"] <= 0.05

    rpt2 = tmp_path / "l.json"
    code = run_cli(
        ["list-learn", "--fixture", "example1-segment", "--delta", 0.9,
         "--probes", 500, "--seed", 4, "--out", rpt2]
    )
    assert code == 0
    rep2 = load_report(rpt2)
    assert rep2["results"]["success"] is True
    assert rep2["theory_bounds"]["per_vertex_target"] == pytest.approx(0.09)


def test_kolp_and_audit_cli_end_to_end(tmp_path):
    data_dir = tmp_path / "data"
    assert run_cli(
        ["gen", "--kind", "lkp", "--d", 25, "--k", 3, "--n", 900, "--w0", 0.1,
         "--noise-scale", 3e-5, "--delta-target", 0.65, "--seed", 11,
         "--out", data_dir]
    ) == 0

    rpt = tmp_path / "kolp.json"
    code = run_cli(
        ["kolp", "--data", data_dir / "A.mat", "--k", 3, "--w0", 0.1,
         "--delta", 0.3, "--probes", 1200, "--seed", 12,
         "--truth", data_dir / "M.mat", "--out", rpt]
    )
    assert code == 0
    rep = load_report(rpt)
    assert rep["results"]["recovered"] is True
    assert len(rep["results"]["vertex_estimates"]) == 3

    rpt2 = tmp_path / "audit.json"
    code = run_cli(
        ["audit-oracle", "--dir", data_dir, "--trials", 100, "--seed", 13,
         "--out", rpt2]
    )
    assert code == 0
    rep2 = load_report(rpt2)
    assert rep2["results"]["all_passed"] is True
    assert rep2["results"]["displacement_within_bound"] is True


def test_explicit_point_file(tmp_path):
    vertices = tmp_path / "K.mat"
    save_matrix(vertices, PointMatrix(np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])))
    point = tmp_path / "a.mat"
    save_matrix(point, PointMatrix(np.array([[0.0], [1.0], [0.0]])))
    rpt = tmp_path / "r.json"
    code = run_cli(
        ["rsh-estimate", "--vertices", vertices, "--point", point, "--delta", 1.0,
         "--trials", 5000, "--seed", 1, "--out", rpt]
    )
    assert code == 0
    assert load_report(rpt)["results"]["bound_satisfied"] is True
    # a point violating the distance precondition is a hard failure
    near = tmp_path / "near.mat"
    save_matrix(near, PointMatrix(np.array([[0.0], [0.2], [0.0]])))
    code2 = run_cli(
        ["rsh-estimate", "--vertices", vertices, "--point", near, "--delta", 1.0,
         "--trials", 5000, "--seed", 1, "--out", rpt]
    )
    assert code2 == 2


def test_softhull_sqrt_default_precondition_exits_2(tmp_path, capsys):
    # without --eps3 the square-root default eps3 = 4*sqrt(epsilon) applies
    code = run_cli(
        ["softhull", "--fixture", "two-cluster", "--epsilon", 0.01, "--delta", 0.1,
         "--out", tmp_path / "r.json"]
    )
    assert code == 2
    assert re.search(r"delta > 16\*sqrt\(epsilon\)", capsys.readouterr().err)


def test_constants_override_parsing(tmp_path, capsys):
    rpt = tmp_path / "r.json"

    def run(text):
        return run_cli(
            ["list-learn", "--fixture", "example1-segment", "--delta", 0.9, "--probes", 50,
             "--constants", text, "--out", rpt]
        )

    assert run("c=40,c0=10") == 0
    assert load_report(rpt)["constants"] == {"c": 40.0, "c0": 10.0}
    for text, message in [
        ("bogus=1", "unknown constant 'bogus'"),
        ("c=0", "constant c = 0.0 must be finite and positive"),
        ("c0=0", "constant c0 = 0.0 must be finite and positive"),
        ("c=-1", "constant c = -1.0 must be finite and positive"),
        ("c0=nan", "constant c0 = nan must be finite and positive"),
        ("c=abc", "bad constants entry 'c=abc', value is not a number"),
    ]:
        assert run(text) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, text


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen", "--kind", "lkp", "--n", 0], "n must be positive, got 0"),
        (["gen", "--kind", "two-gaussian", "--n", 0], "n must be positive, got 0"),
        (["rsh-estimate", "--fixture", "example1-segment", "--delta", 0.5,
          "--subspace-dim", 0], "subspace dimension must be positive, got 0"),
        (["rsh-estimate", "--fixture", "example1-segment", "--delta", 0.5,
          "--subspace-dim", -3], "subspace dimension must be positive, got -3"),
        (["sep-reduce", "--fixture", "example1-segment", "--delta", 0.5,
          "--queries", 0], "num_queries must be positive, got 0"),
        (["kolp", "--k", 2, "--w0", 0.2, "--delta", -0.3], "delta must be positive, got -0.3"),
        (["kolp", "--k", 2, "--w0", 0.2, "--delta", 0.3, "--constants", "c0=0"],
         "constant c0 = 0.0 must be finite and positive"),
        (["list-learn", "--fixture", "example1-segment", "--delta", "nan", "--probes", 100],
         "delta must be finite and positive, got nan"),
        (["gen", "--kind", "polytope", "--d", 5, "--k", 3, "--delta-target", "nan"],
         "delta_target must be finite, got nan"),
    ],
)
def test_invalid_numeric_arguments_exit_2(tmp_path, capsys, args, message):
    if args[0] == "kolp":
        data = tmp_path / "A.mat"
        save_matrix(data, PointMatrix(np.random.default_rng(0).standard_normal((3, 40))))
        args = [*args, "--data", data]
    code = run_cli([*args, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and message in err


# Required flags of the seven commands without --constants.
_NO_CONSTANTS = {
    "gen": ["--kind", "polytope"],
    "rsh-estimate": ["--fixture", "example1-segment", "--delta", 0.5],
    "sep-reduce": ["--fixture", "example1-segment", "--delta", 0.5],
    "haus-learn": ["--fixture", "example1-segment"],
    "softhull": ["--fixture", "two-cluster", "--epsilon", 0.02, "--delta", 0.5],
    "audit-oracle": ["--dir", "data"],
    "fixtures": [],
}


@pytest.mark.parametrize(
    "args, message",
    [
        (["softhull", "--fixture", "two-cluster", "--epsilon", 0.02, "--delta", "nan",
          "--eps3", 0.08], "delta must be finite, got nan"),
        (["softhull", "--fixture", "two-cluster", "--epsilon", "nan", "--delta", 0.5,
          "--eps3", 0.08], "epsilon must be finite, got nan"),
        (["softhull", "--fixture", "two-cluster", "--epsilon", 0.02, "--delta", 0.5,
          "--eps3", "inf"], "epsilon3 must be finite, got inf"),
        *[
            (["sep-reduce", "--fixture", "example1-segment", "--queries", 10, "--delta", delta],
             f"delta must lie in (0, 1], got {delta}")
            for delta in ("nan", "0.0", "-1.0")
        ],
        *[
            ([command, *args, "--constants", "c=40"], "unrecognized arguments: --constants c=40")
            for command, args in _NO_CONSTANTS.items()
        ],
    ],
)
def test_rejected_inputs_exit_2(tmp_path, capsys, args, message):
    try:
        code = run_cli([*args, "--out", tmp_path / "out"])
    except SystemExit as exc:  # argparse rejects the flag: usage, then one error line
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err.splitlines()[-1]
    if not message.startswith("unrecognized"):
        assert err.count("\n") == 1


def test_module_entry_point(tmp_path):
    rpt = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "polylearn.cli", "softhull", "--fixture",
         "two-cluster", "--epsilon", "0.02", "--delta", "0.5", "--eps3", "0.08",
         "--out", str(rpt)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rep = load_report(rpt)
    assert rep["results"]["q_indices"] == [0, 5]


def _gen_lkp(out):
    assert run_cli(
        ["gen", "--kind", "lkp", "--d", 15, "--k", 3, "--n", 450, "--w0", 0.1,
         "--noise-scale", 3e-5, "--delta-target", 0.6, "--seed", 17, "--out", out]
    ) == 0


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_matrix_file_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "K.mat"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe\x00dims 2 1\n")
    for args in (
        ["rsh-estimate", "--vertices", bad, "--delta", 1.0],
        ["kolp", "--data", bad, "--k", 3, "--w0", 0.1, "--delta", 0.3],
    ):
        assert run_cli(args + ["--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, args",
    [
        ("sep-reduce", ["--delta", 0.5, "--queries", 5]),
        ("haus-learn", ["--probes", 5]),
        ("list-learn", ["--delta", 0.9, "--probes", 5]),
    ],
)
def test_noisy_oracle_seed_beyond_64_bits_exits_2(tmp_path, capsys, command, args):
    # The noisy oracle is seeded with --seed + 1, which leaves signed 64 bits here.
    seed = 2**63 - 1
    code = run_cli([command, "--fixture", "example1-segment", *args, "--oracle", "noisy",
                    "--epsilon", 1e-4, "--seed", seed, "--out", tmp_path / "r.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"seed {seed + 1} is outside [-2^63, 2^63)" in err and "Traceback" not in err


def test_audit_oracle_invalid_manifest_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "manifest.json").write_text('{"files": {"M": "M.mat",')
    assert run_cli(["audit-oracle", "--dir", data_dir, "--out", tmp_path / "r.json"]) == 2
    assert str(data_dir / "manifest.json") in capsys.readouterr().err


@pytest.fixture(scope="module")
def lkp_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lkp")
    _gen_lkp(out)
    return out


@pytest.mark.parametrize(
    "key, value",
    [("w0", "0.1"), ("w0", -0.1), ("w0", 0.0), ("w0", 1.5), ("w0", float("nan")),
     ("w0", True), ("sigma0", "x"), ("sigma0", -1.0), ("sigma0", float("inf"))],
)
def test_audit_oracle_bad_manifest_numbers_exit_2(tmp_path, capsys, lkp_dir, key, value):
    manifest = json.loads((lkp_dir / "manifest.json").read_text())
    manifest["files"] = {k: str(lkp_dir / v) for k, v in manifest["files"].items()}
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli(["audit-oracle", "--dir", tmp_path, "--trials", 10,
                    "--out", tmp_path / "r.json"])
    assert code == 2
    assert str(tmp_path / "manifest.json") in capsys.readouterr().err


def test_audit_oracle_manifest_dimension_mismatch_exits_2(tmp_path, capsys, lkp_dir):
    manifest = json.loads((lkp_dir / "manifest.json").read_text())
    manifest["files"] = {k: str(lkp_dir / v) for k, v in manifest["files"].items()}
    P = load_matrix(manifest["files"]["P"])
    save_matrix(tmp_path / "P.mat", PointMatrix(P.entries[:-1]))
    manifest["files"]["P"] = str(tmp_path / "P.mat")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli(["audit-oracle", "--dir", tmp_path, "--trials", 10,
                    "--out", tmp_path / "r.json"])
    assert code == 2
    assert str(tmp_path / "manifest.json") in capsys.readouterr().err


def _segment_and_point(tmp_path, point_entries, name="a.mat"):
    vertices = tmp_path / "K.mat"
    save_matrix(vertices, PointMatrix(np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])))
    point = tmp_path / name
    save_matrix(point, PointMatrix(np.asarray(point_entries, dtype=float)))
    return vertices, point


@pytest.mark.parametrize("columns", [0, 2])
def test_point_file_must_hold_one_column(tmp_path, capsys, columns):
    vertices, point = _segment_and_point(tmp_path, np.ones((3, columns)))
    for command in ("rsh-estimate", "sep-reduce"):
        code = run_cli([command, "--vertices", vertices, "--point", point, "--delta", 1.0,
                        "--out", tmp_path / "r.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(point) in err and "Traceback" not in err


def test_config_records_point(tmp_path):
    configs = []
    for name, entries in (("a.mat", [[0.0], [1.0], [0.0]]), ("b.mat", [[0.5], [1.0], [0.0]])):
        vertices, point = _segment_and_point(tmp_path, entries, name)
        rpt = tmp_path / f"{name}.json"
        assert run_cli(["rsh-estimate", "--vertices", vertices, "--point", point,
                        "--delta", 1.0, "--trials", 2000, "--seed", 1, "--out", rpt]) == 0
        configs.append(load_report(rpt)["config"])
    assert configs[0] != configs[1]
    assert configs[0]["point"] == str(tmp_path / "a.mat")


@pytest.mark.parametrize("command", ["haus-learn", "list-learn"])
def test_learners_have_no_point_flag(tmp_path, command):
    _, point = _segment_and_point(tmp_path, [[0.0], [1.0], [0.0]])
    args = [command, "--fixture", "example1-segment", "--probes", 50]
    args += ["--delta", 0.9] if command == "list-learn" else []
    assert run_cli(args + ["--out", tmp_path / "r.json"]) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--point", point])
    assert exc.value.code == 2


GEN_CONFIG = {"kind", "d", "k", "n", "w0", "noise_scale", "v_norm", "delta_target"}
REPORT_SCHEMA = {
    "gen": dict(
        config=GEN_CONFIG,
        results={"kind", "seed", "d", "k", "n", "w0", "sigma0", "diameter", "separation"},
        theory_bounds=set(),
        timing_sec={"generate", "write"},
    ),
    "fixtures": dict(config=set(), results={"fixtures"}, theory_bounds=set(),
                     timing_sec={"write"}),
    "rsh-estimate": dict(
        config={"fixture", "vertices", "point", "delta", "subspace_dim", "trials"},
        results={"trials", "successes", "empirical_probability", "wilson99_lower",
                 "wilson99_upper", "margin_threshold_factor", "comparison_value",
                 "comparison_basis", "bound_satisfied", "vertex_count", "subspace_dim"},
        theory_bounds={"success_probability_lower_bound", "formula"},
        timing_sec={"estimate"},
    ),
    "sep-reduce": dict(
        config={"fixture", "vertices", "point", "delta", "oracle", "epsilon", "queries"},
        results={"verdict", "queries_used", "query_budget", "separator", "observed_margin",
                 "true_margin", "margin_certified"},
        theory_bounds={"certified_margin", "formula"},
        timing_sec={"reduce"},
    ),
    "haus-learn": dict(
        config={"fixture", "vertices", "oracle", "epsilon", "probes"},
        results={"query_count", "hausdorff_to_truth", "relative_hausdorff", "diameter"},
        theory_bounds=set(),
        timing_sec={"learn"},
    ),
    "list-learn": dict(
        config={"fixture", "vertices", "oracle", "epsilon", "probes", "k", "delta"},
        results={"query_count", "per_vertex_error", "max_vertex_error", "success"},
        theory_bounds={"per_vertex_target", "formula", "recommended_query_count"},
        timing_sec={"learn"},
    ),
    "softhull": dict(
        config={"fixture", "points", "epsilon", "delta", "eps3"},
        results={"found", "q_indices", "q_size", "diam", "eps3_used", "matching_radius",
                 "reason"},
        theory_bounds=set(),
        timing_sec={"envelope"},
    ),
    "kolp": dict(
        config={"data", "k", "w0", "delta", "probes", "half_fraction", "truth"},
        results={"vertex_estimates", "probe_count", "envelope_params_used", "prune_attempts",
                 "singular_values", "per_vertex_error", "recovery_target", "recovered"},
        theory_bounds={"per_vertex_target", "formula"},
        timing_sec={"pipeline"},
    ),
    "audit-oracle": dict(
        config={"dir", "fraction", "trials"},
        results={"trials", "passes", "all_passed", "epsilon", "worst_containment_slack",
                 "worst_optimality_slack", "vertex_displacements",
                 "displacement_within_bound"},
        theory_bounds={"oracle_epsilon", "oracle_epsilon_formula", "displacement_bound",
                       "displacement_formula"},
        timing_sec={"audit"},
    ),
}


def test_report_schema(tmp_path):
    lkp = tmp_path / "lkp"
    _gen_lkp(lkp)
    assert run_cli(["fixtures", "--out", tmp_path / "fx"]) == 0
    reports = {
        "gen": lkp / "report.json",
        "fixtures": tmp_path / "fx" / "report.json",
    }
    commands = {
        "rsh-estimate": ["--fixture", "example1-segment", "--delta", 1.0, "--trials", 2000],
        "sep-reduce": ["--fixture", "example1-segment", "--delta", 0.5, "--queries", 2000],
        "haus-learn": ["--fixture", "example1-segment", "--probes", 100],
        "list-learn": ["--fixture", "example1-segment", "--delta", 0.9, "--probes", 200],
        "softhull": ["--fixture", "square-plus-midpoint", "--epsilon", 0.0005,
                     "--delta", 0.1, "--eps3", 0.02],
        "kolp": ["--data", lkp / "A.mat", "--k", 3, "--w0", 0.1, "--delta", 0.3,
                 "--probes", 800, "--truth", lkp / "M.mat"],
        "audit-oracle": ["--dir", lkp, "--trials", 100],
    }
    for command, args in commands.items():
        reports[command] = tmp_path / f"{command}.json"
        assert run_cli([command] + args + ["--seed", 23, "--out", reports[command]]) == 0
    assert set(reports) == set(REPORT_SCHEMA)
    for command, path in reports.items():
        report = load_report(path)
        assert set(report) == {
            "tool", "version", "command", "config", "seed", "constants", "results",
            "hypothesis_checks", "theory_bounds", "timing_sec", "paths",
        }
        assert report["command"] == command
        for block, keys in REPORT_SCHEMA[command].items():
            assert set(report[block]) == keys, (command, block)
