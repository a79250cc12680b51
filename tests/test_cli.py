import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_constants_override_parsing(tmp_path):
    rpt = tmp_path / "r.json"
    code = run_cli(
        ["softhull", "--fixture", "square-plus-midpoint", "--epsilon", 0.0005,
         "--delta", 0.1, "--eps3", 0.02, "--constants", "c=40,c0=10",
         "--out", rpt]
    )
    assert code == 0
    rep = load_report(rpt)
    assert rep["constants"] == {"c": 40.0, "cprime": 100.0, "c0": 10.0}
    code2 = run_cli(
        ["softhull", "--fixture", "square-plus-midpoint", "--epsilon", 0.0005,
         "--delta", 0.1, "--constants", "bogus=1", "--out", rpt]
    )
    assert code2 == 2


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
