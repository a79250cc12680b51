"""Command-line surface: generate data, run the algorithms, write JSON reports.

Matrix files are a self-describing text container: a header line
``dims d n`` followed by n lines of d decimal values (one column per line),
printed with 17 significant digits so round-trips are exact.  Every command
writes a JSON report with a stable key schema:

    tool, version, command, config, seed, constants, results,
    hypothesis_checks, theory_bounds, timing_sec, paths

Reports embed the resolved configuration and per-stage wall-clock times;
rerunning a command with the same seed and config reproduces every value
outside ``timing_sec`` and ``paths``.  Exit status is 0 only when the
command completed and all hard preconditions held (hypothesis warnings are
flagged in the report instead of failing the run).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_CONSTANTS, Constants, parse_constants
from .datagen import (
    LkpInstance,
    fixtures,
    gen_lkp,
    gen_two_gaussian_mixture,
    gen_well_separated_polytope,
)
from .geometry import PointMatrix, VPolytope, diameter, well_separation
from .kolp import PruneError, audit_projected_oracle, kolp_run
from .learner import hausdorff_learn, list_learn
from .oracles import exact_oracle, noisy_oracle
from .rsh import (
    SeparationVerdict,
    estimate_rsh_probability,
    margin,
    recommended_query_budget,
    separate_via_opt,
)
from .softhull import EnvelopeParams, find_soft_envelope, find_soft_envelope_sqrt

__all__ = ["main", "save_matrix", "load_matrix", "write_report"]


# ---------------------------------------------------------------------------
# file formats


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, pm: PointMatrix) -> None:
    """Write a point matrix: header ``dims d n``, then one column per line."""
    lines = [f"dims {pm.dim} {pm.count}"]
    for j in range(pm.count):
        lines.append(" ".join(f"{v:.17g}" for v in pm.entries[:, j]))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def load_matrix(path) -> PointMatrix:
    """Parse a matrix file; parse errors carry line and token positions."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != "dims":
            raise ValueError(f"{path}:1: expected header 'dims d n', got {header.strip()!r}")
        try:
            d, n = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:1: bad dimensions in header: {exc}") from exc
        entries = np.empty((d, n))
        for j in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}:{j + 2}: expected {n} columns, file ended at {j}")
            toks = line.split()
            if len(toks) != d:
                raise ValueError(
                    f"{path}:{j + 2}: expected {d} values, found {len(toks)}"
                )
            for i, tok in enumerate(toks):
                try:
                    entries[i, j] = float(tok)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{j + 2}: column {i + 1}: bad value {tok!r}"
                    ) from exc
        for lineno, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise ValueError(f"{path}:{lineno}: data after the declared {n} columns")
    return PointMatrix(entries)


def write_report(path, report: dict) -> None:
    _atomic_write(Path(path), json.dumps(report, indent=2, sort_keys=True) + "\n")


class _Timer:
    def __init__(self):
        self.stages: dict[str, float] = {}

    def time(self, name: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                timer.stages[name] = time.perf_counter() - self.t0
                return False

        return _Ctx()


def _base_report(command: str, config: dict, seed, constants: Constants) -> dict:
    return {
        "tool": "polylearn",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "constants": {"c": constants.c, "cprime": constants.cprime, "c0": constants.c0},
        "results": {},
        "hypothesis_checks": [],
        "theory_bounds": {},
        "timing_sec": {},
        "paths": {},
    }


def _collect_warnings(record) -> list[dict]:
    return [
        {"name": "warning", "condition": str(w.message), "holds": False}
        for w in record
    ]


def _finish(report: dict, timer: _Timer, out_path, extra_paths: dict | None = None) -> int:
    report["timing_sec"] = {k: round(v, 6) for k, v in timer.stages.items()}
    paths = dict(extra_paths or {})
    if out_path is not None:
        paths["report"] = str(out_path)
    report["paths"] = paths
    if out_path is not None:
        write_report(out_path, report)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args, constants: Constants) -> int:
    out_dir = Path(args.out or ".")
    timer = _Timer()
    config = {
        "kind": args.kind,
        "d": args.d,
        "k": args.k,
        "n": args.n,
        "w0": args.w0,
        "noise_scale": args.noise_scale,
        "v_norm": args.v_norm,
        "delta_target": args.delta_target,
    }
    report = _base_report("gen", config, args.seed, constants)
    manifest = {"kind": args.kind, "seed": args.seed}
    files: dict[str, str] = {}

    with timer.time("generate"):
        if args.kind == "two-gaussian":
            inst = gen_two_gaussian_mixture(args.d, args.n, v_norm=args.v_norm, seed=args.seed)
        elif args.kind == "lkp":
            M = gen_well_separated_polytope(args.d, args.k, args.delta_target, seed=args.seed)
            inst = gen_lkp(M, args.n, args.w0, args.noise_scale, seed=args.seed + 1)
        elif args.kind == "polytope":
            M = gen_well_separated_polytope(args.d, args.k, args.delta_target, seed=args.seed)
            inst = None
        else:
            raise ValueError(f"unknown generator kind {args.kind!r}")

    with timer.time("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        if inst is not None:
            save_matrix(out_dir / "A.mat", inst.A)
            save_matrix(out_dir / "P.mat", inst.P)
            save_matrix(out_dir / "M.mat", inst.M.vertices)
            files = {"A": "A.mat", "P": "P.mat", "M": "M.mat"}
            manifest.update(
                d=inst.dim,
                k=inst.k,
                n=inst.n,
                w0=inst.w0,
                sigma0=inst.sigma0,
                diameter=inst.M.diameter(),
                separation=well_separation(inst.M) if inst.k >= 2 else None,
            )
        else:
            save_matrix(out_dir / "M.mat", M.vertices)
            files = {"M": "M.mat"}
            manifest.update(
                d=M.dim,
                k=M.count,
                diameter=M.diameter(),
                separation=well_separation(M),
            )
        manifest["files"] = files
        _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    report["results"] = {k: v for k, v in manifest.items() if k != "files"}
    return _finish(report, timer, out_dir / "report.json", {"data_dir": str(out_dir)})


def _load_polytope(args) -> VPolytope:
    if args.fixture:
        fx = fixtures()
        if args.fixture not in fx:
            raise ValueError(f"unknown fixture {args.fixture!r}; have {sorted(fx)}")
        return VPolytope(fx[args.fixture])
    if not args.vertices:
        raise ValueError("supply --vertices FILE or --fixture NAME")
    return VPolytope(load_matrix(args.vertices))


def _default_point(K: VPolytope, fixture: str | None, delta: float) -> np.ndarray:
    # Canonical outside point for the bundled fixtures: unit-perpendicular
    # offsets placed at distance delta*diam from the hull.
    if fixture == "example1-segment":
        a = np.zeros(K.dim)
        a[1] = delta * K.diameter()
        return a
    if fixture == "example2-sphere":
        a = np.zeros(K.dim)
        a[0] = delta * K.diameter()
        return a
    raise ValueError("supply --point FILE (no canonical point for this input)")


def _cmd_rsh_estimate(args, constants: Constants) -> int:
    timer = _Timer()
    K = _load_polytope(args)
    if args.point:
        a = load_matrix(args.point).column(0)
    else:
        a = _default_point(K, args.fixture, args.delta)
    config = {
        "fixture": args.fixture,
        "vertices": args.vertices,
        "delta": args.delta,
        "subspace_dim": args.subspace_dim or K.dim,
        "trials": args.trials,
    }
    report = _base_report("rsh-estimate", config, args.seed, constants)
    m = args.subspace_dim or K.dim
    with timer.time("estimate"):
        est = estimate_rsh_probability(K, a, args.delta, m, args.trials, args.seed)
    value, basis = est.comparison_value()
    report["results"] = {
        "trials": est.trials,
        "successes": est.successes,
        "empirical_probability": est.empirical_probability,
        "wilson99_lower": est.wilson_lower,
        "wilson99_upper": est.wilson_upper,
        "margin_threshold_factor": est.margin_threshold_factor,
        "comparison_value": value,
        "comparison_basis": basis,
        "bound_satisfied": value >= est.theoretical_lower_bound,
        "vertex_count": est.vertex_count,
        "subspace_dim": est.subspace_dim,
    }
    report["theory_bounds"] = {
        "success_probability_lower_bound": est.theoretical_lower_bound,
        "formula": "(1/40) * k^(-10/delta^2)",
    }
    return _finish(report, timer, args.out)


def _cmd_sep_reduce(args, constants: Constants) -> int:
    timer = _Timer()
    K = _load_polytope(args)
    if args.point:
        a = load_matrix(args.point).column(0)
    else:
        a = _default_point(K, args.fixture, args.delta)
    d = K.dim
    oracle = (
        exact_oracle(K)
        if args.oracle == "exact"
        else noisy_oracle(K, args.epsilon, args.seed + 1)
    )
    queries = args.queries or recommended_query_budget(K.count, args.delta)
    config = {
        "fixture": args.fixture,
        "vertices": args.vertices,
        "delta": args.delta,
        "oracle": args.oracle,
        "epsilon": args.epsilon,
        "queries": queries,
    }
    report = _base_report("sep-reduce", config, args.seed, constants)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with timer.time("reduce"):
            result = separate_via_opt(a, oracle, args.delta, d, queries, args.seed)
    report["hypothesis_checks"] = _collect_warnings(rec)
    delta_k = K.diameter()
    res = {
        "verdict": result.verdict.value,
        "queries_used": result.queries_used,
        "query_budget": queries,
    }
    if result.verdict is SeparationVerdict.SEPARATED:
        true_margin = margin(result.separator, a, K)
        res.update(
            separator=[float(v) for v in result.separator],
            observed_margin=result.margin,
            true_margin=true_margin,
            margin_certified=true_margin >= args.delta * delta_k / (20.0 * math.sqrt(d)),
        )
    report["results"] = res
    report["theory_bounds"] = {
        "certified_margin": args.delta * delta_k / (20.0 * math.sqrt(d)),
        "formula": "delta*diam/(20*sqrt(d))",
    }
    return _finish(report, timer, args.out)


def _make_oracle(args, K: VPolytope):
    if args.oracle == "exact":
        return exact_oracle(K)
    return noisy_oracle(K, args.epsilon, args.seed + 1)


def _cmd_haus_learn(args, constants: Constants) -> int:
    timer = _Timer()
    K = _load_polytope(args)
    oracle = _make_oracle(args, K)
    config = {
        "fixture": args.fixture,
        "vertices": args.vertices,
        "oracle": args.oracle,
        "epsilon": args.epsilon,
        "probes": args.probes,
    }
    report = _base_report("haus-learn", config, args.seed, constants)
    with timer.time("learn"):
        probes, learn = hausdorff_learn(
            oracle, args.probes, truth=K, seed=args.seed, constants=constants
        )
    report["results"] = {
        "query_count": learn.query_count,
        "hausdorff_to_truth": learn.hausdorff_to_truth,
        "relative_hausdorff": learn.delta,
        "diameter": K.diameter(),
    }
    report["hypothesis_checks"] = [
        {"name": "note", "condition": m, "holds": False} for m in learn.messages
    ]
    return _finish(report, timer, args.out)


def _cmd_list_learn(args, constants: Constants) -> int:
    timer = _Timer()
    K = _load_polytope(args)
    oracle = _make_oracle(args, K)
    config = {
        "fixture": args.fixture,
        "vertices": args.vertices,
        "oracle": args.oracle,
        "epsilon": args.epsilon,
        "probes": args.probes,
        "k": K.count,
        "delta": args.delta,
    }
    report = _base_report("list-learn", config, args.seed, constants)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with timer.time("learn"):
            probes, learn = list_learn(
                oracle,
                (K.count, args.delta),
                args.probes,
                truth=K,
                seed=args.seed,
                constants=constants,
            )
    report["hypothesis_checks"] = _collect_warnings(rec) + [
        {"name": "note", "condition": m, "holds": False} for m in learn.messages
    ]
    report["results"] = {
        "query_count": learn.query_count,
        "per_vertex_error": [float(v) for v in learn.per_vertex_error],
        "max_vertex_error": float(learn.per_vertex_error.max()),
        "success": learn.success,
    }
    report["theory_bounds"] = {
        "per_vertex_target": args.delta * K.diameter() / 10.0,
        "formula": "delta*diam/10",
        "recommended_query_count": learn.recommended_query_count,
    }
    return _finish(report, timer, args.out)


def _cmd_softhull(args, constants: Constants) -> int:
    timer = _Timer()
    if args.fixture:
        fx = fixtures()
        if args.fixture not in fx:
            raise ValueError(f"unknown fixture {args.fixture!r}; have {sorted(fx)}")
        W = fx[args.fixture]
    elif args.points:
        W = load_matrix(args.points)
    else:
        raise ValueError("supply --points FILE or --fixture NAME")
    config = {
        "fixture": args.fixture,
        "points": args.points,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "eps3": args.eps3,
    }
    report = _base_report("softhull", config, args.seed, constants)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with timer.time("envelope"):
            if args.eps3 is None:
                result = find_soft_envelope_sqrt(W, args.epsilon, args.delta)
            else:
                params = EnvelopeParams(args.epsilon, args.delta, args.eps3)
                result = find_soft_envelope(W, params)
    report["hypothesis_checks"] = _collect_warnings(rec)
    report["results"] = {
        "found": result.found,
        "q_indices": list(result.q_indices),
        "q_size": len(result.q_indices),
        "diam": result.diam_w,
        "eps3_used": result.params.epsilon3,
        "matching_radius": 2.0 * result.params.epsilon3 * result.diam_w,
        "reason": result.reason,
    }
    return _finish(report, timer, args.out)


def _cmd_kolp(args, constants: Constants) -> int:
    timer = _Timer()
    A = load_matrix(args.data)
    config = {
        "data": args.data,
        "k": args.k,
        "w0": args.w0,
        "delta": args.delta,
        "probes": args.probes,
        "half_fraction": args.half_fraction,
        "truth": args.truth,
    }
    report = _base_report("kolp", config, args.seed, constants)
    fraction = args.w0 / 2.0 if args.half_fraction else None
    with timer.time("pipeline"):
        out = kolp_run(
            A,
            args.k,
            args.w0,
            args.delta,
            args.probes,
            seed=args.seed,
            smoothing_fraction=fraction,
            constants=constants,
        )
    results = {
        "vertex_estimates": [
            [float(v) for v in out.vertex_estimates.entries[:, j]]
            for j in range(out.vertex_estimates.count)
        ],
        "probe_count": out.probe_log.count,
        "envelope_params_used": {
            "epsilon": out.envelope_params_used.epsilon,
            "delta": out.envelope_params_used.delta,
            "epsilon3": out.envelope_params_used.epsilon3,
        },
        "prune_attempts": [
            {k: v for k, v in a.items()} for a in out.prune_attempts
        ],
        "singular_values": [float(s) for s in out.projection.singular_values],
    }
    report["hypothesis_checks"] = [
        {"name": "note", "condition": m, "holds": False} for m in out.messages
    ]
    if args.truth:
        M = VPolytope(load_matrix(args.truth))
        delta_k = M.diameter()
        V = M.vertices.entries
        E = out.vertex_estimates.entries
        d2 = (
            np.einsum("ij,ij->j", V, V)[:, None]
            + np.einsum("ij,ij->j", E, E)[None, :]
            - 2.0 * V.T @ E
        )
        per_vertex = np.sqrt(np.clip(d2.min(axis=1), 0.0, None))
        target = args.delta * delta_k / 5.0
        results.update(
            per_vertex_error=[float(v) for v in per_vertex],
            recovery_target=target,
            recovered=bool(per_vertex.max() <= target),
        )
        report["theory_bounds"] = {
            "per_vertex_target": target,
            "formula": "delta*diam/5",
        }
    report["results"] = results
    return _finish(report, timer, args.out)


def _load_instance_dir(path) -> LkpInstance:
    base = Path(path)
    with open(base / "manifest.json") as fh:
        manifest = json.load(fh)
    try:
        M, P, A = (load_matrix(base / manifest["files"][name]) for name in "MPA")
        w0, sigma0 = manifest["w0"], manifest["sigma0"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{base / 'manifest.json'}: missing or bad entry {exc}") from exc
    M = VPolytope(M)
    radius = sigma0 / math.sqrt(w0) + 1e-12 if sigma0 > 0 else 1e-12
    clusters = []
    V = M.vertices.entries
    for ell in range(M.count):
        offs = P.entries - V[:, [ell]]
        d = np.sqrt(np.einsum("ij,ij->j", offs, offs))
        clusters.append(np.flatnonzero(d <= radius))
    return LkpInstance(
        M=M, P=P, A=A, w0=w0, sigma0=sigma0, cluster_sets=tuple(clusters)
    )


def _cmd_audit_oracle(args, constants: Constants) -> int:
    timer = _Timer()
    inst = _load_instance_dir(args.dir)
    fraction = args.fraction if args.fraction is not None else inst.w0
    config = {"dir": args.dir, "fraction": fraction, "trials": args.trials}
    report = _base_report("audit-oracle", config, args.seed, constants)
    with timer.time("audit"):
        audit = audit_projected_oracle(inst, fraction, args.trials, seed=args.seed)
    report["results"] = {
        "trials": audit.trials,
        "passes": audit.passes,
        "all_passed": audit.all_passed,
        "epsilon": audit.epsilon,
        "worst_containment_slack": audit.worst_containment_slack,
        "worst_optimality_slack": audit.worst_optimality_slack,
        "vertex_displacements": [float(v) for v in audit.vertex_displacements],
        "displacement_within_bound": bool(
            audit.vertex_displacements.max() <= audit.displacement_bound + 1e-12
        ),
    }
    report["theory_bounds"] = {
        "oracle_epsilon": audit.epsilon,
        "oracle_epsilon_formula": "10*sigma0/(sqrt(w0)*diam)",
        "displacement_bound": audit.displacement_bound,
        "displacement_formula": "5*sigma0/sqrt(w0)",
    }
    return _finish(report, timer, args.out)


def _cmd_fixtures(args, constants: Constants) -> int:
    timer = _Timer()
    out_dir = Path(args.out or "fixtures")
    report = _base_report("fixtures", {}, args.seed, constants)
    with timer.time("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        names = {}
        for name, pm in fixtures().items():
            fname = f"{name}.mat"
            save_matrix(out_dir / fname, pm)
            names[name] = fname
        _atomic_write(
            out_dir / "manifest.json",
            json.dumps({"fixtures": names}, indent=2, sort_keys=True) + "\n",
        )
    report["results"] = {"fixtures": sorted(names)}
    return _finish(report, timer, out_dir / "report.json", {"data_dir": str(out_dir)})


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="report/output path")
    p.add_argument(
        "--constants",
        type=str,
        default="",
        help="override constants, e.g. c=20,cprime=100,c0=20",
    )


def _add_polytope_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vertices", type=str, default=None, help="vertex matrix file")
    p.add_argument("--fixture", type=str, default=None, help="bundled fixture name")
    p.add_argument("--point", type=str, default=None, help="query point matrix (one column)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylearn",
        description="Learn polytopes from approximate optimization oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--kind", choices=["two-gaussian", "lkp", "polytope"], required=True)
    p.add_argument("--d", type=int, default=100)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--w0", type=float, default=0.5)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--v-norm", type=float, default=10.0)
    p.add_argument("--delta-target", type=float, default=0.3)
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("rsh-estimate", help="estimate the random-separation probability")
    _add_polytope_source(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--subspace-dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(fn=_cmd_rsh_estimate)

    p = sub.add_parser("sep-reduce", help="separate a point using an optimization oracle")
    _add_polytope_source(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--oracle", choices=["exact", "noisy"], default="exact")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--queries", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_sep_reduce)

    p = sub.add_parser("haus-learn", help="hull learning by random probes")
    _add_polytope_source(p)
    p.add_argument("--oracle", choices=["exact", "noisy"], default="exact")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--probes", type=int, default=500)
    _add_common(p)
    p.set_defaults(fn=_cmd_haus_learn)

    p = sub.add_parser("list-learn", help="vertex list learning by random probes")
    _add_polytope_source(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--oracle", choices=["exact", "noisy"], default="exact")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--probes", type=int, default=3000)
    _add_common(p)
    p.set_defaults(fn=_cmd_list_learn)

    p = sub.add_parser("softhull", help="extract a soft-hull envelope")
    p.add_argument("--points", type=str, default=None)
    p.add_argument("--fixture", type=str, default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps3", type=float, default=None, help="default: 4*sqrt(epsilon)")
    _add_common(p)
    p.set_defaults(fn=_cmd_softhull)

    p = sub.add_parser("kolp", help="full pipeline: SVD, smoothed probes, prune to k")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--probes", type=int, default=10_000)
    p.add_argument("--half-fraction", action="store_true", help="smooth over w0*n/2 points")
    p.add_argument("--truth", type=str, default=None, help="vertex matrix for scoring")
    _add_common(p)
    p.set_defaults(fn=_cmd_kolp)

    p = sub.add_parser("audit-oracle", help="audit the projected smoothing oracle")
    p.add_argument("--dir", type=str, required=True, help="directory written by gen")
    p.add_argument("--fraction", type=float, default=None, help="default: w0 from the manifest")
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p)
    p.set_defaults(fn=_cmd_audit_oracle)

    p = sub.add_parser("fixtures", help="write the bundled deterministic fixtures")
    _add_common(p)
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        constants = parse_constants(args.constants) if args.constants else DEFAULT_CONSTANTS
        return args.fn(args, constants)
    except (ValueError, PruneError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
