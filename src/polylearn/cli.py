"""Command-line surface: generate data, run the algorithms, write JSON reports.

Matrix files are a self-describing text container: a header line
``dims d n`` followed by n lines of d decimal values (one column per line),
printed with 17 significant digits so round-trips are exact.  Every command
writes a JSON report with a stable key schema:

    tool, version, command, config, seed, constants, results,
    hypothesis_checks, theory_bounds, timing_sec, paths

``config`` holds every flag except ``--seed``, ``--out`` and ``--constants``,
plus the values the command resolved; ``hypothesis_checks`` carries every
warning raised during the run.  Rerunning a command with the same seed and
config reproduces every value outside ``timing_sec`` and ``paths``.  Exit
status is 0 only when the command completed and all hard preconditions held
(hypothesis warnings are flagged in the report instead of failing the run);
malformed input and failed preconditions exit 2 with a message that names
the offending file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_CONSTANTS, parse_constants
from .datagen import (
    LkpInstance,
    fixtures,
    gen_lkp,
    gen_two_gaussian_mixture,
    gen_well_separated_polytope,
)
from .geometry import PointMatrix, VPolytope, _nearest_vertex_distances, well_separation
from .kolp import audit_projected_oracle, kolp_run
from .learner import hausdorff_learn, list_learn
from .oracles import exact_oracle, noisy_oracle
from .rsh import (
    SeparationVerdict,
    estimate_rsh_probability,
    margin,
    recommended_query_budget,
    separate_via_opt,
)
from .softhull import EnvelopeParams, find_soft_envelope

__all__ = ["main", "save_matrix", "load_matrix", "write_report"]


# ---------------------------------------------------------------------------
# file formats


@contextmanager
def _atomic_open(path):
    """Text handle on a temporary file that replaces ``path`` only on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, pm: PointMatrix) -> None:
    """Write a point matrix: header ``dims d n``, then one column per line."""
    with _atomic_open(path) as fh:
        np.savetxt(
            fh, pm.entries.T, fmt="%.17g", header=f"dims {pm.dim} {pm.count}", comments=""
        )


def load_matrix(path) -> PointMatrix:
    """Parse a matrix file; parse errors carry line and token positions."""
    path = Path(path)
    # Undecodable bytes become U+FFFD and fail the parse below with a position.
    with open(path, errors="replace") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != "dims":
            raise ValueError(f"{path}:1: expected header 'dims d n', got {header.strip()!r}")
        try:
            d, n = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:1: bad dimensions in header: {exc}") from exc
        if d < 1 or n < 0:
            raise ValueError(f"{path}:1: header needs d >= 1 and n >= 0, got d = {d}, n = {n}")
        try:
            entries = np.empty((d, n))
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{path}:1: header declares too many entries: {exc}") from exc
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
                    value = float(tok)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}:{j + 2}: column {i + 1}: bad value {tok!r}, "
                        "expected a finite number"
                    )
                entries[i, j] = value
        for lineno, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise ValueError(f"{path}:{lineno}: data after the declared {n} columns")
    return PointMatrix(entries)


def write_report(path, report: dict) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# report runner


@dataclasses.dataclass
class _Outcome:
    """What a subcommand hands back; ``_run`` builds the report around it."""

    results: dict
    theory_bounds: dict = dataclasses.field(default_factory=dict)
    config: dict = dataclasses.field(default_factory=dict)  # values the command resolved
    notes: tuple[str, ...] = ()
    data_dir: Path | None = None  # a command that writes a directory keeps its report there


# argparse bookkeeping and the flags every command shares stay out of ``config``
_NOT_CONFIG = {"command", "fn", "seed", "out", "constants"}


@contextmanager
def _stage(timing: dict, name: str):
    t0 = time.perf_counter()
    yield
    timing[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# inputs


def _load_points(args, flag: str) -> PointMatrix:
    """The bundled ``--fixture``, else the matrix file named by ``--<flag>``."""
    if args.fixture:
        fx = fixtures()
        if args.fixture not in fx:
            raise ValueError(f"unknown fixture {args.fixture!r}; have {sorted(fx)}")
        return fx[args.fixture]
    if not getattr(args, flag):
        raise ValueError(f"supply --{flag} FILE or --fixture NAME")
    return load_matrix(getattr(args, flag))


def _query_point(args, K: VPolytope) -> np.ndarray:
    """The one column of ``--point``, else the fixture's canonical outside point."""
    if args.point:
        pm = load_matrix(args.point)
        if pm.count != 1:
            raise ValueError(f"{args.point}: expected one column (the point), got {pm.count}")
        return pm.column(0)
    # Canonical outside points of the bundled fixtures: unit-perpendicular
    # offsets placed at distance delta*diam from the hull.
    axis = {"example1-segment": 1, "example2-sphere": 0}.get(args.fixture)
    if axis is None:
        raise ValueError("supply --point FILE (no canonical point for this input)")
    a = np.zeros(K.dim)
    a[axis] = args.delta * K.diameter()
    return a


def _make_oracle(args, K: VPolytope):
    if args.oracle == "exact":
        return exact_oracle(K)
    return noisy_oracle(K, args.epsilon, args.seed + 1)


def _load_instance_dir(path) -> LkpInstance:
    manifest_path = Path(path) / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(errors="replace"))
        M, P, A = (load_matrix(manifest_path.parent / manifest["files"][name]) for name in "MPA")
        w0, sigma0 = manifest["w0"], manifest["sigma0"]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{manifest_path}: missing or bad entry {exc}") from exc
    if not (
        all(type(v) in (int, float) for v in (w0, sigma0))  # bool is not a number here
        and 0 < w0 <= 1
        and 0 <= sigma0 <= sys.float_info.max
    ):
        raise ValueError(
            f"{manifest_path}: need finite numbers with 0 < w0 <= 1 and sigma0 >= 0, "
            f"got w0 = {w0!r}, sigma0 = {sigma0!r}"
        )
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


# ---------------------------------------------------------------------------
# subcommands: each reads its flags, makes one library call and returns an
# _Outcome; ``stage(name)`` times a block under ``timing_sec[name]``


def _cmd_gen(args, constants, stage) -> _Outcome:
    out_dir = Path(args.out or ".")
    inst = None
    with stage("generate"):
        if args.kind == "two-gaussian":
            inst = gen_two_gaussian_mixture(args.d, args.n, v_norm=args.v_norm, seed=args.seed)
        else:
            M = gen_well_separated_polytope(args.d, args.k, args.delta_target, seed=args.seed)
            if args.kind == "lkp":
                inst = gen_lkp(M, args.n, args.w0, args.noise_scale, seed=args.seed + 1)
    with stage("write"):
        if inst is None:
            matrices = {"M": M.vertices}
        else:
            M = inst.M
            matrices = {"A": inst.A, "P": inst.P, "M": M.vertices}
        for name, pm in matrices.items():
            save_matrix(out_dir / f"{name}.mat", pm)
        manifest = dict(
            kind=args.kind,
            seed=args.seed,
            d=M.dim,
            k=M.count,
            diameter=M.diameter(),
            separation=well_separation(M),
        )
        if inst is not None:
            manifest.update(n=inst.n, w0=inst.w0, sigma0=inst.sigma0)
        files = {name: f"{name}.mat" for name in matrices}
        write_report(out_dir / "manifest.json", {**manifest, "files": files})
    return _Outcome(manifest, data_dir=out_dir)


def _cmd_rsh_estimate(args, constants, stage) -> _Outcome:
    K = VPolytope(_load_points(args, "vertices"))
    a = _query_point(args, K)
    m = args.subspace_dim or K.dim
    with stage("estimate"):
        est = estimate_rsh_probability(K, a, args.delta, m, args.trials, args.seed)
    value, basis = est.comparison_value()
    results = {
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
    bounds = {
        "success_probability_lower_bound": est.theoretical_lower_bound,
        "formula": "(1/40) * k^(-10/delta^2)",
    }
    return _Outcome(results, bounds, config={"subspace_dim": m})


def _cmd_sep_reduce(args, constants, stage) -> _Outcome:
    K = VPolytope(_load_points(args, "vertices"))
    a = _query_point(args, K)
    oracle = _make_oracle(args, K)
    queries = args.queries or recommended_query_budget(K.count, args.delta)
    with stage("reduce"):
        result = separate_via_opt(a, oracle, args.delta, K.dim, queries, args.seed)
    certified = args.delta * K.diameter() / (20.0 * math.sqrt(K.dim))
    results = {
        "verdict": result.verdict.value,
        "queries_used": result.queries_used,
        "query_budget": queries,
    }
    if result.verdict is SeparationVerdict.SEPARATED:
        true_margin = margin(result.separator, a, K)
        results.update(
            separator=result.separator.tolist(),
            observed_margin=result.margin,
            true_margin=true_margin,
            margin_certified=true_margin >= certified,
        )
    bounds = {"certified_margin": certified, "formula": "delta*diam/(20*sqrt(d))"}
    return _Outcome(results, bounds, config={"queries": queries})


def _cmd_haus_learn(args, constants, stage) -> _Outcome:
    K = VPolytope(_load_points(args, "vertices"))
    oracle = _make_oracle(args, K)
    with stage("learn"):
        _, learn = hausdorff_learn(
            oracle, args.probes, truth=K, seed=args.seed, constants=constants
        )
    results = {
        "query_count": learn.query_count,
        "hausdorff_to_truth": learn.hausdorff_to_truth,
        "relative_hausdorff": learn.delta,
        "diameter": K.diameter(),
    }
    return _Outcome(results, notes=learn.messages)


def _cmd_list_learn(args, constants, stage) -> _Outcome:
    K = VPolytope(_load_points(args, "vertices"))
    oracle = _make_oracle(args, K)
    with stage("learn"):
        _, learn = list_learn(
            oracle,
            (K.count, args.delta),
            args.probes,
            truth=K,
            seed=args.seed,
            constants=constants,
        )
    results = {
        "query_count": learn.query_count,
        "per_vertex_error": learn.per_vertex_error.tolist(),
        "max_vertex_error": float(learn.per_vertex_error.max()),
        "success": learn.success,
    }
    bounds = {
        "per_vertex_target": args.delta * K.diameter() / 10.0,
        "formula": "delta*diam/10",
        "recommended_query_count": learn.recommended_query_count,
    }
    return _Outcome(results, bounds, config={"k": K.count}, notes=learn.messages)


def _cmd_softhull(args, constants, stage) -> _Outcome:
    W = _load_points(args, "points")
    eps3 = args.eps3
    if eps3 is None:  # the square-root default eps3 = 4*sqrt(eps) needs delta > 16*sqrt(eps)
        if args.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        root = math.sqrt(args.epsilon)
        if args.delta <= 16.0 * root:
            raise ValueError(
                f"requires delta > 16*sqrt(epsilon): got delta = {args.delta}, "
                f"16*sqrt(epsilon) = {16.0 * root:.6g}"
            )
        eps3 = 4.0 * root
    with stage("envelope"):
        result = find_soft_envelope(W, EnvelopeParams(args.epsilon, args.delta, eps3))
    return _Outcome({
        "found": result.found,
        "q_indices": list(result.q_indices),
        "q_size": len(result.q_indices),
        "diam": result.diam_w,
        "eps3_used": result.params.epsilon3,
        "matching_radius": 2.0 * result.params.epsilon3 * result.diam_w,
        "reason": result.reason,
    })


def _cmd_kolp(args, constants, stage) -> _Outcome:
    A = load_matrix(args.data)
    truth = VPolytope(load_matrix(args.truth)) if args.truth else None
    fraction = args.w0 / 2.0 if args.half_fraction else None
    with stage("pipeline"):
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
    params = out.envelope_params_used
    results = {
        "vertex_estimates": out.vertex_estimates.entries.T.tolist(),
        "probe_count": out.probe_log.count,
        "envelope_params_used": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "epsilon3": params.epsilon3,
        },
        "prune_attempts": [dict(a) for a in out.prune_attempts],
        "singular_values": out.projection.singular_values.tolist(),
    }
    bounds = {}
    if truth is not None:
        per_vertex = _nearest_vertex_distances(truth.vertices.entries, out.vertex_estimates.entries)
        target = args.delta * truth.diameter() / 5.0
        results.update(
            per_vertex_error=per_vertex.tolist(),
            recovery_target=target,
            recovered=bool(per_vertex.max() <= target),
        )
        bounds = {"per_vertex_target": target, "formula": "delta*diam/5"}
    return _Outcome(results, bounds, notes=out.messages)


def _cmd_audit_oracle(args, constants, stage) -> _Outcome:
    inst = _load_instance_dir(args.dir)
    fraction = args.fraction if args.fraction is not None else inst.w0
    with stage("audit"):
        audit = audit_projected_oracle(inst, fraction, args.trials, seed=args.seed)
    results = {
        "trials": audit.trials,
        "passes": audit.passes,
        "all_passed": audit.all_passed,
        "epsilon": audit.epsilon,
        "worst_containment_slack": audit.worst_containment_slack,
        "worst_optimality_slack": audit.worst_optimality_slack,
        "vertex_displacements": audit.vertex_displacements.tolist(),
        "displacement_within_bound": bool(
            audit.vertex_displacements.max() <= audit.displacement_bound + 1e-12
        ),
    }
    bounds = {
        "oracle_epsilon": audit.epsilon,
        "oracle_epsilon_formula": "10*sigma0/(sqrt(w0)*diam)",
        "displacement_bound": audit.displacement_bound,
        "displacement_formula": "5*sigma0/sqrt(w0)",
    }
    return _Outcome(results, bounds, config={"fraction": fraction})


def _cmd_fixtures(args, constants, stage) -> _Outcome:
    out_dir = Path(args.out or "fixtures")
    with stage("write"):
        names = {}
        for name, pm in fixtures().items():
            names[name] = f"{name}.mat"
            save_matrix(out_dir / names[name], pm)
        write_report(out_dir / "manifest.json", {"fixtures": names})
    return _Outcome({"fixtures": sorted(names)}, data_dir=out_dir)


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
    p.add_argument("--point", type=str, default=None, help="query point matrix (one column)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--subspace-dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(fn=_cmd_rsh_estimate)

    p = sub.add_parser("sep-reduce", help="separate a point using an optimization oracle")
    _add_polytope_source(p)
    p.add_argument("--point", type=str, default=None, help="query point matrix (one column)")
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


def _run(args) -> None:
    """Run one subcommand and write its report."""
    timing: dict[str, float] = {}
    constants = parse_constants(args.constants) if args.constants else DEFAULT_CONSTANTS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = args.fn(args, constants, partial(_stage, timing))
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    report = {
        "tool": "polylearn",
        "version": __version__,
        "command": args.command,
        "config": {**config, **out.config},
        "seed": args.seed,
        "constants": dataclasses.asdict(constants),
        "results": out.results,
        "hypothesis_checks": [
            {"name": "warning", "condition": str(w.message), "holds": False} for w in caught
        ] + [{"name": "note", "condition": m, "holds": False} for m in out.notes],
        "theory_bounds": out.theory_bounds,
        "timing_sec": {k: round(v, 6) for k, v in timing.items()},
        "paths": {},
    }
    path = args.out
    if out.data_dir is not None:
        path = out.data_dir / "report.json"
        report["paths"]["data_dir"] = str(out.data_dir)
    if path is None:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        report["paths"]["report"] = str(path)
        write_report(path, report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (ValueError, OSError, RuntimeError) as exc:  # PruneError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
