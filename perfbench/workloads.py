"""The four benchmark workloads: inputs from a seed, public-API jobs, checks, layer figures.

Each workload has

    setup(seed, params, tr) -> jobs           inputs only; the timed set-up
    run(job, tr) -> dict                      one job's work; the timed part
    check(job, out, ref, traced) -> {name: bool}
    layers(job, out, ref, spans) -> {per-layer metric: value}

A run's inputs depend on the seed alone, and the set-up must return
picklable inputs (it runs in its own process).  ``tr`` is the tracer
(``tr.on`` is False in untraced passes, where every span is a no-op).
``ref`` is the untraced output of the same job, given to
traced passes so that they can prove they ran the same program.  ``spans``
maps span name to seconds within the job.

Why these four: the kolp pipeline's cost splits between the SVD, the oracle
probes and pruning in a way that depends on size, so ``kolp-desk`` (SVD
negligible, probes dominant, data in cache) and ``kolp-wide`` (SVD visible,
4 MB of projected data) sit on both sides of that split.  ``hull-audit`` is
dominated by hull-distance solves and barely queries oracles; ``separation``
makes cheap single oracle queries with early exit, the opposite use of the
oracle layer from the kolp probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

import polylearn as pl

# Separation target for generated LkP polytopes; holds the sigma0 budget at
# delta = 0.3 for the noise levels below (as in the acceptance suite).
LKP_SEPARATION = 0.65


def _seeds(key: tuple[int, ...], n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(n)]


def _match_error(truth: np.ndarray, est: np.ndarray) -> float:
    """Largest distance of the best one-to-one matching of truth to estimates."""
    cost = np.linalg.norm(truth[:, :, None] - est[:, None, :], axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _lkp(tr, d: int, k: int, n: int, w0: float, noise: float, seeds: tuple[int, int]):
    M = pl.gen_well_separated_polytope(d, k, LKP_SEPARATION, seed=seeds[0])
    with tr.span("datagen.gen_lkp"):
        return pl.gen_lkp(M, n, w0, noise, seed=seeds[1], validate=False)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    layers: Callable
    full: dict
    tiny: dict


# --------------------------------------------------------------------------
# kolp-desk and kolp-wide: the end-to-end pipeline


def kolp_setup(seed, p, tr):
    s = _seeds((seed, 1), 3 * p["instances"])
    jobs = []
    for i in range(p["instances"]):
        inst = _lkp(tr, p["d"], p["k"], p["n"], p["w0"], p["noise"], (s[3 * i], s[3 * i + 1]))
        # Keep only what the job and its check read; the latent points are dropped.
        jobs.append({"A": inst.A, "M": inst.M, "w0": inst.w0, "probe_seed": s[3 * i + 2], **p})
    return jobs


def kolp_run(job, tr):
    A, k, w0, delta, m = job["A"], job["k"], job["w0"], job["delta"], job["m"]
    if not tr.on:
        out = pl.kolp_run(A, k, w0, delta, m, seed=job["probe_seed"])
        return {
            "estimates": out.vertex_estimates.entries,
            "answers": out.probe_log.answers.entries,
            "prune_attempts": len(out.prune_attempts),
        }
    # The public stages in kolp_run's order.
    with tr.span("kolp.svd_project"):
        projection = pl.svd_project(A, k)
    with tr.span("oracles.subset_smoothing.init"):
        oracle = pl.SubsetSmoothingOracle(projection.projected, w0)
    with tr.span("learner.random_probes"):
        probes = pl.random_probes(oracle, m, seed=job["probe_seed"])
    with tr.span("kolp.prune_to_k"):
        selected = pl.prune_to_k(probes.answers, k, delta)
    with tr.span("kolp.lift"):
        estimates = projection.lift(selected)
    return {"estimates": estimates, "answers": probes.answers.entries}


def kolp_check(job, out, ref, traced):
    M = job["M"]
    err = _match_error(M.vertices.entries, out["estimates"])
    checks = {"vertices_recovered": err <= job["delta"] * M.diameter() / 5.0}
    if traced:
        checks["matches_kolp_run"] = ref is not None and np.array_equal(out["estimates"], ref["estimates"])
    return checks


def kolp_layers(job, out, ref, spans):
    probes_s = spans["learner.random_probes"]
    return {
        "kolp.svd_project_s": spans["kolp.svd_project"],
        "learner.random_probes_s": probes_s,
        "oracles.subset_smoothing.query_us": probes_s / job["m"] * 1e6,
        "oracles.queries": job["m"],
        "kolp.prune_to_k_s": spans["kolp.prune_to_k"],
        # Deterministic: the untraced kolp_run made the same attempts.
        "kolp.prune_attempts": ref["prune_attempts"],
        "kolp.dedup_answers": np.unique(out["answers"], axis=1).shape[1],
    }


# --------------------------------------------------------------------------
# hull-audit: hull-distance solves dominate


def cluster_set(rng: np.random.Generator):
    """A criterion-7-shaped point set: 2-3 tight clusters meeting the envelope condition."""
    k = int(rng.integers(2, 4))
    dim = int(rng.integers(2, 5))
    eps3 = float(rng.uniform(0.012, 0.028))
    delta = float(rng.uniform(max(4.2 * eps3, 0.06), 0.12))
    eps = 0.4 * delta * eps3 / (2.0 + delta)
    params = pl.EnvelopeParams(epsilon=eps, delta=delta, epsilon3=eps3)
    while True:
        centers = rng.standard_normal((dim, k))
        margins = [
            pl.dist_to_hull(centers[:, ell], np.delete(centers, ell, axis=1))[0]
            for ell in range(k)
        ]
        if min(margins) >= 0.4 * pl.diameter(centers):
            break
    rho = 0.3 * eps * pl.diameter(centers)
    cols, truth = [], []
    for ell in range(k):
        truth.append(len(cols))
        cols.append(centers[:, ell])
        for _ in range(int(rng.integers(3, 7)) - 1):
            off = rng.standard_normal(dim)
            cols.append(centers[:, ell] + off * (rho * rng.random() / np.linalg.norm(off)))
    return pl.PointMatrix(np.column_stack(cols)), params, truth


def hull_setup(seed, p, tr):
    s = _seeds((seed, 3), 6 * p["instances"])
    jobs = []
    for i in range(p["instances"]):
        lkp_seeds, poly_seed, rng_seed, audit_seed, noise_seed = s[6 * i : 6 * i + 2], *s[6 * i + 2 : 6 * i + 6]
        inst = _lkp(tr, p["d"], p["k"], p["n"], p["w0"], p["noise"], lkp_seeds)
        K = pl.gen_well_separated_polytope(p["haus_d"], p["haus_k"], p["haus_sep"], seed=poly_seed)
        rng = np.random.default_rng(rng_seed)
        jobs.append({
            "inst": inst,
            "audit_seed": audit_seed,
            "K": K,
            "oracle": pl.noisy_oracle(K, p["haus_eps"], seed=noise_seed),
            "probe_seed": int(rng.integers(2**31)),
            "clusters": [cluster_set(rng) for _ in range(p["cluster_sets"])],
            **p,
        })
    return jobs


def hull_run(job, tr):
    inst, K, m = job["inst"], job["K"], job["haus_m"]
    validate_error = None
    with tr.span("datagen.validate"):
        try:
            inst.validate()
        except ValueError as exc:  # a violated data-model invariant
            validate_error = str(exc)
    with tr.span("kolp.audit_projected_oracle"):
        audit = pl.audit_projected_oracle(inst, inst.w0, trials=job["audit_trials"], seed=job["audit_seed"])
    if not tr.on:
        probes, report = pl.hausdorff_learn(job["oracle"], m, truth=K, seed=job["probe_seed"])
        haus = report.hausdorff_to_truth
    else:
        # hausdorff_learn's two public stages.
        with tr.span("learner.random_probes"):
            probes = pl.random_probes(job["oracle"], m, seed=job["probe_seed"])
        with tr.span("geometry.hausdorff"):
            haus = pl.hausdorff(probes.answers, K.vertices, tol=1e-6)
    with tr.span("softhull.find_soft_envelope"):
        envelopes = [pl.find_soft_envelope(W, params) for W, params, _ in job["clusters"]]
    return {"validate_error": validate_error, "audit": audit, "answers": probes.answers.entries,
            "haus": haus, "envelopes": envelopes}


def _envelope_ok(W, truth, res) -> bool:
    if not (res.found and len(res.q_indices) == len(truth)):
        return False
    return _match_error(W.entries[:, truth], res.Q.entries) <= 2.0 * res.params.epsilon3 * res.diam_w


def hull_check(job, out, ref, traced):
    audit = out["audit"]
    diam = job["K"].diameter()
    checks = {
        "validate": out["validate_error"] is None,
        "audit_passed": audit.all_passed,
        "audit_displacement": bool(audit.vertex_displacements.max() <= audit.displacement_bound + 1e-12),
        # Noisy answers sit within eps*diam of a vertex; hausdorff adds at most
        # tol*diam of solver error.
        "hausdorff_within_eps": out["haus"] <= (job["haus_eps"] + 2e-6) * diam,
        "envelopes_recovered": all(
            _envelope_ok(W, truth, res) for (W, _, truth), res in zip(job["clusters"], out["envelopes"])
        ),
    }
    if traced:
        checks["matches_hausdorff_learn"] = (
            ref is not None and out["haus"] == ref["haus"] and np.array_equal(out["answers"], ref["answers"])
        )
    return checks


def hull_layers(job, out, ref, spans):
    validate_s = spans["datagen.validate"]
    envelopes = out["envelopes"]
    return {
        "datagen.validate_s": validate_s,
        "datagen.validate_solves_per_s": job["inst"].n / validate_s,
        "kolp.audit_projected_oracle_s": spans["kolp.audit_projected_oracle"],
        "learner.random_probes_s": spans["learner.random_probes"],
        "geometry.hausdorff_s": spans["geometry.hausdorff"],
        "geometry.hausdorff_solves": job["haus_m"] + job["K"].count,
        "softhull.find_soft_envelope_s": spans["softhull.find_soft_envelope"],
        "softhull.found_ratio": sum(r.found for r in envelopes) / len(envelopes),
        "oracles.queries": job["audit_trials"] + job["haus_m"],
    }


# --------------------------------------------------------------------------
# separation: cheap single queries with early exit, RSH estimates, needles


def sep_setup(seed, p, tr):
    s = _seeds((seed, 4), 1 + 7 * p["jobs"])
    d = p["needle_d"]
    # Needle query directions, unit rows, stored as float32 (the log's dtype).
    rng = np.random.default_rng(s[0])
    G = np.empty((d * d, d), dtype=np.float32)
    for start in range(0, d * d, 10_000):
        block = rng.standard_normal((min(10_000, d * d - start), d))
        G[start : start + len(block)] = block / np.linalg.norm(block, axis=1, keepdims=True)
    segment = pl.example1_segment(50)
    sphere = pl.example2_sphere(16, 8)
    sep_K = pl.example1_segment(p["sep_d"])
    jobs = []
    for i in range(p["jobs"]):
        t = s[1 + 7 * i : 8 + 7 * i]
        jobs.append({
            "segment": segment,
            "sphere": sphere,
            "sep_K": sep_K,
            "oracles": {
                "exact": pl.exact_oracle(sep_K),
                "noisy": pl.noisy_oracle(sep_K, p["sep_eps"], seed=t[0]),
            },
            "rsh_seeds": (t[1], t[2]),
            "sep_seeds": (t[3], t[4], t[5]),
            "needle_seed": t[6],
            "needle_dirs": G,
            **p,
        })
    return jobs


def _unit(dim: int, axis: int, scale: float = 1.0) -> np.ndarray:
    a = np.zeros(dim)
    a[axis] = scale
    return a


def sep_run(job, tr):
    trials = job["rsh_trials"]
    with tr.span("rsh.estimate"):
        seg = pl.estimate_rsh_probability(job["segment"], _unit(50, 1), delta=1.0, m=50,
                                          trials=trials, seed=job["rsh_seeds"][0])
    with tr.span("rsh.estimate"):
        sph = pl.estimate_rsh_probability(job["sphere"], _unit(8, 0), delta=0.5, m=8,
                                          trials=trials, seed=job["rsh_seeds"][1])
    d, K = job["sep_d"], job["sep_K"]
    far = _unit(d, 1, 0.5)  # dist 0.5 from the unit segment: delta = 0.5
    inside = K.vertices.column(1)
    separations = {}
    for j, (name, oracle) in enumerate(job["oracles"].items()):
        with tr.span(f"rsh.separate.{name}"):
            separations[name] = (
                pl.separate_via_opt(far, oracle, 0.5, d, job["far_budget"], seed=job["sep_seeds"][j]),
                pl.separate_via_opt(inside, oracle, 0.5, d, job["inside_budget"], seed=job["sep_seeds"][2]),
            )
    nd = job["needle_d"]
    needle = pl.needle_oracle(nd)
    with tr.span("oracles.needle.query"):
        for u in job["needle_dirs"]:
            needle.query(u)
    with tr.span("oracles.needle.queries"):
        log = needle.queries
    with tr.span("oracles.find_consistent_needles"):
        needles = pl.find_consistent_needles(log, nd, count=2, seed=job["needle_seed"])
    return {"rsh": (seg, sph), "separations": separations, "far": far, "log": log, "needles": needles}


def sep_check(job, out, ref, traced):
    d, K = job["sep_d"], job["sep_K"]
    certified = 0.5 * K.diameter() / (20.0 * math.sqrt(d))
    checks = {}
    for name, est in zip(("segment", "sphere"), out["rsh"]):
        checks[f"rsh_bound_{name}"] = est.comparison_value()[0] >= est.theoretical_lower_bound
    for name, (far, inside) in out["separations"].items():
        checks[f"far_separated_{name}"] = (
            far.verdict is pl.SeparationVerdict.SEPARATED
            and pl.margin(far.separator, out["far"], K) >= certified
        )
        checks[f"inside_softened_{name}"] = inside.verdict is pl.SeparationVerdict.INSIDE_SOFTENED
    nd = job["needle_d"]
    log = out.pop("log")  # 256 MB at full size; traced passes do not compare it
    u1, u2 = out["needles"]
    threshold = 4.0 * math.log(nd) / math.sqrt(nd)
    checks["needle_log_complete"] = np.array_equal(log, job["needle_dirs"])
    checks["needles_consistent"] = all(
        float(np.abs(log @ u.astype(np.float32)).max()) <= threshold for u in (u1, u2)
    )
    checks["needles_separated"] = bool(np.linalg.norm(u1 - u2) >= 0.1 and np.linalg.norm(u1 + u2) >= 0.1)
    return checks


def sep_layers(job, out, ref, spans):
    est_s = spans["rsh.estimate"]
    sep = out["separations"]
    queries = {name: sum(r.queries_used for r in pair) for name, pair in sep.items()}
    n_needle = len(job["needle_dirs"])
    return {
        "rsh.estimate_s": est_s,
        "rsh.trials_per_s": 2 * job["rsh_trials"] / est_s,
        "rsh.separate_s": spans["rsh.separate.exact"] + spans["rsh.separate.noisy"],
        "rsh.separate_queries": sum(queries.values()),
        "oracles.exact.query_us": spans["rsh.separate.exact"] / queries["exact"] * 1e6,
        "oracles.noisy.query_us": spans["rsh.separate.noisy"] / queries["noisy"] * 1e6,
        "oracles.needle.query_us": spans["oracles.needle.query"] / n_needle * 1e6,
        "oracles.find_consistent_needles_s": spans["oracles.find_consistent_needles"],
        "oracles.queries": sum(queries.values()) + n_needle,
    }


# --------------------------------------------------------------------------

_KOLP_DESK = dict(instances=8, d=50, k=3, n=5000, w0=0.1, noise=4e-5, delta=0.3, m=10_000)

WORKLOADS = {
    "kolp-desk": Workload(
        kolp_setup, kolp_run, kolp_check, kolp_layers,
        full=_KOLP_DESK,
        tiny=dict(_KOLP_DESK, instances=2, d=15, n=450, noise=3e-5, m=500),
    ),
    "kolp-wide": Workload(
        kolp_setup, kolp_run, kolp_check, kolp_layers,
        full=dict(instances=1, d=200, k=5, n=100_000, w0=0.1, noise=4e-5, delta=0.3, m=1000),
        tiny=dict(instances=1, d=30, k=5, n=2000, w0=0.1, noise=3e-5, delta=0.3, m=300),
    ),
    "hull-audit": Workload(
        hull_setup, hull_run, hull_check, hull_layers,
        full=dict(instances=12, d=50, k=3, n=5000, w0=0.1, noise=4e-5, audit_trials=1000,
                  haus_d=10, haus_k=6, haus_sep=0.3, haus_eps=1e-3, haus_m=2000, cluster_sets=50),
        tiny=dict(instances=2, d=15, k=3, n=450, w0=0.1, noise=3e-5, audit_trials=50,
                  haus_d=10, haus_k=6, haus_sep=0.3, haus_eps=1e-3, haus_m=200, cluster_sets=3),
    ),
    "separation": Workload(
        sep_setup, sep_run, sep_check, sep_layers,
        full=dict(jobs=4, rsh_trials=10**6, sep_d=10, sep_eps=1e-3, far_budget=10**5,
                  inside_budget=5000, needle_d=400),
        tiny=dict(jobs=2, rsh_trials=20_000, sep_d=10, sep_eps=1e-3, far_budget=10**5,
                  inside_budget=200, needle_d=40),
    ),
}
