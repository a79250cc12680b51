"""End-to-end vertex recovery: SVD projection, smoothed probes, pruning to k.

Pipeline: project the data to its top-k singular subspace, answer random
direction queries there by subset smoothing, and prune the answer cloud to
exactly k points with the soft-hull envelope procedure.  The projection is
what turns a dimension-dependent oracle error (too weak when k << d) into a
k-dependent one, which is the regime where random probes provably work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONSTANTS, Constants
from .datagen import LkpInstance, _gram_top_eigs
from .geometry import PointMatrix, _hull_distances, _pairwise_distances, as_point_matrix
from .learner import ProbeSet, random_probes
from .oracles import SubsetSmoothingOracle, _unit_directions
from .softhull import EnvelopeParams, find_soft_envelope

__all__ = [
    "SvdProjection",
    "KolpOutput",
    "PruneError",
    "ProjectedOracleAudit",
    "svd_project",
    "prune_to_k",
    "kolp_run",
    "audit_projected_oracle",
]


@dataclass(frozen=True, eq=False)
class SvdProjection:
    """Top-k left-singular basis of a data matrix and the projected coordinates.

    ``basis`` is d x k with orthonormal columns, oriented so the largest-
    magnitude entry of each column is positive; ``projected`` holds basis^T A.
    """

    basis: np.ndarray
    projected: PointMatrix
    singular_values: np.ndarray

    def __post_init__(self):
        gram = self.basis.T @ self.basis
        if not np.allclose(gram, np.eye(self.basis.shape[1]), atol=1e-9):
            raise ValueError("projection basis must be orthonormal")

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def lift(self, points) -> np.ndarray:
        pts = points.entries if isinstance(points, PointMatrix) else np.asarray(points)
        return self.basis @ pts

    def project_points(self, points) -> np.ndarray:
        pts = points.entries if isinstance(points, PointMatrix) else np.asarray(points)
        return self.basis.T @ pts


def svd_project(A, k: int) -> SvdProjection:
    """Project the columns of A onto the span of its top-k left singular vectors.

    Singular-value ties resolve as the underlying factorization orders them;
    each basis vector is sign-normalized (largest-magnitude entry positive)
    so results are deterministic and projecting twice is idempotent.
    """
    Am = as_point_matrix(A)
    d, n = Am.dim, Am.count
    if n == 0:
        raise ValueError("cannot project an empty matrix")
    if not (1 <= k <= min(d, n)):
        raise ValueError(f"k = {k} out of range [1, min(d, n) = {min(d, n)}]")
    s, V = _gram_top_eigs(Am.entries, k)
    # Tall input yields right singular vectors: QR of A V normalizes the left
    # ones and completes the columns with sigma = 0 orthonormally.
    basis = V if d <= n else np.linalg.qr(Am.entries @ V)[0]
    basis *= np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(k)])
    projected = PointMatrix(basis.T @ Am.entries)
    return SvdProjection(basis=basis, projected=projected, singular_values=s)


class PruneError(RuntimeError):
    """Pruning could not produce exactly k points; carries attempt diagnostics."""

    def __init__(self, message: str, attempts: list[dict]):
        super().__init__(message)
        self.attempts = attempts


def _dedupe_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse bit-identical columns, keeping first occurrences in order."""
    _, first = np.unique(X, axis=1, return_index=True)
    keep = np.sort(first)
    return X[:, keep], keep


def _separation_histogram(X: np.ndarray, cap: int = 512) -> list[tuple[float, int]]:
    n = X.shape[1]
    if n < 2:
        return []
    if n > cap:
        X = X[:, np.linspace(0, n - 1, cap).astype(int)]
        n = cap
    dists = _pairwise_distances(X, X)[np.triu_indices(n, k=1)]
    counts, edges = np.histogram(dists, bins=8)
    return [(float(edges[i + 1]), int(counts[i])) for i in range(len(counts))]


def _derive_prune_params(delta: float, constants: Constants) -> tuple[float, float, float, list[str]]:
    """Pruning parameters: delta' = delta/4, eps' = 32*delta^2/c, eps3 = 4*sqrt(eps').

    When the configured constant makes the eps3 formula leave its valid
    range (0, 1/8), eps3 falls back to 1.5*eps' (a scale just above the
    coverage radius) so that desk-scale runs remain feasible; the fallback
    is reported, never silent.
    """
    messages = []
    delta_prime = delta / 4.0
    eps_prime = 32.0 * delta**2 / constants.c
    eps3 = 4.0 * math.sqrt(eps_prime)
    if eps3 >= 0.125:
        fallback = 1.5 * eps_prime
        messages.append(
            f"eps3 formula 4*sqrt(32*delta^2/c) = {eps3:.4g} is outside (0, 1/8) "
            f"with c = {constants.c}; starting the ladder at 1.5*eps' = {fallback:.4g}"
        )
        eps3 = fallback
    if eps3 > 0.3:
        messages.append(
            f"thinning radius {eps3:.4g} clamped to 0.3 (pairwise threshold "
            "2*eps3*diam must stay below vertex spacings)"
        )
        eps3 = 0.3
    return delta_prime, eps_prime, eps3, messages


_PRUNE_RETRIES = 3


def _prune_attempts(
    W: PointMatrix,
    k: int,
    delta: float,
    constants: Constants,
) -> tuple[PointMatrix, EnvelopeParams, list[dict]]:
    X, keep = _dedupe_columns(W.entries)
    deduped = PointMatrix(X)
    delta_prime, eps_prime, eps3, messages = _derive_prune_params(delta, constants)
    # Below ~1.2*eps' the far-set radius dips under the coverage radius and
    # true representatives start getting pruned; never thin below that.
    eps3_floor = min(1.2 * eps_prime, 0.3)
    attempts: list[dict] = []
    for trial in range(_PRUNE_RETRIES + 1):
        params = EnvelopeParams(epsilon=eps_prime, delta=delta_prime, epsilon3=eps3)
        # The ladder leaves the guaranteed parameter range on purpose; only
        # those warnings are silenced, never the solver's.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"(epsilon3?|delta) = ", RuntimeWarning)
            result = find_soft_envelope(deduped, params)
        record = {
            "attempt": trial,
            "epsilon": eps_prime,
            "delta": delta_prime,
            "eps3": eps3,
            "found": result.found,
            "candidates": len(result.q_indices),
            "notes": messages if trial == 0 else [],
        }
        attempts.append(record)
        if result.found and len(result.q_indices) == k:
            original = keep[np.asarray(result.q_indices, dtype=int)]
            record["selected_columns"] = [int(i) for i in original]
            return W.select(original), params, attempts
        # Retry with the thinning radius adjusted toward the failure mode:
        # too few candidates means distinct representatives merged (halve),
        # anything else follows the doubling ladder.
        if len(result.q_indices) < k:
            new_eps3 = max(eps3 / 2.0, eps3_floor)
            if new_eps3 >= eps3 - 1e-15:
                record["stopped"] = "thinning radius already at its floor"
                break
            eps3 = new_eps3
        else:
            eps3 = min(eps3 * 2.0, 0.49)
    hist = _separation_histogram(X)
    raise PruneError(
        f"pruning failed to isolate k = {k} points after {len(attempts)} attempts "
        f"(deduped cloud size {deduped.count}; last candidate count "
        f"{attempts[-1].get('candidates', 'n/a')}); pairwise-distance histogram "
        f"(upper edge, count): {hist}",
        attempts,
    )


def prune_to_k(
    W,
    k: int,
    delta: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> PointMatrix:
    """Reduce an answer cloud to exactly k representative points.

    Runs soft-hull envelope extraction with parameters derived from delta
    (delta' = delta/4, eps' = 32*delta^2/c), retrying with the thinning
    radius doubled up to three times.  Raises PruneError with per-attempt
    diagnostics when no attempt yields exactly k points.
    """
    Wm = as_point_matrix(W)
    if k < 1:
        raise ValueError("k must be positive")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if Wm.count < k:
        raise PruneError(f"cannot select {k} points from {Wm.count} answers", [])
    selected, _, _ = _prune_attempts(Wm, k, delta, constants)
    return selected


@dataclass(frozen=True, eq=False)
class KolpOutput:
    """Result of the full pipeline, lifted back to ambient coordinates."""

    vertex_estimates: PointMatrix
    probe_log: ProbeSet
    envelope_params_used: EnvelopeParams
    projection: SvdProjection
    prune_attempts: tuple[dict, ...]
    messages: tuple[str, ...] = field(default_factory=tuple)


def kolp_run(
    A,
    k: int,
    w0: float,
    delta: float,
    m: int,
    seed: int = 0,
    smoothing_fraction: float | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> KolpOutput:
    """Recover k vertex estimates from raw data.

    Stages: svd_project(A, k); subset smoothing over the projected columns
    (fraction defaults to w0; pass w0/2 explicitly for the halved variant);
    m random unit probes inside the projected space; prune_to_k; lift the
    estimates back through the basis.  Stage failures are re-raised tagged
    with the stage name.
    """
    Am = as_point_matrix(A)
    if not (0.0 < w0 <= 1.0):
        raise ValueError("w0 must lie in (0, 1]")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    messages: list[str] = []
    if k > 1:
        sep_floor = math.sqrt(math.log(k)) / math.sqrt(constants.c0 * k)
        if delta < sep_floor:
            messages.append(
                f"hypothesis delta >= sqrt(log k)/sqrt(c0*k) fails: "
                f"{delta:.4g} < {sep_floor:.4g}"
            )
    messages.append("sigma0 hypothesis not checked (no latent ground truth supplied)")

    fraction = w0 if smoothing_fraction is None else smoothing_fraction

    def _stage(name, fn):
        try:
            return fn()
        except PruneError:
            raise
        except Exception as exc:
            raise RuntimeError(f"kolp stage '{name}' failed: {exc}") from exc

    projection = _stage("svd-project", lambda: svd_project(Am, k))
    oracle = _stage(
        "subset-smoothing-oracle",
        lambda: SubsetSmoothingOracle(projection.projected, fraction),
    )
    probes = _stage("random-probes", lambda: random_probes(oracle, m, seed=seed))
    try:
        selected, params, attempts = _prune_attempts(probes.answers, k, delta, constants)
    except PruneError as exc:
        raise PruneError(f"kolp stage 'prune-to-k' failed: {exc}", exc.attempts) from exc
    estimates = PointMatrix(projection.lift(selected))
    return KolpOutput(
        vertex_estimates=estimates,
        probe_log=probes,
        envelope_params_used=params,
        projection=projection,
        prune_attempts=tuple(attempts),
        messages=tuple(messages),
    )


@dataclass(frozen=True, eq=False)
class ProjectedOracleAudit:
    """Aggregate audit of the smoothing oracle inside the projected space."""

    trials: int
    passes: int
    epsilon: float
    worst_containment_slack: float
    worst_optimality_slack: float
    vertex_displacements: np.ndarray
    displacement_bound: float

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials


def audit_projected_oracle(
    instance: LkpInstance,
    fraction: float,
    trials: int,
    seed: int = 0,
) -> ProjectedOracleAudit:
    """Audit the projected subset-smoothing oracle against known ground truth.

    For random unit directions in the top-k subspace of A, both oracle
    clauses are checked against the projected polytope with error budget
    eps = 10*sigma0/(sqrt(w0)*Delta) scaled by the ambient diameter Delta.
    Also reports each vertex's displacement under projection, whose bound
    is 5*sigma0/sqrt(w0).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    projection = svd_project(instance.A, instance.k)
    M = instance.M.vertices.entries
    M_hat = projection.project_points(instance.M.vertices)
    oracle = SubsetSmoothingOracle(projection.projected, fraction)
    delta_k = instance.M.diameter()
    eps = (
        10.0 * instance.sigma0 / (math.sqrt(instance.w0) * delta_k)
        if delta_k > 0
        else 0.0
    )
    tol = 1e-8 * max(delta_k, 1.0)
    U = _unit_directions(np.random.default_rng(seed), trials, instance.k)
    answers = oracle.query_batch(U)
    # Both clauses of audit_answer for every trial, with one hull-distance call.
    budget = eps * delta_k
    containment = _hull_distances(answers, M_hat, 1e-10)[0] - budget
    optimality = (U * answers.T).sum(-1) - (U @ M_hat).max(-1) + budget
    passes = int(np.count_nonzero((containment <= tol) & (optimality >= -tol)))
    lifted = projection.basis @ M_hat
    displacements = np.linalg.norm(M - lifted, axis=0)
    return ProjectedOracleAudit(
        trials=trials,
        passes=passes,
        epsilon=eps,
        worst_containment_slack=float(containment.max()),
        worst_optimality_slack=float(optimality.min()),
        vertex_displacements=displacements,
        displacement_bound=5.0 * instance.sigma0 / math.sqrt(instance.w0),
    )
