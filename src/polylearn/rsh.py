"""Random separating hyperplanes (RSH) and separation from optimization.

For a point ``a`` at distance >= delta*diam(K) from a k-vertex polytope K,
a random Gaussian direction u drawn in a subspace containing K and ``a``
separates them with margin

    u.a - max_{y in K} u.y >= |u| * delta * diam(K) * t(k, m),
    t(k, m) = sqrt(ln k) / (sqrt(ln k) + 4*delta*sqrt(m)),

with probability at least (1/40) * k^(-10/delta^2).  This module estimates
that probability empirically and uses the same mechanism to build a
separation routine out of any optimization oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import VPolytope, dist_to_hull
from .oracles import OptOracle, _unit_directions

__all__ = [
    "RshEstimate",
    "SeparationVerdict",
    "SeparationResult",
    "margin",
    "margin_threshold_factor",
    "rsh_lower_bound",
    "estimate_rsh_probability",
    "normalized_margin_samples",
    "separate_via_opt",
    "recommended_query_budget",
]

_WILSON_Z99 = 2.5758293035489004  # 99.5 percentile of the standard normal
_BLOCK = 100_000  # samples drawn per step of estimate_rsh_probability
_QUERY_BLOCK = 1024  # directions per draw of separate_via_opt; any size gives the same queries


def margin(u, a, K: VPolytope) -> float:
    """Separation margin u.a - max_{y in K} u.y, exact via a vertex scan."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if u.shape[0] != K.dim or a.shape[0] != K.dim:
        raise ValueError("dimension mismatch between direction, point and polytope")
    if not np.any(u):
        raise ValueError("direction must be nonzero")
    return float(u @ a - np.max(u @ K.vertices.entries))


def margin_threshold_factor(k: int, delta: float, m: int) -> float:
    """sqrt(ln k) / (sqrt(ln k) + 4*delta*sqrt(m)); zero when k = 1."""
    if k < 1:
        raise ValueError("vertex count must be >= 1")
    root_log_k = math.sqrt(math.log(k))
    if root_log_k == 0.0:
        return 0.0
    return root_log_k / (root_log_k + 4.0 * delta * math.sqrt(m))


def rsh_lower_bound(k: int, delta: float) -> float:
    """(1/40) * k^(-10/delta^2), the guaranteed success probability."""
    return 0.025 * float(k) ** (-10.0 / delta**2)


@dataclass(frozen=True)
class RshEstimate:
    """Empirical estimate of the random-separation probability."""

    trials: int
    successes: int
    margin_threshold_factor: float
    theoretical_lower_bound: float
    empirical_probability: float
    wilson_lower: float
    wilson_upper: float
    delta: float
    subspace_dim: int
    vertex_count: int

    def __post_init__(self):
        if not (0 <= self.successes <= self.trials):
            raise ValueError("successes must lie in [0, trials]")
        if self.trials > 0 and abs(
            self.empirical_probability - self.successes / self.trials
        ) > 1e-12:
            raise ValueError("empirical_probability must equal successes/trials")

    def comparison_value(self) -> tuple[float, str]:
        """Value to compare against the bound, per the reporting contract.

        Uses the Wilson lower edge when the interval is tight enough
        (width < bound/2); otherwise falls back to the point estimate.
        """
        width = self.wilson_upper - self.wilson_lower
        if width < self.theoretical_lower_bound / 2.0:
            return self.wilson_lower, "wilson_lower"
        return self.empirical_probability, "point_estimate"


def _wilson_interval(successes: int, trials: int, z: float = _WILSON_Z99):
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max((center - half) / denom, 0.0), min((center + half) / denom, 1.0)


def _span_coordinates(K: VPolytope, a: np.ndarray, m: int):
    """Coordinates of ``a`` and of K's vertices in an orthonormal basis of span(K u {a}).

    Returns (proj_a, proj_v) with r = rank(K u {a}) rows; r must not exceed m.
    """
    if m < 1:
        raise ValueError(f"subspace dimension must be positive, got {m}")
    if m > K.dim:
        raise ValueError(f"subspace dimension {m} exceeds ambient dimension {K.dim}")
    raw = np.column_stack([K.vertices.entries, a])
    _, s, vt = np.linalg.svd(raw, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(raw.shape) * np.finfo(float).eps))
    if rank > m:
        raise ValueError(
            f"span of the polytope and the point has dimension {rank} > m = {m}"
        )
    coords = s[:rank, None] * vt[:rank]
    return coords[:, -1], coords[:, :-1]


def _normalized_margins(proj_a, proj_v, m: int, size: int, rng: np.random.Generator):
    """``size`` samples of (u.a - max_y u.y)/|u| for Gaussian u in an m-dim subspace.

    The margin sees only u's r coordinates in span(K u {a}); the other m - r
    enter through their squared norm, an independent chi-square(m - r).  So
    drawing r normals and one chi-square per sample is exact.
    """
    r = proj_a.shape[0]
    G = rng.standard_normal((size, r))
    sq_norms = np.einsum("ij,ij->i", G, G)
    if m > r:
        sq_norms += rng.chisquare(m - r, size)
    # The vertex maxima as a max down the k rows of (G proj_v)^T: a row max of
    # G @ proj_v runs a BLAS product of inner dimension r and reduces along a
    # short axis, several times slower for the same bits.
    return (G @ proj_a - (proj_v.T @ G.T).max(axis=0)) / np.sqrt(sq_norms)


def estimate_rsh_probability(
    K: VPolytope,
    a,
    delta: float,
    m: int,
    trials: int,
    seed: int,
    tol: float = 1e-7,
) -> RshEstimate:
    """Estimate the probability of the random-separation margin event.

    Draws ``trials`` standard Gaussian vectors u in an m-dimensional subspace
    containing the polytope and the point, and counts how often

        u.a - max_y u.y >= |u| * delta * diam(K) * t(k, m).

    Precondition: dist(a, K) >= delta * diam(K) (checked; natural log is
    used throughout, and k = 1 degenerates to a zero threshold).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if trials < 1:
        raise ValueError("trials must be positive")
    delta_k = K.diameter()
    dist, _ = dist_to_hull(a, K.vertices, tol=tol)
    slack = 2.0 * tol * max(delta_k, 1.0)
    if dist < delta * delta_k - slack:
        ratio = dist / delta_k if delta_k > 0 else math.inf
        raise ValueError(
            f"point is too close to the polytope: dist/diam = {ratio:.6g}, "
            f"required >= delta = {delta}"
        )
    k = K.count
    proj_a, proj_v = _span_coordinates(K, a, m)  # checks m before the factor's sqrt(m)
    factor = margin_threshold_factor(k, delta, m)
    threshold = delta * delta_k * factor
    rng = np.random.default_rng(seed)
    successes = 0
    for done in range(0, trials, _BLOCK):
        samples = _normalized_margins(proj_a, proj_v, m, min(_BLOCK, trials - done), rng)
        successes += int(np.count_nonzero(samples >= threshold))

    p_hat = successes / trials
    lo, hi = _wilson_interval(successes, trials)
    return RshEstimate(
        trials=trials,
        successes=successes,
        margin_threshold_factor=factor,
        theoretical_lower_bound=rsh_lower_bound(k, delta),
        empirical_probability=p_hat,
        wilson_lower=lo,
        wilson_upper=hi,
        delta=delta,
        subspace_dim=m,
        vertex_count=k,
    )


def normalized_margin_samples(
    K: VPolytope, a, m: int, trials: int, seed: int
) -> np.ndarray:
    """Samples of (u.a - max_y u.y)/|u| for Gaussian u in an m-dim subspace.

    Useful for studying how the achievable margin scales with the subspace
    dimension (the separation margin shrinks like 1/sqrt(m)).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    proj_a, proj_v = _span_coordinates(K, a, m)
    return _normalized_margins(proj_a, proj_v, m, trials, np.random.default_rng(seed))


class SeparationVerdict(Enum):
    INSIDE_SOFTENED = "inside_softened"
    SEPARATED = "separated"


@dataclass(frozen=True, eq=False)
class SeparationResult:
    """Outcome of the randomized separation routine.

    ``separator`` is a unit direction and ``margin`` the observed value of
    u.(a - x(u)) for it; both are None when the point was not separated.
    """

    verdict: SeparationVerdict
    separator: np.ndarray | None
    margin: float | None
    queries_used: int


def separate_via_opt(
    a,
    oracle: OptOracle,
    delta: float,
    d: int,
    num_queries: int,
    seed: int,
) -> SeparationResult:
    """Randomized separation of a point from an oracle-given polytope.

    Samples ``num_queries`` uniform unit directions u and declares separation
    on the first one with u.a > u.x(u) + delta*Delta/(11*sqrt(d)); otherwise
    the point is declared inside the softened polytope.  A valid oracle needs
    advertised error <= delta/(100*sqrt(d)) for the declared separator to be
    genuine (a warning is emitted when the advertised error is larger).
    delta outside (0, 1] raises ValueError before any query.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if a.shape[0] != d or oracle.dim != d:
        raise ValueError("dimension mismatch between point, oracle and d")
    if num_queries < 1:
        raise ValueError(f"num_queries must be positive, got {num_queries}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    eps_needed = delta / (100.0 * math.sqrt(d))
    if math.isfinite(oracle.advertised_epsilon) and oracle.advertised_epsilon > eps_needed:
        warnings.warn(
            f"oracle error {oracle.advertised_epsilon:.3g} exceeds "
            f"delta/(100*sqrt(d)) = {eps_needed:.3g}; separation verdicts may be invalid",
            RuntimeWarning,
            stacklevel=2,
        )
    delta_k = oracle.reference_diameter
    threshold = delta * delta_k / (11.0 * math.sqrt(d))
    rng = np.random.default_rng(seed)
    for start in range(0, num_queries, _QUERY_BLOCK):
        U = _unit_directions(rng, min(_QUERY_BLOCK, num_queries - start), d)
        for i, u in enumerate(U, start + 1):
            x = oracle.query(u)
            observed = float(u @ a - u @ x)
            if observed > threshold:
                return SeparationResult(SeparationVerdict.SEPARATED, u.copy(), observed, i)
    return SeparationResult(SeparationVerdict.INSIDE_SOFTENED, None, None, num_queries)


def recommended_query_budget(k: int, delta: float, failure_prob: float = 0.01) -> int:
    """Default query budget: min(10^6, ceil(40 * k^(10/delta^2) * ln(1/p)))."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    cap = 10**6
    log_budget = math.log(40.0) + (10.0 / delta**2) * math.log(max(k, 1)) + math.log(
        math.log(1.0 / failure_prob)
    )
    if log_budget >= math.log(cap):
        return cap
    return min(cap, int(math.ceil(math.exp(log_budget))))
