"""Soft convex hulls and envelope extraction.

The soft hull of a subset S of a point set W inflates CH(S) by a ball of
radius eps*diam(W).  A subset T of W is an (eps, delta)-envelope when its
soft hull covers W while every member of T stays further than delta*diam(W)
from the hull of the other members.  ``find_soft_envelope`` implements the
prune-then-thin procedure that recovers such an envelope whenever one
exists and the parameters satisfy

    delta > max(2*eps/(eps3 - eps), 4*eps3),          (*)

in which case the output Q matches the envelope point-for-point within
2*eps3*diam(W).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _BLOCK,
    PointMatrix,
    SimplexCoeffs,
    _hull_distances,
    _leave_one_out,
    _min_norm_point,
    _pairwise_distances,
    as_point_matrix,
    diameter,
    hull_membership,
)

__all__ = [
    "EnvelopeParams",
    "EnvelopeResult",
    "in_soft_hull",
    "is_env",
    "is_eps_delta_env",
    "find_soft_envelope",
]


@dataclass(frozen=True)
class EnvelopeParams:
    """(eps, delta, eps3) triple governing soft-hull pruning.

    The guarantees assume all three lie in (0, 1/8) and satisfy (*) above;
    ``validate`` reports violations as warnings so exploratory runs outside
    the guaranteed regime still proceed.  A non-finite value raises
    ValueError.
    """

    epsilon: float
    delta: float
    epsilon3: float

    def __post_init__(self):
        for name in ("epsilon", "delta", "epsilon3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def condition_violations(self) -> list[str]:
        msgs = []
        for name, v in (
            ("epsilon", self.epsilon),
            ("delta", self.delta),
            ("epsilon3", self.epsilon3),
        ):
            if not (0.0 < v < 0.125):
                msgs.append(f"{name} = {v} outside the guaranteed range (0, 1/8)")
        if self.epsilon3 <= self.epsilon:
            msgs.append(
                f"epsilon3 = {self.epsilon3} must exceed epsilon = {self.epsilon}"
            )
        else:
            lower = max(
                2.0 * self.epsilon / (self.epsilon3 - self.epsilon),
                4.0 * self.epsilon3,
            )
            if self.delta <= lower:
                msgs.append(
                    f"delta = {self.delta} fails delta > "
                    f"max(2*eps/(eps3-eps), 4*eps3) = {lower:.6g}"
                )
        return msgs

    def warn_if_invalid(self) -> list[str]:
        msgs = self.condition_violations()
        for m in msgs:
            warnings.warn(m, RuntimeWarning, stacklevel=3)
        return msgs


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Outcome of envelope extraction.

    ``found`` is True when Q passed the full envelope check; ``q_indices``
    are column indices into W (points are never synthesized).  ``certificate``
    holds one convex-combination witness per column of W (coverage witnesses)
    when found.
    """

    found: bool
    Q: PointMatrix | None
    q_indices: tuple[int, ...]
    params: EnvelopeParams
    diam_w: float
    certificate: tuple[SimplexCoeffs, ...] | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)


def in_soft_hull(
    w, S, epsilon: float, diamW: float, tol: float = 1e-9
) -> tuple[bool, SimplexCoeffs]:
    """Is ``w`` within eps*diamW of CH(S)?  Returns (verdict, witness).

    The witness is the best convex combination found; when the verdict is
    True it reconstructs ``w`` within eps*diamW + tol.
    """
    return hull_membership(w, S, radius=_soft_radius(epsilon, diamW, tol), tol=tol)


def _soft_radius(epsilon: float, diamW: float, tol: float) -> float:
    """eps*diamW, once epsilon, diamW and the tolerance are checked to be nonnegative."""
    if not diamW >= 0:
        raise ValueError(f"diamW must be nonnegative, got {diamW}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return epsilon * diamW


def _soft_hull_cover(X: np.ndarray, S: np.ndarray, epsilon: float, diamW: float, tol: float):
    """``in_soft_hull`` for every column of ``X``: (verdicts, m x |S| witness weights)."""
    radius = _soft_radius(epsilon, diamW, tol)
    dists, Lam = _hull_distances(X, S, 1e-12, atol=tol, radius=radius)
    return dists <= radius + tol, Lam


def _envelope_args(T, W, diam_w: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Checked (T, W) entries and diam(W) for the envelope checks."""
    Tm = as_point_matrix(T)
    Wm = as_point_matrix(W)
    if Tm.count == 0:
        raise ValueError("candidate envelope T must be nonempty")
    if Wm.count == 0:
        raise ValueError("W must be nonempty")
    if Tm.dim != Wm.dim:
        raise ValueError("dimension mismatch between T and W")
    return Tm.entries, Wm.entries, diameter(Wm) if diam_w is None else diam_w


def _envelope_witnesses(
    T: np.ndarray, W: np.ndarray, params: EnvelopeParams, dw: float, tol: float
) -> np.ndarray | None:
    """The |W| x |T| coverage weights when T is an (eps, delta)-envelope of W, else None.

    Coverage is one kernel call; the separation clause solves each column of
    T against the hull of the others and stops at the first failure.
    """
    covered, Lam = _soft_hull_cover(W, T, params.epsilon, dw, tol)
    if not covered.all():
        return None
    # separation clause: dist(t, CH(T minus t)) > delta*diam(W) - tol; any t
    # within delta*diam - tol of the others' hull fails it.
    radius = max(params.delta * dw - 2.0 * tol, 0.0)
    if T.shape[1] > 1 and any(
        dist <= radius + tol for dist in _leave_one_out(T, 1e-12, atol=tol, radius=radius)
    ):
        return None
    return Lam


def is_env(T, W, epsilon: float, tol: float = 1e-9, diam_w: float | None = None) -> bool:
    """Does the soft hull of T cover every point of W?"""
    T, W, dw = _envelope_args(T, W, diam_w)
    return bool(_soft_hull_cover(W, T, epsilon, dw, tol)[0].all())


def is_eps_delta_env(
    T, W, params: EnvelopeParams, tol: float | None = None, diam_w: float | None = None
) -> bool:
    """Envelope check: soft-hull coverage plus pairwise hull separation.

    Every t in T must satisfy dist(t, CH(T minus t)) > delta*diam(W) - tol;
    a singleton T passes the separation clause vacuously.  The default tol
    is 1e-9*diam(W).
    """
    T, W, dw = _envelope_args(T, W, diam_w)
    if tol is None:
        tol = 1e-9 * max(dw, 1.0)
    return _envelope_witnesses(T, W, params, dw, tol) is not None


def _greedy_separated(W: np.ndarray, candidates: np.ndarray, min_dist: float) -> list[int]:
    """Greedy maximal subset with pairwise distance > min_dist.

    Scans candidates in ascending column order; keeps a point when it is
    farther than min_dist from every point kept so far.  Each kept point
    rules out, in one row of distances, every candidate within min_dist.
    """
    kept: list[int] = []
    free = np.ones(len(candidates), dtype=bool)
    for i, j in enumerate(candidates):
        if free[i]:
            kept.append(int(j))
            free &= _pairwise_distances(W[:, [j]], W[:, candidates])[0] > min_dist
    return kept


def find_soft_envelope(W, params: EnvelopeParams, tol: float | None = None) -> EnvelopeResult:
    """Extract an (eps, delta)-envelope of W, or report that none was found.

    Procedure: drop every point that sits in the soft hull of the points at
    distance >= eps3*diam(W) from it, take a greedy maximal 2*eps3*diam(W)-
    separated subset Q of the survivors (ascending column order), and accept
    Q only if it passes the full envelope check.  Points whose far set is
    empty are never dropped.  Each point is decided by one solve against its
    far set; the envelope check's coverage weights are the certificate.
    """
    Wm = as_point_matrix(W)
    if Wm.count == 0:
        raise ValueError("W must be nonempty")
    param_warnings = params.warn_if_invalid()
    dw = diameter(Wm)
    if tol is None:
        tol = 1e-9 * max(dw, 1.0)
    radius = _soft_radius(params.epsilon, dw, tol)
    X = Wm.entries
    n = Wm.count

    if dw == 0.0:
        # all points coincide: no far sets, and the greedy pass keeps the first
        survivors = np.arange(n)
    else:
        far_radius = params.epsilon3 * dw
        pruned = np.zeros(n, dtype=bool)
        # Far sets come from blocks of `rows` rows of distances: O(_BLOCK + n*rows) memory.
        rows = max(1, _BLOCK // n)
        for s in range(0, n, rows):
            for j, dist_j in enumerate(_pairwise_distances(X[:, s : s + rows], X), s):
                far = np.flatnonzero(dist_j >= far_radius)
                if far.size:
                    dist = _min_norm_point(X[:, j], X[:, far], 1e-12, atol=tol, radius=radius)[0]
                    pruned[j] = dist <= radius + tol
        survivors = np.flatnonzero(~pruned)
    kept = _greedy_separated(X, survivors, 2.0 * params.epsilon3 * dw)
    Q = Wm.select(kept)

    Lam = _envelope_witnesses(Q.entries, X, params, dw, tol) if kept else None
    found = Lam is not None
    return EnvelopeResult(
        found=found,
        Q=Q if found else None,
        q_indices=tuple(kept),
        params=params,
        diam_w=dw,
        certificate=SimplexCoeffs._rows(Lam) if found else None,
        reason=None if found else (
            f"candidate set of size {len(kept)} (from {survivors.size} survivors) "
            "failed the envelope check"
        ),
        warnings=tuple(param_warnings),
    )
