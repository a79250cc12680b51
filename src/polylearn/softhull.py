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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PointMatrix,
    SimplexCoeffs,
    _hull_distances,
    _leave_one_out,
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
    "find_soft_envelope_sqrt",
]


@dataclass(frozen=True)
class EnvelopeParams:
    """(eps, delta, eps3) triple governing soft-hull pruning.

    The guarantees assume all three lie in (0, 1/8) and satisfy (*) above;
    ``validate`` reports violations as warnings so exploratory runs outside
    the guaranteed regime still proceed.
    """

    epsilon: float
    delta: float
    epsilon3: float

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
    return hull_membership(w, S, radius=_soft_radius(epsilon, diamW), tol=tol)


def _soft_radius(epsilon: float, diamW: float) -> float:
    if diamW < 0:
        raise ValueError("diamW must be nonnegative")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return epsilon * diamW


def _soft_hull_cover(X: np.ndarray, S: np.ndarray, epsilon: float, diamW: float, tol: float):
    """``in_soft_hull`` for every column of ``X``: (verdicts, m x |S| witness weights)."""
    radius = _soft_radius(epsilon, diamW)
    dists, Lam = _hull_distances(X, S, 1e-12, atol=tol, radius=radius)
    return dists <= radius + tol, Lam


def is_env(T, W, epsilon: float, tol: float = 1e-9, diam_w: float | None = None) -> bool:
    """Does the soft hull of T cover every point of W?"""
    Tm = as_point_matrix(T)
    Wm = as_point_matrix(W)
    if Tm.count == 0:
        raise ValueError("candidate envelope T must be nonempty")
    if Wm.count == 0:
        raise ValueError("W must be nonempty")
    if Tm.dim != Wm.dim:
        raise ValueError("dimension mismatch between T and W")
    dw = diameter(Wm) if diam_w is None else diam_w
    return bool(_soft_hull_cover(Wm.entries, Tm.entries, epsilon, dw, tol)[0].all())


def is_eps_delta_env(
    T, W, params: EnvelopeParams, tol: float | None = None, diam_w: float | None = None
) -> bool:
    """Envelope check: soft-hull coverage plus pairwise hull separation.

    Every t in T must satisfy dist(t, CH(T minus t)) > delta*diam(W) - tol;
    a singleton T passes the separation clause vacuously.  The default tol
    is 1e-9*diam(W).
    """
    Tm = as_point_matrix(T)
    Wm = as_point_matrix(W)
    dw = diameter(Wm) if diam_w is None else diam_w
    if tol is None:
        tol = 1e-9 * max(dw, 1.0)
    if not is_env(Tm, Wm, params.epsilon, tol, diam_w=dw):
        return False
    if Tm.count == 1:
        return True
    # separation clause: dist(t, CH(T minus t)) > delta*diam(W) - tol; any t
    # within delta*diam - tol of the others' hull fails it.
    radius = max(params.delta * dw - 2.0 * tol, 0.0)
    return not any(
        dist <= radius + tol for dist in _leave_one_out(Tm.entries, 1e-12, atol=tol, radius=radius)
    )


def _greedy_separated(W: np.ndarray, candidates: np.ndarray, min_dist: float) -> list[int]:
    """Greedy maximal subset with pairwise distance > min_dist.

    Scans candidates in ascending column order; keeps a point when it is
    farther than min_dist from every point kept so far.
    """
    kept: list[int] = []
    for j in candidates:
        p = W[:, j]
        if all(np.linalg.norm(p - W[:, i]) > min_dist for i in kept):
            kept.append(int(j))
    return kept


def find_soft_envelope(W, params: EnvelopeParams, tol: float | None = None) -> EnvelopeResult:
    """Extract an (eps, delta)-envelope of W, or report that none was found.

    Procedure: drop every point that sits in the soft hull of the points at
    distance >= eps3*diam(W) from it, take a greedy maximal 2*eps3*diam(W)-
    separated subset Q of the survivors (ascending column order), and accept
    Q only if it passes the full envelope check.  Points whose far set is
    empty are never dropped.
    """
    Wm = as_point_matrix(W)
    if Wm.count == 0:
        raise ValueError("W must be nonempty")
    param_warnings = params.warn_if_invalid()
    dw = diameter(Wm)
    if tol is None:
        tol = 1e-9 * max(dw, 1.0)
    X = Wm.entries
    n = Wm.count

    if dw == 0.0:
        # all points coincide; the first column is the whole envelope
        kept = [0]
    else:
        far_radius = params.epsilon3 * dw
        sq = np.einsum("ij,ij->j", X, X)
        pruned = np.zeros(n, dtype=bool)
        for j in range(n):
            d2 = sq + sq[j] - 2.0 * (X[:, j] @ X)
            far = np.flatnonzero(d2 >= far_radius * far_radius)
            if far.size == 0:
                continue
            inside, _ = in_soft_hull(X[:, j], X[:, far], params.epsilon, dw, tol)
            pruned[j] = inside
        survivors = np.flatnonzero(~pruned)
        kept = _greedy_separated(X, survivors, 2.0 * params.epsilon3 * dw)
    Q = Wm.select(kept)

    if kept and is_eps_delta_env(Q, Wm, params, tol, diam_w=dw):
        _, Lam = _soft_hull_cover(X, Q.entries, params.epsilon, dw, tol)
        witnesses = tuple(SimplexCoeffs(lam) for lam in Lam)
        return EnvelopeResult(
            found=True,
            Q=Q,
            q_indices=tuple(kept),
            params=params,
            diam_w=dw,
            certificate=witnesses,
            warnings=tuple(param_warnings),
        )
    return EnvelopeResult(
        found=False,
        Q=None,
        q_indices=tuple(kept),
        params=params,
        diam_w=dw,
        reason=(
            f"candidate set of size {len(kept)} (from {survivors.size} survivors) "
            "failed the envelope check"
        ),
        warnings=tuple(param_warnings),
    )


def find_soft_envelope_sqrt(W, epsilon: float, delta: float, tol: float | None = None) -> EnvelopeResult:
    """Envelope extraction with the square-root default eps3 = 4*sqrt(eps).

    Requires delta > 16*sqrt(epsilon); the matching radius of the output
    becomes 8*sqrt(epsilon)*diam(W).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if delta <= 16.0 * np.sqrt(epsilon):
        raise ValueError(
            f"requires delta > 16*sqrt(epsilon): got delta = {delta}, "
            f"16*sqrt(epsilon) = {16.0 * np.sqrt(epsilon):.6g}"
        )
    params = EnvelopeParams(epsilon=epsilon, delta=delta, epsilon3=4.0 * np.sqrt(epsilon))
    return find_soft_envelope(W, params, tol)
