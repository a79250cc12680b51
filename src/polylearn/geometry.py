"""Convex-geometry primitives over V-polytopes (polytopes given by vertex lists).

Everything here works on finite point sets stored column-wise.  The central
routine is a distance-to-convex-hull solver (Wolfe's min-norm-point algorithm
over the coefficient simplex); Hausdorff distance, well-separation margins
and soft hull membership are all built on top of it.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointMatrix",
    "VPolytope",
    "SimplexCoeffs",
    "dist_to_hull",
    "hull_membership",
    "hausdorff",
    "diameter",
    "well_separation",
]

# Sum-to-one slack accepted on simplex coefficient vectors.
_SIMPLEX_TOL = 1e-9
# Min-norm-point float safeguards, relative to max_j |s_j - x|^2.  Gaps
# below the floor are float64 noise (exactly converged solves show up to
# about 15 eps), and corral weights at or below the drop threshold are
# removed so the method cannot cycle on rounding.
_GAP_FLOOR = 64.0 * np.finfo(np.float64).eps
_DROP_WEIGHT = 1e-12
# Elements per block of the point-major (points x k x d) difference arrays.
_BLOCK = 2**16


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"point matrix must be 2-d (dim x count), got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("point dimension must be >= 1")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("point matrix contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class PointMatrix:
    """A d x n collection of points; column j is the j-th point."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.entries)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def count(self) -> int:
        return self.entries.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j].copy()

    def select(self, indices) -> "PointMatrix":
        return PointMatrix(self.entries[:, np.asarray(indices, dtype=int)])


def as_point_matrix(points) -> PointMatrix:
    """Coerce an ndarray (d x n) or PointMatrix to a PointMatrix."""
    if isinstance(points, PointMatrix):
        return points
    return PointMatrix(points)


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Polytope represented by its vertex matrix (d x k, k >= 1)."""

    vertices: PointMatrix

    def __post_init__(self):
        pm = as_point_matrix(self.vertices)
        if pm.count < 1:
            raise ValueError("a V-polytope needs at least one vertex")
        object.__setattr__(self, "vertices", pm)

    @property
    def dim(self) -> int:
        return self.vertices.dim

    @property
    def count(self) -> int:
        return self.vertices.count

    def diameter(self) -> float:
        return diameter(self.vertices)


@dataclass(frozen=True, eq=False)
class SimplexCoeffs:
    """Nonnegative weights summing to one; a convex-combination certificate."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("simplex coefficients must be a 1-d vector")
        if w.size and w.min() < -_SIMPLEX_TOL:
            raise ValueError(f"negative simplex coefficient: {w.min()}")
        if abs(float(w.sum()) - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"simplex coefficients sum to {w.sum()}, expected 1")
        w = np.clip(w, 0.0, None)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def combine(self, S: PointMatrix) -> np.ndarray:
        """Evaluate the convex combination against the columns of ``S``."""
        return S.entries @ self.weights


def diameter(W) -> float:
    """Largest pairwise Euclidean distance, exact over all pairs.

    Scans all n*(n-1)/2 pairs (chunked Gram computation for large n);
    returns 0.0 for a single point.
    """
    pm = as_point_matrix(W)
    if pm.count == 0:
        raise ValueError("diameter of an empty point set is undefined")
    X = pm.entries
    n = pm.count
    if n == 1:
        return 0.0
    sq = np.einsum("ij,ij->j", X, X)
    best = 0.0
    chunk = max(1, int(2**22 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        g = X[:, start:stop].T @ X
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * g
        m = float(d2.max())
        if m > best:
            best = m
    return math.sqrt(max(best, 0.0))


def _min_norm_point(
    x: np.ndarray, S: np.ndarray, tol: float, atol: float = 0.0, radius: float | None = None
):
    """Wolfe's min-norm-point algorithm for dist(x, CH(S)); returns (distance, lam).

    Works on C = (S - x) / scale, scale = max_j |s_j - x|, and keeps a corral:
    columns whose affine hull holds the current point r = C lam.  Each major
    step adds the column s minimizing g = C.T r, the Frank-Wolfe vertex; its
    gap 2(|r|^2 - g[s]) bounds |r|^2 - dist^2.  Minor cycles then move to the
    corral's affine minimizer, stepping only to the simplex boundary and
    dropping the columns whose weight reaches zero while that minimizer lies
    outside the simplex.  Stops once the gap
    certifies accuracy max(tol*scale, atol) (floored at float64 noise), or,
    given ``radius``, once dist <= radius or dist > radius + atol is certified.
    Stopping for any other reason warns.
    """
    C = S - x[:, None]
    norms2 = np.einsum("ij,ij->j", C, C)
    lam = np.zeros(S.shape[1])
    scale = math.sqrt(float(norms2.max()))
    if scale == 0.0:
        lam[0] = 1.0
        return 0.0, lam
    C /= scale
    gap_target = max(max(tol, atol / scale) ** 2, _GAP_FLOOR)
    corral = [int(np.argmin(norms2))]
    w = np.ones(1)
    r = C[:, corral[0]]
    decided = False
    # Safety cap only: a corral holds at most min(d + 1, k) columns.
    for _ in range(100 + 10 * min(S.shape)):
        g = C.T @ r
        s = int(np.argmin(g))
        f = float(r @ r)
        gap = 2.0 * (f - float(g[s]))
        decided = gap <= gap_target or (
            radius is not None
            and (f <= (radius / scale) ** 2 or f - gap > ((radius + atol) / scale) ** 2)
        )
        if decided or s in corral:
            break
        corral.append(s)
        w = np.append(w, 0.0)
        while True:
            # Weights of the min-norm point on the corral's affine hull, by
            # least squares on its edge vectors (a Gram-matrix KKT system
            # would square their conditioning).
            A = C[:, corral]
            z = np.linalg.lstsq(A[:, 1:] - A[:, :1], -A[:, 0], rcond=None)[0]
            y = np.concatenate(([1.0 - z.sum()], z))
            out = y <= 0.0
            if not out.any():
                w = y
                break
            # Step toward y until the first weight reaches zero.
            theta = float(np.min(w[out] / np.maximum(w[out] - y[out], np.finfo(np.float64).tiny)))
            w = w + theta * (y - w)
            keep = w > _DROP_WEIGHT
            corral = [c for c, kept in zip(corral, keep) if kept]
            w = w[keep] / w[keep].sum()
        r = C[:, corral] @ w
    if not decided:
        warnings.warn(
            f"hull-distance solver stopped early; achieved gap {gap:.3e} "
            f"(target {gap_target:.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
    lam[corral] = w
    return float(np.linalg.norm(S @ lam - x)), lam


def _swap_last_axes(D: np.ndarray) -> np.ndarray:
    """A contiguous copy of a points x k x d array as points x d x k."""
    return np.ascontiguousarray(D.transpose(0, 2, 1))


def _stopping_test(C, lam, target, scale, atol: float, radius: float | None) -> np.ndarray:
    """``_min_norm_point``'s stopping test at the hull points C lam, one per row of ``lam``."""
    r = (_swap_last_axes(C) * lam[:, None, :]).sum(-1)
    f = (r * r).sum(-1)
    gap = 2.0 * (f - (C * r[:, None, :]).sum(-1).min(-1))
    decided = gap <= target
    if radius is not None:
        decided |= (f <= (radius / scale) ** 2) | (f - gap > ((radius + atol) / scale) ** 2)
    return decided


def _hull_distances(X: np.ndarray, S: np.ndarray, tol: float, atol: float = 0.0, radius: float | None = None):
    """``_min_norm_point`` for every column of ``X`` against one hull; returns (dists, Lam).

    Row i of the m x k matrix ``Lam`` holds column i's weights.  Equal columns
    are solved once.  Each distinct column tries two exact candidates: its
    nearest vertex (the solver's first iterate) and, when all of its
    barycentric weights are nonnegative, its projection onto aff(S), whose
    weights come from one pseudo-inverse of the edge matrix.  A candidate is
    accepted only by the solver's own stopping test (gap target and, given
    ``radius``, both radius decisions), evaluated on the differences s_j - x;
    every other column goes to ``_min_norm_point``.  The differences are
    point-major (points x k x d) and every reduction runs along the last
    axis, so a column's result does not depend on the batch it arrives in.
    """
    d, k = S.shape
    Xt = np.ascontiguousarray(X.T, dtype=np.float64)
    _, first, inverse = np.unique(
        Xt.view(np.dtype((np.void, 8 * d))).ravel(), return_index=True, return_inverse=True
    )
    U = Xt[first]
    dists = np.empty(U.shape[0])
    Lam = np.zeros((U.shape[0], k))
    edges_pinv = None
    block = max(1, _BLOCK // (k * d))
    for start in range(0, U.shape[0], block):
        Ub = U[start : start + block]
        D = S.T[None, :, :] - Ub[:, None, :]
        norms2 = (D * D).sum(-1)
        scale = np.sqrt(norms2.max(-1))
        scale[scale == 0.0] = 1.0
        C = D / scale[:, None, None]
        target = np.maximum(np.maximum(tol, atol / scale) ** 2, _GAP_FLOOR)
        lam = np.zeros((Ub.shape[0], k))
        lam[np.arange(Ub.shape[0]), norms2.argmin(-1)] = 1.0
        ok = _stopping_test(C, lam, target, scale, atol, radius)
        rest = np.flatnonzero(~ok)
        if rest.size and k > 1:
            if edges_pinv is None:
                edges_pinv = np.linalg.pinv(S[:, 1:] - S[:, :1])
            # Barycentric coordinates of the projection onto aff(S).
            z = (edges_pinv[None, :, :] * (Ub[rest] - S[:, 0])[:, None, :]).sum(-1)
            y = np.concatenate([1.0 - z.sum(-1, keepdims=True), z], axis=1)
            inside = (y >= 0.0).all(-1)
            rest, y = rest[inside], y[inside]
            accept = _stopping_test(C[rest], y, target[rest], scale[rest], atol, radius)
            lam[rest[accept]] = y[accept]
            ok[rest[accept]] = True
        res = (_swap_last_axes(D[ok]) * lam[ok][:, None, :]).sum(-1)
        dists[start + np.flatnonzero(ok)] = np.sqrt((res * res).sum(-1))
        Lam[start : start + Ub.shape[0]] = lam
        for i in start + np.flatnonzero(~ok):
            dists[i], Lam[i] = _min_norm_point(U[i], S, tol, atol, radius)
    return dists[inverse], Lam[inverse]


def _leave_one_out(V: np.ndarray, tol: float, atol: float = 0.0, radius: float | None = None):
    """Yield dist(v, CH(other columns)) for each column v of ``V``, one solve at a time."""
    for ell in range(V.shape[1]):
        yield _min_norm_point(V[:, ell], np.delete(V, ell, axis=1), tol, atol, radius)[0]


def _query_args(x, S, empty: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked (point, hull matrix) for the single-point queries; ``empty`` is the empty-hull message."""
    pm = as_point_matrix(S)
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if pm.count < 1:
        raise ValueError(empty)
    if xv.shape[0] != pm.dim:
        raise ValueError(f"dimension mismatch: point has dim {xv.shape[0]}, hull has dim {pm.dim}")
    if not np.all(np.isfinite(xv)):
        raise ValueError("query point contains non-finite entries")
    return xv, pm.entries


def dist_to_hull(x, S, tol: float = 1e-6) -> tuple[float, SimplexCoeffs]:
    """Distance from point ``x`` to the convex hull of the columns of ``S``.

    Solves min |sum_i lam_i s_i - x| over the simplex with Wolfe's
    min-norm-point algorithm: a corral of active columns, whose affine
    minimizer each minor cycle moves toward.  It stops once the
    Frank-Wolfe gap certifies an additive error of at most
    ``tol * diam(S u {x})`` (precisely tol * max_j |s_j - x|, floored at
    float64 noise), or once the next column is already in the corral.
    Stopping short of the target warns
    ("hull-distance solver stopped early").  Returns the distance together
    with the convex-combination witness; the witness reconstructs a hull
    point at exactly the reported distance from ``x``.
    """
    xv, S = _query_args(x, S, "cannot take the distance to an empty hull")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dist, lam = _min_norm_point(xv, S, tol)
    return dist, SimplexCoeffs(lam)


def hull_membership(x, S, radius: float, tol: float = 1e-9) -> tuple[bool, SimplexCoeffs]:
    """Decide dist(x, CH(S)) <= radius + tol, with early-exit certificates.

    Cheaper than ``dist_to_hull`` when only the yes/no answer matters: the
    solver stops as soon as either the upper bound drops below the radius or
    the duality-gap lower bound exceeds radius + tol.  Otherwise it solves to
    accuracy tol, and warns if it cannot.
    """
    xv, S = _query_args(x, S, "membership in an empty hull is undefined")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    dist, lam = _min_norm_point(xv, S, 1e-12, atol=tol, radius=radius)
    return dist <= radius + tol, SimplexCoeffs(lam)


def hausdorff(Pm, Qm, tol: float = 1e-6) -> float:
    """Hausdorff distance between the convex hulls of two point sets.

    The supremum over a convex hull of the distance to a convex set is
    attained at a vertex, so scanning the columns of each matrix against the
    other hull is exact.  The solver starts at a column's nearest vertex and
    never moves away, so a column whose nearest-vertex distance is at most
    the best distance so far cannot raise it: columns are solved in
    descending order of that bound until it falls to the best.  Accuracy:
    additive tol * max(diam(P), diam(Q)).
    """
    P = as_point_matrix(Pm)
    Q = as_point_matrix(Qm)
    if P.count == 0 or Q.count == 0:
        raise ValueError("hausdorff distance needs two nonempty point sets")
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    atol = tol * max(diameter(P), diameter(Q))
    best = 0.0
    for A, B in ((P.entries, Q.entries), (Q.entries, P.entries)):
        bound = _nearest_vertex_distances(A, B)
        for i in np.argsort(-bound, kind="stable"):
            if bound[i] <= best:
                break
            best = max(best, _min_norm_point(A[:, i], B, 1e-12, atol=atol)[0])
    return best


def _nearest_vertex_distances(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """min_j |s_j - x| for every column x of ``X``, on point-major differences."""
    d, k = S.shape
    Xt = X.T
    block = max(1, _BLOCK // (k * d))
    out = np.empty(Xt.shape[0])
    for start in range(0, Xt.shape[0], block):
        D = S.T[None, :, :] - Xt[start : start + block, None, :]
        out[start : start + block] = np.sqrt((D * D).sum(-1).min(-1))
    return out


def well_separation(K: VPolytope, tol: float = 1e-6) -> float:
    """Worst vertex margin of ``K``, relative to its diameter.

    Returns min_v dist(v, CH(other vertices)) / diam(K).  ``K`` counts as
    delta-well-separated exactly when the returned value is >= delta.
    Degenerate diam(K) = 0 yields 0.0.
    """
    if K.count < 2:
        raise ValueError("well-separation needs at least two vertices")
    delta_k = K.diameter()
    if delta_k == 0.0:
        return 0.0
    return min(_leave_one_out(K.vertices.entries, tol)) / delta_k
