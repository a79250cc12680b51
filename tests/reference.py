"""Independent test oracles: brute-force and exact alternatives to the library paths.

Nothing here shares code with the solvers under test.  The grid search,
the face-enumeration QP and the NNLS formulation all compute hull distances
by entirely different means than the library's solver; the boundary sampler
measures Hausdorff distance without ever calling the library's
implementation; the subset selection sorts where the oracle selects; the
margin sampler draws every coordinate of u where the library draws only those
the margin depends on.  ``full_scan_hausdorff`` and ``stepwise_envelope`` are
the exception: they are the library's own earlier procedures, kept to pin
that the restructured paths return the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np


def stable_top_indices(scores, size: int) -> np.ndarray:
    """Indices of the ``size`` highest scores, ties toward lower indices, ascending.

    The sorted-prefix definition of subset smoothing's selection: the first
    ``size`` entries of a stable descending argsort.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return np.sort(order[:size])


def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All coefficient vectors with entries i/steps summing to 1 (shape N x k)."""
    if k == 1:
        return np.ones((1, 1))
    combos = itertools.combinations(range(steps + k - 1), k - 1)
    rows = []
    for c in combos:
        parts = []
        prev = -1
        for cut in c:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(steps + k - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=np.float64) / steps


def _best_on_grid(S: np.ndarray, x: np.ndarray, lam_grid: np.ndarray) -> tuple[float, np.ndarray]:
    pts = lam_grid @ S.T
    d2 = ((pts - x) ** 2).sum(axis=1)
    j = int(np.argmin(d2))
    return float(np.sqrt(d2[j])), lam_grid[j]


def grid_hull_distance(x, S, step: float = 1e-3, final_step: float = 2.5e-4) -> float:
    """Coarse-to-fine simplex grid search for dist(x, CH(S)).

    Starts from a full grid (budgeted node count), then runs grid pattern
    search: at each scale, move to the best stencil neighbor while it
    improves, then halve the step until it drops below ``final_step``.
    The objective is convex over the simplex, so the descent reaches the
    global optimum to within the final grid resolution.  Entirely
    independent of the library's solver.
    """
    S = np.asarray(S, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    k = S.shape[1]
    if k == 1:
        return float(np.linalg.norm(S[:, 0] - x))

    steps = int(round(1.0 / step))
    while True:
        count = 1
        for i in range(k - 1):
            count = count * (steps + k - 1 - i) // (i + 1)
        if count <= 60_000 or steps <= 4:
            break
        steps //= 2
    lam_grid = simplex_grid(k, steps)
    best_d, best_lam = _best_on_grid(S, x, lam_grid)
    h = 1.0 / steps

    offsets = np.array(list(itertools.product(range(-2, 3), repeat=k)), dtype=np.float64)
    offsets = offsets[np.abs(offsets.sum(axis=1)) < 1e-9]
    while True:
        cand = best_lam[None, :] + offsets * h
        cand = np.clip(cand, 0.0, None)
        cand /= cand.sum(axis=1, keepdims=True)
        d, lam = _best_on_grid(S, x, cand)
        if d < best_d - 1e-15:
            best_d, best_lam = d, lam
            continue
        if h <= final_step:
            break
        h /= 2.0
    return best_d


def exact_hull_distance(x, S) -> float:
    """Exact dist(x, CH(S)) by face enumeration (suitable for small S).

    For every nonempty subset F of columns, solves the equality-constrained
    least squares min |S_F lam - x| with sum(lam) = 1 via its KKT system and
    keeps the best nonnegative solution.  Some optimal face has an affinely
    independent, nonnegative solution, so the minimum over feasible subsets
    is the exact distance.  The KKT systems are solved on x and S divided by
    their largest absolute entry, so the result is scale-free.
    """
    S = np.asarray(S, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    unit = max(float(np.abs(S).max()), float(np.abs(x).max()))
    if unit == 0.0:
        return 0.0
    S = S / unit
    x = x / unit
    k = S.shape[1]
    best = np.inf
    for r in range(1, k + 1):
        for F in itertools.combinations(range(k), r):
            A = S[:, F]
            G = A.T @ A
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = G
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.concatenate([A.T @ x, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            lam = sol[:r]
            if lam.min() < -1e-9:
                continue
            lam = np.clip(lam, 0.0, None)
            s = lam.sum()
            if s <= 0:
                continue
            lam /= s
            d = float(np.linalg.norm(A @ lam - x))
            best = min(best, d)
    return best * unit


def nnls_hull_distance(x, S) -> float:
    """dist(x, CH(S)) by nonnegative least squares, for hulls of any size.

    With C = S - x, minimizes |C lam|^2 + (w * (sum(lam) - 1))^2 over
    lam >= 0 (``scipy.optimize.nnls`` on C with a weighted row of ones,
    w = max|C|).  Writing lam = t * mu with mu on the simplex, the objective
    is t^2 |C mu|^2 + w^2 (t - 1)^2, so for any t > 0 the best mu is the
    simplex minimizer: the normalised solution is exact, whatever w.
    """
    from scipy.optimize import nnls

    S = np.asarray(S, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    C = S - x[:, None]
    w = float(np.abs(C).max())
    if w == 0.0:
        return 0.0
    A = np.vstack([C, np.full(S.shape[1], w)])
    b = np.zeros(A.shape[0])
    b[-1] = w
    lam, _ = nnls(A, b, maxiter=50 * A.shape[1])
    return float(np.linalg.norm(S @ (lam / lam.sum()) - x))


def full_scan_hausdorff(P, Q, tol: float = 1e-6) -> float:
    """Hausdorff distance of CH(P) and CH(Q) by solving every column against the other hull.

    The per-column scan ``hausdorff`` ran before it learned to skip columns
    whose nearest-vertex distance cannot raise the maximum.
    """
    from polylearn.geometry import _min_norm_point, diameter

    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    atol = tol * max(diameter(P), diameter(Q))
    return max(
        _min_norm_point(x, B, 1e-12, atol=atol)[0] for A, B in ((P, Q), (Q, P)) for x in A.T
    )


def point_to_polygon_distance(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distances from query points (N x 2) to a convex polygon (hull of vertices).

    Vectorized segment projections over the polygon's edges; points inside
    the polygon get distance 0 (even-odd test on the convex vertex fan).
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(vertices.T)
    poly = vertices[:, hull.vertices]
    m = poly.shape[1]
    P = points
    best = np.full(P.shape[0], np.inf)
    inside = np.ones(P.shape[0], dtype=bool)
    for i in range(m):
        a = poly[:, i]
        b = poly[:, (i + 1) % m]
        ab = b - a
        ap = P - a
        t = np.clip((ap @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        best = np.minimum(best, np.linalg.norm(P - proj, axis=1))
        cross = ab[0] * ap[:, 1] - ab[1] * ap[:, 0]
        inside &= cross >= -1e-12
    best[inside] = 0.0
    return best


def boundary_hausdorff_2d(P: np.ndarray, Q: np.ndarray, samples_per_edge: int = 20_000) -> float:
    """Hausdorff distance between 2-d convex hulls by dense boundary sampling.

    Samples every hull edge of each polygon densely and takes the max
    sampled distance to the other polygon.  The true supremum sits at a
    vertex, so the sampling error only pushes the estimate down by at most
    (edge length / samples_per_edge).
    """
    from scipy.spatial import ConvexHull

    def boundary_points(V):
        if V.shape[1] == 1:
            return V.T
        if V.shape[1] == 2 or np.linalg.matrix_rank(V - V[:, [0]]) < 2:
            a, b = V[:, 0], V[:, -1]
            t = np.linspace(0.0, 1.0, samples_per_edge)
            return a[None, :] + t[:, None] * (b - a)[None, :]
        hull = ConvexHull(V.T)
        poly = V[:, hull.vertices]
        pts = []
        for i in range(poly.shape[1]):
            a = poly[:, i]
            b = poly[:, (i + 1) % poly.shape[1]]
            t = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)
            pts.append(a[None, :] + t[:, None] * (b - a)[None, :])
        return np.vstack(pts)

    def one_sided(A, B):
        pts = boundary_points(A)
        if B.shape[1] >= 3 and np.linalg.matrix_rank(B - B[:, [0]]) >= 2:
            return float(point_to_polygon_distance(pts, B).max())
        # degenerate target: segment or point
        best = np.full(pts.shape[0], np.inf)
        for j in range(B.shape[1]):
            for jj in range(j, B.shape[1]):
                a, b = B[:, j], B[:, jj]
                ab = b - a
                denom = float(ab @ ab)
                if denom == 0.0:
                    best = np.minimum(best, np.linalg.norm(pts - a, axis=1))
                    continue
                t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
                proj = a + t[:, None] * ab
                best = np.minimum(best, np.linalg.norm(pts - proj, axis=1))
        return float(best.max())

    return max(one_sided(P, Q), one_sided(Q, P))


def naive_envelope(W: np.ndarray, epsilon: float, diam_w: float) -> list[int]:
    """Strawman envelope: keep points far from the hull of all the others.

    This is the baseline that two-ring configurations defeat: when every
    point is close to the hull of the rest, it returns nothing.
    """
    from polylearn import in_soft_hull

    kept = []
    n = W.shape[1]
    for j in range(n):
        rest = np.delete(W, j, axis=1)
        inside, _ = in_soft_hull(W[:, j], rest, epsilon, diam_w)
        if not inside:
            kept.append(j)
    return kept


def stepwise_envelope(W, params, tol=None):
    """``find_soft_envelope`` composed from the public per-point calls.

    The procedure as it ran before envelope extraction called the solver
    directly: one ``in_soft_hull`` per point against its far set, the greedy
    thinning, ``is_eps_delta_env`` on the candidate, and a second coverage
    pass for the witnesses.
    """
    from polylearn import (
        EnvelopeResult,
        SimplexCoeffs,
        as_point_matrix,
        diameter,
        in_soft_hull,
        is_eps_delta_env,
    )
    from polylearn.geometry import _hull_distances

    Wm = as_point_matrix(W)
    param_warnings = params.warn_if_invalid()
    dw = diameter(Wm)
    if tol is None:
        tol = 1e-9 * max(dw, 1.0)
    X = Wm.entries
    if dw == 0.0:
        kept, survivors = [0], list(range(Wm.count))
    else:
        far_radius = params.epsilon3 * dw
        sq = np.einsum("ij,ij->j", X, X)
        survivors = []
        for j in range(Wm.count):
            d2 = sq + sq[j] - 2.0 * (X[:, j] @ X)
            far = np.flatnonzero(d2 >= far_radius * far_radius)
            if far.size == 0 or not in_soft_hull(X[:, j], X[:, far], params.epsilon, dw, tol)[0]:
                survivors.append(j)
        kept = []
        for j in survivors:
            if all(np.linalg.norm(X[:, j] - X[:, i]) > 2.0 * params.epsilon3 * dw for i in kept):
                kept.append(j)
    Q = Wm.select(kept)
    if kept and is_eps_delta_env(Q, Wm, params, tol, diam_w=dw):
        _, Lam = _hull_distances(X, Q.entries, 1e-12, atol=tol, radius=params.epsilon * dw)
        return EnvelopeResult(
            found=True, Q=Q, q_indices=tuple(kept), params=params, diam_w=dw,
            certificate=tuple(SimplexCoeffs(lam) for lam in Lam), warnings=tuple(param_warnings),
        )
    return EnvelopeResult(
        found=False, Q=None, q_indices=tuple(kept), params=params, diam_w=dw,
        reason=(
            f"candidate set of size {len(kept)} (from {len(survivors)} survivors) "
            "failed the envelope check"
        ),
        warnings=tuple(param_warnings),
    )


def full_dimensional_margin_samples(V, a, m: int, trials: int, seed: int) -> np.ndarray:
    """Samples of (u.a - max_j u.v_j)/|u| for Gaussian u in an m-dim subspace.

    Draws all m coordinates of u in an orthonormal basis of span(V u {a})
    padded to m columns with random orthonormal directions.
    """
    V = np.asarray(V, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    rng = np.random.default_rng(seed)
    raw = np.column_stack([V, a])
    u_mat, s, _ = np.linalg.svd(raw, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(raw.shape) * np.finfo(float).eps))
    base = u_mat[:, :rank]
    G = rng.standard_normal((raw.shape[0], m - rank))
    G -= base @ (base.T @ G)
    basis = np.column_stack([base, np.linalg.qr(G)[0]])
    U = rng.standard_normal((trials, m)) @ basis.T
    margins = U @ a - np.max(U @ V, axis=1)
    return margins / np.linalg.norm(U, axis=1)
