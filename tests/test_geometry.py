import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylearn import (
    NoisyOracle,
    PointMatrix,
    SimplexCoeffs,
    VPolytope,
    diameter,
    dist_to_hull,
    gen_lkp,
    gen_well_separated_polytope,
    hausdorff,
    hull_membership,
    random_probes,
    well_separation,
)
from polylearn import geometry
from polylearn.geometry import _hull_distances, _min_norm_point

from reference import (
    boundary_hausdorff_2d,
    exact_hull_distance,
    explicit_diameter,
    full_scan_hausdorff,
    grid_hull_distance,
    nnls_hull_distance,
)


def test_point_matrix_validation():
    with pytest.raises(ValueError):
        PointMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PointMatrix(np.array([[np.nan], [0.0]]))
    pm = PointMatrix(np.zeros((3, 0)))
    assert pm.count == 0 and pm.dim == 3


def test_simplex_coeffs_validation():
    SimplexCoeffs(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SimplexCoeffs(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        SimplexCoeffs(np.array([1.5, -0.5]))


@pytest.mark.parametrize(
    "weights",
    [[np.nan], [np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [1.0, np.inf], [-np.inf, 1.0],
     [np.inf, -np.inf]],
    ids=["nan", "nan-one-entry", "nan-every-entry", "inf", "inf-last", "minus-inf", "inf-minus-inf"],
)
def test_simplex_coeffs_reject_non_finite_weights(weights):
    with pytest.raises(ValueError, match="simplex coefficient"):
        SimplexCoeffs(np.array(weights))
    # the batched certificate path runs the same checks, row by row
    rows = np.array([[1.0] + [0.0] * (len(weights) - 1), weights])
    with pytest.raises(ValueError, match="simplex coefficient"):
        SimplexCoeffs._rows(rows)


def test_simplex_coeffs_rows_equal_one_construction_per_row():
    Lam = np.array([[0.25, 0.75, 0.0], [1.0 + 1e-10, -1e-10, 0.0], [-0.0, 0.5, 0.5]])
    rows = SimplexCoeffs._rows(Lam)
    assert [c.weights.tobytes() for c in rows] == [SimplexCoeffs(w).weights.tobytes() for w in Lam]
    assert all(isinstance(c, SimplexCoeffs) and not c.weights.flags.writeable for c in rows)
    with pytest.raises(ValueError, match="sum to"):
        SimplexCoeffs._rows(np.vstack([Lam, [0.7, 0.7, 0.0]]))


def test_dist_to_hull_membership_column():
    S = PointMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    d, w = dist_to_hull(S.column(1), S)
    assert d <= 1e-9
    assert np.linalg.norm(S.entries @ w.weights - S.column(1)) <= 1e-9
    # the witness is the indicator of the matching column
    assert np.array_equal(w.weights, [0.0, 1.0, 0.0])


def test_dist_to_hull_perpendicular_foot():
    S = PointMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    d, _ = dist_to_hull(np.array([0.5, 1.0]), S)
    assert d == pytest.approx(1.0, abs=1e-9)


def test_dist_to_hull_triangle_corner():
    # dist((1,1), CH{(0,0),(1,0),(0,1)}) is the distance to the x+y=1 edge
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d, _ = dist_to_hull(np.array([1.0, 1.0]), S)
    assert d == pytest.approx(0.707107, abs=1e-4)
    assert d == pytest.approx(grid_hull_distance(np.array([1.0, 1.0]), S), abs=1e-4)


def test_dist_to_hull_witness_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        S = rng.standard_normal((3, 5))
        x = rng.standard_normal(3)
        d, w = dist_to_hull(x, S, tol=1e-8)
        assert np.linalg.norm(S @ w.weights - x) == pytest.approx(d, abs=1e-9)


def test_dist_to_hull_errors():
    S = PointMatrix(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        dist_to_hull(np.array([0.0, 0.0]), S)
    with pytest.raises(ValueError):
        dist_to_hull(np.array([0.0]), np.zeros((1, 0)))
    with pytest.raises(ValueError):
        dist_to_hull(np.array([np.inf]), S)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda S: dist_to_hull(np.ones(2), S, tol=np.nan), "tol"),
        (lambda S: hull_membership(np.ones(2), S, radius=np.nan), "radius"),
        (lambda S: hull_membership(np.ones(2), S, radius=0.1, tol=np.nan), "tol"),
        (lambda S: hausdorff(S, S + 1.0, tol=np.nan), "tol"),
    ],
    ids=["dist_to_hull-tol", "hull_membership-radius", "hull_membership-tol", "hausdorff-tol"],
)
def test_hull_queries_reject_nan_parameters(call, name):
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=rf"^{name} must be \w+, got nan$"):
        call(S)


def test_dist_to_hull_lipschitz_in_query():
    rng = np.random.default_rng(1)
    S = rng.standard_normal((4, 6))
    for _ in range(50):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        dx, _ = dist_to_hull(x, S, tol=1e-8)
        dy, _ = dist_to_hull(y, S, tol=1e-8)
        assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-7


def test_dist_to_hull_matches_exact_qp():
    rng = np.random.default_rng(2)
    for _ in range(60):
        d = rng.integers(1, 4)
        k = rng.integers(1, 5)
        S = rng.standard_normal((d, k))
        x = rng.standard_normal(d)
        got, _ = dist_to_hull(x, S, tol=1e-8)
        assert got == pytest.approx(exact_hull_distance(x, S), abs=1e-6)


def test_membership_certificates():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((3, 8))
    centroid = S.mean(axis=1)
    inside, w = hull_membership(centroid, S, radius=1e-6)
    assert inside
    assert np.linalg.norm(S @ w.weights - centroid) <= 2e-6
    far = centroid + 100.0 * np.ones(3)
    outside, _ = hull_membership(far, S, radius=1.0)
    assert not outside


def test_hausdorff_identical_and_point():
    sq = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    assert hausdorff(sq, sq) <= 1e-9
    seg = np.array([[0.0, 1.0], [0.0, 0.0]])
    pt = np.array([[0.0], [0.0]])
    assert hausdorff(seg, pt) == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_shifted_squares():
    sq = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    shifted = sq + np.array([[0.3], [0.0]])
    got = hausdorff(sq, shifted)
    assert got == pytest.approx(0.3, abs=1e-6)
    assert got == pytest.approx(boundary_hausdorff_2d(sq, shifted), abs=2e-5)


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(4)
    tol = 1e-7
    for _ in range(10):
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 4))
        C = rng.standard_normal((2, 4))
        ab = hausdorff(A, B, tol=tol)
        ba = hausdorff(B, A, tol=tol)
        assert ab == pytest.approx(ba, abs=1e-6)
        ac = hausdorff(A, C, tol=tol)
        cb = hausdorff(C, B, tol=tol)
        assert ab <= ac + cb + 3e-6


def test_hausdorff_errors():
    with pytest.raises(ValueError):
        hausdorff(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        hausdorff(np.zeros((2, 1)), np.zeros((2, 0)))


def test_diameter_basics():
    assert diameter(np.zeros((3, 1))) == 0.0
    assert diameter(np.array([[0.0, 3.0], [0.0, 4.0]])) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        diameter(np.zeros((2, 0)))


def test_diameter_matches_full_scan():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 100))
    X /= np.maximum(np.linalg.norm(X, axis=0), 1.0)
    best = 0.0
    for i in range(100):
        for j in range(i + 1, 100):
            best = max(best, float(np.linalg.norm(X[:, i] - X[:, j])))
    assert diameter(X) == pytest.approx(best, rel=1e-12)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 60),
    n=st.integers(1, 30),
    copies=st.integers(2, 20),
    exponent=st.integers(-6, 6),
)
def test_diameter_is_exact_on_duplicated_columns(seed, d, n, copies, exponent):
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((d, n)) + rng.standard_normal((d, 1))) * 10.0**exponent
    X = X[:, rng.integers(0, n, n + copies)]  # n + copies draws from n columns repeat some
    assert diameter(X) == explicit_diameter(X)
    assert diameter(np.tile(X[:, :1], (1, copies))) == 0.0


def test_diameter_orthogonal_invariance():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 30))
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert diameter(Q @ X) == pytest.approx(diameter(X), rel=1e-9)


def test_well_separation_simplex():
    K = VPolytope(np.eye(3))
    # dist(e1, CH{e2,e3}) / diam = sqrt(3/2)/sqrt(2)
    assert well_separation(K) == pytest.approx(0.8660, abs=1e-4)


def test_well_separation_segment_and_centroid():
    seg = VPolytope(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert well_separation(seg) == pytest.approx(1.0, abs=1e-9)
    square_plus_centroid = VPolytope(
        np.array([[0.0, 1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 1.0, 1.0, 0.5]])
    )
    assert well_separation(square_plus_centroid) <= 1e-6


def test_well_separation_errors_and_degenerate():
    with pytest.raises(ValueError):
        well_separation(VPolytope(np.zeros((2, 1))))
    degenerate = VPolytope(np.zeros((2, 3)))
    assert well_separation(degenerate) == 0.0


def test_grid_bruteforce_agreement_small_hulls():
    # |S| <= 4 in dim <= 3: solver vs the independent grid within 2e-3*diam
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        S = rng.standard_normal((d, k))
        x = rng.standard_normal(d)
        scale = max(diameter(np.column_stack([S, x])), 1e-12)
        got, _ = dist_to_hull(x, S, tol=1e-8)
        assert abs(got - grid_hull_distance(x, S)) <= 2e-3 * scale


def test_dist_to_hull_converges_on_noisy_vertex_clouds():
    # Each vertex lies in the hull of 2000 noisy answers crowding around the
    # vertices, where first-order steps stall short of the target accuracy.
    K = gen_well_separated_polytope(10, 6, 0.3, seed=0)
    answers = random_probes(NoisyOracle(K, 0.02, seed=100), 2000, seed=200).answers.entries
    diam = K.diameter()
    for v in K.vertices.entries.T:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, _ = dist_to_hull(v, answers, tol=1e-6)
        assert abs(got - nnls_hull_distance(v, answers)) <= 1e-6 * diam


def _hull_instance(seed, d, k, shape, exponent):
    """Random (x, S) at scale 10**exponent: general, duplicated or affinely flat columns."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((d, k))
    if shape == "duplicates":
        S[:, rng.integers(0, k, k)] = S[:, rng.integers(0, k, k)]
    elif shape == "collinear":
        S = np.outer(rng.standard_normal(d), rng.standard_normal(k)) + rng.standard_normal((d, 1))
    elif shape == "flat":  # all columns on one 2-d affine plane
        S = rng.standard_normal((d, 1)) @ rng.standard_normal((1, k)) + rng.standard_normal((d, 1))
        S[:, : k // 2] += rng.standard_normal((d, 1)) * rng.random(k // 2)
    x = rng.standard_normal(d) if rng.random() < 0.7 else S @ rng.dirichlet(np.ones(k))
    unit = 10.0**exponent
    return x * unit, S * unit


_hull_instances = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    k=st.integers(1, 7),
    shape=st.sampled_from(["general", "duplicates", "collinear", "flat"]),
    exponent=st.integers(-6, 6),
)


@settings(max_examples=150)
@given(**_hull_instances)
def test_dist_to_hull_matches_exact_at_any_scale(seed, d, k, shape, exponent):
    # k up to 7 in dim up to 4 also covers k > d + 1 (affinely dependent).
    x, S = _hull_instance(seed, d, k, shape, exponent)
    scale = float(np.linalg.norm(S - x[:, None], axis=0).max())
    got, w = dist_to_hull(x, S, tol=1e-6)
    assert abs(got - exact_hull_distance(x, S)) <= 1e-6 * scale
    assert np.linalg.norm(S @ w.weights - x) == got


@settings(max_examples=150)
@given(**_hull_instances, factor=st.floats(0.0, 2.0))
def test_hull_membership_agrees_with_distance(seed, d, k, shape, exponent, factor):
    x, S = _hull_instance(seed, d, k, shape, exponent)
    scale = float(np.linalg.norm(S - x[:, None], axis=0).max())
    dist, _ = dist_to_hull(x, S, tol=1e-8)
    radius, tol = factor * dist, 1e-9 * scale
    inside, w = hull_membership(x, S, radius=radius, tol=tol)
    if dist < radius + tol - 1e-6 * scale:
        assert inside
        assert np.linalg.norm(S @ w.weights - x) <= radius + tol
    elif dist > radius + tol + 1e-6 * scale:
        assert not inside


def _kernel_instance(seed, d, k, shape, exponent):
    """A hull S and query columns on its vertices, on faces, inside and outside, with repeats."""
    rng = np.random.default_rng(seed)
    _, S = _hull_instance(seed, d, k, shape, exponent)
    unit = 10.0**exponent
    face = rng.choice(k, size=min(k, 2), replace=False)
    cols = [
        S[:, rng.integers(k)],
        S[:, face] @ rng.dirichlet(np.ones(face.size)),
        S @ rng.dirichlet(np.ones(k)),
        S[:, face] @ rng.dirichlet(np.ones(face.size)) + 1e-3 * unit * rng.standard_normal(d),
        S.mean(axis=1) + 3.0 * unit * rng.standard_normal(d),
        S.mean(axis=1) + 3.0 * unit * rng.standard_normal(d),
    ]
    X = np.column_stack(cols)
    return X[:, rng.integers(0, X.shape[1], X.shape[1] + 3)], S


_kernel_instances = dict(_hull_instances, d=st.integers(1, 6))


@settings(max_examples=100, deadline=None)
@given(**_kernel_instances)
def test_hull_distances_kernel_matches_solver_and_reference(seed, d, k, shape, exponent):
    X, S = _kernel_instance(seed, d, k, shape, exponent)
    tol = 1e-6
    dists, Lam = _hull_distances(X, S, tol)
    for x, got, lam in zip(X.T, dists, Lam):
        scale = float(np.linalg.norm(S - x[:, None], axis=0).max())
        # Rounding of S @ lam - x and of the reference, relative to the entries.
        rounding = 1e-12 * max(np.abs(S).max(), np.abs(x).max())
        SimplexCoeffs(lam)
        assert abs(np.linalg.norm(S @ lam - x) - got) <= rounding
        assert abs(got - exact_hull_distance(x, S)) <= tol * scale + rounding
        assert abs(got - _min_norm_point(x, S, tol)[0]) <= tol * scale + rounding


@settings(max_examples=100, deadline=None)
@given(**_kernel_instances, factor=st.floats(0.0, 2.0))
def test_hull_distances_membership_matches_hull_membership(seed, d, k, shape, exponent, factor):
    X, S = _kernel_instance(seed, d, k, shape, exponent)
    exact = np.array([exact_hull_distance(x, S) for x in X.T])
    radius, tol = factor * float(np.median(exact)), 1e-9 * 10.0**exponent
    dists, _ = _hull_distances(X, S, 1e-12, atol=tol, radius=radius)
    for x, got, true in zip(X.T, dists, exact):
        if abs(true - (radius + tol)) > 2.0 * tol:  # off the tolerance band
            assert (got <= radius + tol) == hull_membership(x, S, radius=radius, tol=tol)[0]


@settings(max_examples=60, deadline=None)
@given(**_kernel_instances, membership=st.booleans())
def test_hull_distances_bit_identical_alone_batched_permuted(seed, d, k, shape, exponent, membership):
    X, S = _kernel_instance(seed, d, k, shape, exponent)
    args = (1e-12, 1e-9 * 10.0**exponent, 0.1 * 10.0**exponent) if membership else (1e-6,)
    dists, Lam = _hull_distances(X, S, *args)
    perm = np.random.default_rng(seed).permutation(X.shape[1])
    pd, pL = _hull_distances(X[:, perm], S, *args)
    assert np.array_equal(pd, dists[perm]) and np.array_equal(pL, Lam[perm])
    twice = _hull_distances(np.hstack([X, X]), S, *args)
    assert np.array_equal(twice[0], np.tile(dists, 2)) and np.array_equal(twice[1], np.vstack([Lam, Lam]))
    for i in range(X.shape[1]):
        one_d, one_L = _hull_distances(X[:, [i]], S, *args)
        assert one_d[0] == dists[i] and np.array_equal(one_L[0], Lam[i])


def test_hull_distances_empty_query_set():
    dists, Lam = _hull_distances(np.zeros((3, 0)), np.eye(3), 1e-6)
    assert dists.shape == (0,) and Lam.shape == (0, 3)


def _count_solves(monkeypatch) -> list:
    calls = []
    real = geometry._min_norm_point

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "_min_norm_point", counted)
    return calls


def test_hull_distances_fast_path_and_fallback_both_run(monkeypatch):
    # A desk-sized LkP instance validates on the exact candidates alone; a
    # point just outside the middle of a triangle's edge needs the solver.
    M = gen_well_separated_polytope(50, 3, 0.65, seed=3)
    inst = gen_lkp(M, 5000, 0.1, 4e-5, seed=4, validate=False)
    calls = _count_solves(monkeypatch)
    inst.validate()
    assert calls == []
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    dists, _ = _hull_distances(np.array([[0.5], [-1e-3]]), S, 1e-8)
    assert len(calls) >= 1
    assert dists[0] == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("membership", [False, True])
def test_hull_distances_bit_identical_across_blocks(monkeypatch, membership):
    # Enough columns for at least three blocks of the kernel, on vertices,
    # inside, just outside an edge and far out: the first two kinds are
    # accepted candidates, the others go to the solver.
    rng = np.random.default_rng(5)
    d, k = 64, 16
    S = rng.standard_normal((d, k))
    block = geometry._BLOCK // (k * d)
    cols = []
    for _ in range(3 * block // 4 + 1):
        i, j = rng.choice(k, 2, replace=False)
        outward = rng.standard_normal(d)
        cols += [
            S[:, i],
            S @ rng.dirichlet(np.ones(k)),
            0.5 * (S[:, i] + S[:, j]) + 1e-3 * outward,
            S.mean(axis=1) + 3.0 * outward,
        ]
    X = np.column_stack(cols)
    assert X.shape[1] >= 3 * block
    args = (1e-12, 1e-9, 0.5) if membership else (1e-6,)
    calls = _count_solves(monkeypatch)
    dists, Lam = _hull_distances(X, S, *args)
    assert 0 < len(calls) < X.shape[1]
    for i in range(X.shape[1]):
        one_d, one_L = _hull_distances(X[:, [i]], S, *args)
        assert one_d[0] == dists[i] and np.array_equal(one_L[0], Lam[i])


def test_hull_distances_solve_each_distinct_fallback_column_once(monkeypatch):
    # Two columns just outside a triangle's edges need the solver, a vertex
    # does not; repeated over more than two blocks, each is solved once.
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    distinct = np.array([[0.5, -1e-3, 0.0], [-1e-3, 0.5, 1.0]])
    reps = 2 * (geometry._BLOCK // S.size) // distinct.shape[1] + 1
    X = np.tile(distinct, (1, reps))
    calls = _count_solves(monkeypatch)
    dists, Lam = _hull_distances(X, S, 1e-8)
    assert len(calls) == 2
    one = _hull_distances(distinct, S, 1e-8)
    assert np.array_equal(dists, np.tile(one[0], reps)) and np.array_equal(Lam, np.tile(one[1], (reps, 1)))
    assert dists[0] == pytest.approx(1e-3, rel=1e-6)


def test_hull_distances_peak_memory_stays_near_the_outputs():
    # The kernel works in blocks of the columns and copies no P-sized array:
    # its traced peak on an LkP instance stays within 1.3 x P.nbytes.
    M = gen_well_separated_polytope(200, 5, 0.65, seed=3)
    P = gen_lkp(M, 5000, 0.1, 4e-5, seed=4, validate=False).P.entries
    tracemalloc.start()
    try:
        _hull_distances(P, M.vertices.entries, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * P.nbytes


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    counts=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    exponent=st.integers(-6, 6),
)
def test_hausdorff_matches_full_scan_on_random_sets(seed, d, counts, exponent):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((d, counts[0])) * 10.0**exponent
    Q = (rng.standard_normal((d, counts[1])) + rng.standard_normal((d, 1))) * 10.0**exponent
    diam = max(diameter(P), diameter(Q))
    assert abs(hausdorff(P, Q) - full_scan_hausdorff(P, Q)) <= 1e-12 * diam


@pytest.mark.parametrize("eps", [1e-3, 0.02])
def test_hausdorff_on_noisy_probes_matches_full_scan_with_few_solves(monkeypatch, eps):
    K = gen_well_separated_polytope(10, 6, 0.3, seed=0)
    answers = random_probes(NoisyOracle(K, eps, seed=100), 2000, seed=200).answers.entries
    expected = full_scan_hausdorff(answers, K.vertices.entries)
    calls = _count_solves(monkeypatch)
    got = hausdorff(answers, K.vertices)
    assert len(calls) < 100
    assert abs(got - expected) <= 1e-12 * max(diameter(answers), K.diameter())
