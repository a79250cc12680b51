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
    gen_well_separated_polytope,
    hausdorff,
    hull_membership,
    random_probes,
    well_separation,
)

from reference import (
    boundary_hausdorff_2d,
    exact_hull_distance,
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
