import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylearn import (
    LkpInstance,
    PointMatrix,
    VPolytope,
    dist_to_hull,
    fixtures,
    gen_lkp,
    gen_two_gaussian_mixture,
    gen_well_separated_polytope,
    spectral_norm,
    svd_project,
    well_separation,
)
from polylearn.datagen import _gram_top_eigs


def test_spectral_norm_matches_dense_svd():
    rng = np.random.default_rng(0)
    for n in (20, 120, 500):
        B = rng.standard_normal((15, n))
        dense = float(np.linalg.svd(B, compute_uv=False)[0])
        assert spectral_norm(B) == pytest.approx(dense, rel=1e-4)
    assert spectral_norm(np.zeros((4, 7))) == 0.0


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 30),
    cols=st.integers(1, 30),
    rank=st.integers(0, 30),
    exponent=st.integers(-200, 200),
)
def test_spectral_norm_exact_across_scales_and_shapes(seed, rows, cols, rank, exponent):
    # Wide, tall and rank-deficient B (a product through `rank` inner
    # columns), with entries scaled to 10**exponent; rank 0 is the zero matrix.
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    B = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    B *= 10.0**exponent
    expected = float(np.linalg.norm(B, 2))
    assert spectral_norm(B) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_spectral_norm_extreme_scales_and_zero():
    B = np.random.default_rng(1).standard_normal((7, 40))
    for scale in (1e-200, 1e-150, 1e-75, 1.0, 1e75, 1e150, 1e200):
        assert spectral_norm(scale * B) == pytest.approx(
            float(np.linalg.norm(scale * B, 2)), rel=1e-12
        )
        assert spectral_norm(scale * B.T) == pytest.approx(
            float(np.linalg.norm(scale * B, 2)), rel=1e-12
        )
    for shape in ((4, 7), (7, 4), (1, 1), (0, 3)):
        assert spectral_norm(np.zeros(shape)) == 0.0


def _max_abs_at(B, e, mantissa=0.75):
    """B rescaled so that max|B| = mantissa * 2**e exactly (binary exponent e)."""
    B = np.ldexp(B / np.abs(B).max() * mantissa, e)
    assert math.frexp(float(np.abs(B).max())) == (mantissa, e)
    return B


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 60),
    e=st.one_of(st.integers(-128, 128), st.integers(-600, 600)),
)
def test_gram_top_eigs_power_of_two_scaling_is_exact(seed, rows, cols, e):
    # Inside the window |e| <= 128 the Gram of B itself goes to the
    # eigensolver; outside it B is first scaled by 2^-e.  Either way the result
    # is the normalized matrix's, rescaled by 2^e, to the last bit.
    k = min(3, rows, cols)
    B = _max_abs_at(np.random.default_rng(seed).standard_normal((rows, cols)), e)
    s, V = _gram_top_eigs(B, k)
    s_unit, V_unit = _gram_top_eigs(np.ldexp(B, -e), k)
    assert np.array_equal(s, np.ldexp(s_unit, e))
    assert np.array_equal(V, V_unit)


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 30),
    cols=st.integers(1, 30),
    edge=st.sampled_from([-128, 128]),
    offset=st.integers(-3, 3),
    mantissa=st.floats(0.5, 1.0, exclude_max=True),
)
def test_spectral_norm_exact_on_both_sides_of_the_window(seed, rows, cols, edge, offset, mantissa):
    B = _max_abs_at(np.random.default_rng(seed).standard_normal((rows, cols)), edge + offset, mantissa)
    assert spectral_norm(B) == pytest.approx(float(np.linalg.norm(B, 2)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", [(4, 9), (9, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_norm_rejects_non_finite_entries(shape, bad):
    B = np.ones(shape)
    B[2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entries"):
            spectral_norm(B)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("transpose", [False, True])
def test_gram_eigensolve_allocates_no_copy_of_its_input(transpose):
    # Wide and tall: neither spectral_norm nor svd_project may allocate an
    # array the size of B.  The PointMatrix copy is made before tracing.
    B = np.random.default_rng(2).standard_normal((40, 20_000))
    B = B.T if transpose else B
    Bm = PointMatrix(B)
    assert _traced_peak(lambda: spectral_norm(B)) < 0.25 * B.nbytes
    assert _traced_peak(lambda: svd_project(Bm, 3)) < 0.25 * B.nbytes


def test_generators_build_observations_with_unchanged_bits():
    # The observations are built in place; they and sigma0 must equal the
    # bits of the out-of-place expressions at the same seed.
    M = gen_well_separated_polytope(8, 3, 0.4, seed=16)
    inst = gen_lkp(M, 500, 0.1, noise_scale=0.3, seed=17)
    rng = np.random.default_rng(17)
    rng.dirichlet(np.ones(3), size=500 - 3 * 50)
    P = inst.P.entries
    A = P + 0.3 * rng.standard_normal((8, 500))
    assert np.array_equal(inst.A.entries, A)
    assert inst.sigma0 == spectral_norm(P - A) / math.sqrt(500)

    inst = gen_two_gaussian_mixture(6, 400, seed=18)
    rng = np.random.default_rng(18)
    rng.standard_normal(6)
    rng.permutation(np.repeat([0, 1], 200))
    P = inst.P.entries
    A = P + rng.standard_normal((6, 400))
    assert np.array_equal(inst.A.entries, A)
    assert inst.sigma0 == spectral_norm(P - A) / math.sqrt(400)


def test_gen_polytope_k2_and_target():
    K = gen_well_separated_polytope(5, 2, 0.9, seed=1)
    assert well_separation(K) == pytest.approx(1.0, abs=1e-9)
    K4 = gen_well_separated_polytope(2, 4, 0.2, seed=2)
    assert K4.count == 4 and K4.dim == 2  # coplanar, more than d+1 vertices allowed
    assert well_separation(K4) >= 0.2


def test_gen_polytope_budget_exhaustion():
    with pytest.raises(RuntimeError, match="attempts"):
        gen_well_separated_polytope(2, 6, 0.45, seed=3, max_attempts=25)


def test_gen_polytope_rejects_non_finite_target_before_sampling(monkeypatch):
    import polylearn.datagen as datagen

    monkeypatch.setattr(datagen, "well_separation", lambda K: pytest.fail("sampled a polytope"))
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"delta_target must be finite, got {target}"):
            gen_well_separated_polytope(5, 3, target, seed=1)


def test_gen_lkp_noiseless():
    M = gen_well_separated_polytope(6, 3, 0.4, seed=4)
    inst = gen_lkp(M, 200, 0.2, noise_scale=0.0, seed=5)
    assert inst.sigma0 == 0.0
    assert np.array_equal(inst.A.entries, inst.P.entries)
    inst.validate()


def test_gen_lkp_invariants_and_sigma0():
    M = gen_well_separated_polytope(10, 3, 0.4, seed=6)
    inst = gen_lkp(M, 300, 0.15, noise_scale=0.2, seed=7)
    inst.validate()
    expected = float(np.linalg.svd(inst.P.entries - inst.A.entries, compute_uv=False)[0])
    assert inst.sigma0 == pytest.approx(expected / math.sqrt(300), rel=1e-4)
    for ell, idx in enumerate(inst.cluster_sets):
        assert idx.size >= 0.15 * 300
        assert np.allclose(inst.P.entries[:, idx], M.vertices.entries[:, [ell]])
    for j in range(0, 300, 37):
        d, _ = dist_to_hull(inst.P.entries[:, j], M.vertices, tol=1e-8)
        assert d <= 1e-7 * M.diameter()


def test_gen_lkp_infeasible_layout():
    M = gen_well_separated_polytope(4, 3, 0.4, seed=8)
    with pytest.raises(ValueError, match="w0\\*k"):
        gen_lkp(M, 10, 0.5, 0.1, seed=9)


@pytest.mark.parametrize("n", [0, -4])
def test_generators_reject_empty_point_count(n):
    M = gen_well_separated_polytope(4, 3, 0.4, seed=8)
    with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
        gen_lkp(M, n, 0.2, 0.1, seed=9)
    with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
        gen_two_gaussian_mixture(4, n)


def test_gen_lkp_random_matrix_scale():
    # Gaussian noise: sigma0 lands near noise_scale*(sqrt(d)+sqrt(n))/sqrt(n)
    M = gen_well_separated_polytope(100, 3, 0.3, seed=10)
    inst = gen_lkp(M, 2000, 0.1, noise_scale=1.0, seed=11)
    typical = (math.sqrt(100) + math.sqrt(2000)) / math.sqrt(2000)
    assert 0.7 * typical <= inst.sigma0 <= 1.3 * typical


def test_two_gaussian_basic_properties():
    inst = gen_two_gaussian_mixture(100, 10_000, seed=12)
    assert inst.M.diameter() == pytest.approx(20.0, abs=1e-9)
    assert inst.sigma0 <= 3.0
    assert inst.w0 == 0.5
    sizes = sorted(idx.size for idx in inst.cluster_sets)
    assert sizes == [5000, 5000]
    # ambient ratio stays order-one while the projected pipeline still works
    ratio = inst.sigma0 / (inst.M.diameter() * math.sqrt(inst.w0))
    assert 0.02 <= ratio <= 1.0


def test_two_gaussian_requires_even_n():
    with pytest.raises(ValueError, match="even"):
        gen_two_gaussian_mixture(10, 11, seed=0)


def test_two_gaussian_custom_norm():
    inst = gen_two_gaussian_mixture(20, 400, v_norm=3.0, seed=13)
    assert inst.M.diameter() == pytest.approx(6.0, abs=1e-9)
    norms = np.linalg.norm(inst.M.vertices.entries, axis=0)
    assert np.allclose(norms, 3.0)


def test_fixtures_deterministic_and_shapes():
    fx1 = fixtures()
    fx2 = fixtures()
    assert set(fx1) == {
        "two-cluster",
        "two-rings",
        "square-plus-midpoint",
        "needle-pair",
        "example1-segment",
        "example2-sphere",
    }
    for name in fx1:
        assert np.array_equal(fx1[name].entries, fx2[name].entries)
    assert fx1["two-cluster"].count == 10
    assert fx1["two-rings"].count == 16
    assert fx1["square-plus-midpoint"].count == 5
    assert fx1["example1-segment"].dim == 50
    assert fx1["example2-sphere"].count == 16


def test_square_plus_midpoint_geometry():
    W = fixtures()["square-plus-midpoint"].entries
    v3, v4, v5 = W[:, 2], W[:, 3], W[:, 4]
    assert np.allclose(v5, (v3 + v4) / 2.0)


def test_segment_fixture_geometry():
    seg = fixtures()["example1-segment"]
    assert np.linalg.norm(seg.entries[:, 0] - seg.entries[:, 1]) == pytest.approx(1.0)


def test_sphere_fixture_geometry():
    sph = VPolytope(fixtures()["example2-sphere"])
    a = np.zeros(8)
    a[0] = 1.0
    d, _ = dist_to_hull(a, sph.vertices, tol=1e-8)
    assert d == pytest.approx(1.0, abs=1e-6)
    assert sph.diameter() == pytest.approx(2.0, abs=1e-12)


def test_validate_rejects_corruption():
    M = gen_well_separated_polytope(5, 3, 0.4, seed=14)
    inst = gen_lkp(M, 100, 0.2, noise_scale=0.1, seed=15)
    bad_P = inst.P.entries.copy()
    bad_P[:, 0] = M.vertices.column(0) * 10.0  # escape the hull
    corrupted = LkpInstance(
        M=inst.M,
        P=PointMatrix(bad_P),
        A=inst.A,
        w0=inst.w0,
        sigma0=inst.sigma0,
        cluster_sets=inst.cluster_sets,
    )
    with pytest.raises(ValueError):
        corrupted.validate()


def test_validate_rejects_empty_latent_set():
    M = gen_well_separated_polytope(5, 3, 0.4, seed=14)
    empty = PointMatrix(np.zeros((5, 0)))
    inst = LkpInstance(
        M=M, P=empty, A=empty, w0=0.2, sigma0=0.0, cluster_sets=(np.arange(0),) * 3
    )
    with pytest.raises(ValueError, match="no latent points"):
        inst.validate()


def test_validate_names_first_latent_point_outside():
    # Two points outside CH(M) beyond the clusters; the observations move with
    # them so that sigma0 still holds and the hull check is the one to fail.
    M = gen_well_separated_polytope(5, 3, 0.4, seed=14)
    inst = gen_lkp(M, 100, 0.2, noise_scale=0.1, seed=15)
    bad_P = inst.P.entries.copy()
    bad_P[:, [90, 75]] = M.vertices.entries[:, [0, 1]] * 10.0
    corrupted = LkpInstance(
        M=inst.M,
        P=PointMatrix(bad_P),
        A=PointMatrix(bad_P + (inst.A.entries - inst.P.entries)),
        w0=inst.w0,
        sigma0=inst.sigma0,
        cluster_sets=inst.cluster_sets,
    )
    expected, _ = dist_to_hull(bad_P[:, 75], M.vertices, tol=1e-7)
    with pytest.raises(ValueError, match=r"latent point 75 lies \S+ outside CH\(M\)") as err:
        corrupted.validate()
    assert float(str(err.value).split()[4]) == pytest.approx(expected, rel=1e-6)
