import math
import mmap
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylearn.oracles as oracles
from polylearn import (
    ExactOracle,
    NoisyOracle,
    OptOracle,
    SubsetSmoothingOracle,
    VPolytope,
    audit_answer,
    dist_to_hull,
    exact_oracle,
    find_consistent_needles,
    gen_lkp,
    gen_two_gaussian_mixture,
    gen_well_separated_polytope,
    needle_oracle,
    noisy_oracle,
    random_probes,
    svd_project,
)
import reference
from reference import (
    ListNeedleLog,
    pairwise_norm_needles,
    single_query_answer,
    single_query_perturbation,
    stable_top_indices,
)


def _unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


def segment():
    return VPolytope(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exact_oracle_argmax_and_tiebreak():
    oracle = exact_oracle(segment())
    assert np.allclose(oracle.query(np.array([1.0, 0.0])), [1.0, 0.0])
    # u = (0,1) ties both endpoints; lowest index wins
    assert np.allclose(oracle.query(np.array([0.0, 1.0])), [0.0, 0.0])


def test_exact_oracle_matches_vertex_scan():
    rng = np.random.default_rng(0)
    K = VPolytope(rng.standard_normal((4, 5)))
    oracle = exact_oracle(K)
    for _ in range(50):
        u = _unit(rng, 4)
        scores = u @ K.vertices.entries
        assert np.allclose(oracle.query(u), K.vertices.column(int(np.argmax(scores))))


def test_exact_oracle_rejects_non_unit():
    for oracle in (exact_oracle(segment()), noisy_oracle(segment(), 0.1, seed=0)):
        with pytest.raises(ValueError):
            oracle.query(np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            oracle.query(np.array([1.0, 0.0, 0.0]))


def test_exact_oracle_audits_at_zero_epsilon():
    rng = np.random.default_rng(1)
    K = VPolytope(rng.standard_normal((3, 6)))
    oracle = exact_oracle(K)
    for _ in range(50):
        u = _unit(rng, 3)
        audit = audit_answer(K, u, oracle.query(u), epsilon=0.0, tol=1e-9)
        assert audit.passed


def test_noisy_oracle_zero_epsilon_is_exact():
    rng = np.random.default_rng(2)
    K = VPolytope(rng.standard_normal((3, 4)))
    noisy = noisy_oracle(K, 0.0, seed=5)
    exact = exact_oracle(K)
    for _ in range(100):
        u = _unit(rng, 3)
        assert np.array_equal(noisy.query(u), exact.query(u))


def test_noisy_oracle_respects_contract():
    rng = np.random.default_rng(3)
    K = segment()
    eps = 0.05
    oracle = noisy_oracle(K, eps, seed=9)
    exact = exact_oracle(K)
    worst = 0.0
    for _ in range(1000):
        u = _unit(rng, 2)
        x = oracle.query(u)
        worst = max(worst, float(np.linalg.norm(x - exact.query(u))))
        audit = audit_answer(K, u, x, epsilon=eps, tol=1e-9)
        assert audit.passed
    assert worst <= eps * K.diameter() + 1e-12


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.0, 1.0),
    d=st.integers(1, 5),
    k=st.integers(1, 6),
    data=st.data(),
)
def test_noisy_oracle_answers_pass_audit(seed, eps, d, k, data):
    K = VPolytope(np.random.default_rng(seed).standard_normal((d, k)))
    oracle = noisy_oracle(K, eps, seed=seed)
    for _ in range(5):
        g = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        if np.linalg.norm(g) < 1e-3:
            continue
        u = g / np.linalg.norm(g)
        assert audit_answer(K, u, oracle.query(u), epsilon=eps, tol=1e-9).passed


def test_noisy_oracle_deterministic_per_query():
    K = segment()
    oracle = noisy_oracle(K, 0.3, seed=11)
    u1 = np.array([0.6, 0.8])
    u2 = np.array([-0.8, 0.6])
    a = oracle.query(u1).copy()
    b = oracle.query(u2).copy()
    # interleaved re-queries return bit-identical answers
    assert np.array_equal(oracle.query(u2), b)
    assert np.array_equal(oracle.query(u1), a)
    fresh = noisy_oracle(K, 0.3, seed=11)
    assert np.array_equal(fresh.query(u1), a)
    different_seed = noisy_oracle(K, 0.3, seed=12)
    assert not np.array_equal(different_seed.query(u1), a)


def test_noisy_oracle_is_an_exact_oracle_with_one_diameter(monkeypatch):
    calls = []
    monkeypatch.setattr(VPolytope, "diameter", lambda self: calls.append(self) or 1.0)
    oracle = noisy_oracle(segment(), 0.1, seed=0)
    assert isinstance(oracle, ExactOracle)
    assert len(calls) == 1 and oracle.reference_diameter == 1.0


def test_noisy_oracle_epsilon_range():
    with pytest.raises(ValueError):
        noisy_oracle(segment(), 1.5, seed=0)


def test_noisy_oracle_seed_must_fit_64_bits():
    u = np.array([0.6, 0.8])
    for seed in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(ValueError, match=rf"seed {seed} is outside \[-2\^63, 2\^63\)"):
            noisy_oracle(segment(), 0.1, seed=seed)
    for seed in (2**63 - 1, -(2**63)):
        x = noisy_oracle(segment(), 0.1, seed=seed).query(u)
        assert audit_answer(segment(), u, x, epsilon=0.1, tol=1e-9).passed


@pytest.mark.parametrize("d", [2, 3, 10])
def test_noisy_perturbation_is_uniform_in_the_ball(d):
    from scipy import stats

    rng = np.random.default_rng(40 + d)
    K = VPolytope(rng.standard_normal((d, d + 2)))
    eps = 0.05
    oracle = noisy_oracle(K, eps, seed=41 + d)
    budget = eps * oracle.reference_diameter
    U = rng.standard_normal((4000, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    P = oracle._perturbations(U)
    norms = np.linalg.norm(P, axis=1)
    assert norms.max() <= budget * (1.0 - 1e-12)
    # Uniform in the ball: (|p|/budget)^d is U(0, 1), and the first coordinate
    # of a uniform direction in R^d is 2*Beta((d-1)/2, (d-1)/2) - 1.
    assert stats.kstest((norms / budget) ** d, "uniform").pvalue > 1e-3
    a = (d - 1) / 2
    first = P[:, 0] / norms
    assert stats.kstest(first, lambda t: stats.beta.cdf((t + 1.0) / 2.0, a, a)).pvalue > 1e-3


@pytest.mark.parametrize("byte", [0x00, 0xFF])
def test_noisy_perturbation_extreme_hash_words_stay_inside(monkeypatch, byte):
    # Hash words 0 and 2^64 - 1 must give uniforms strictly inside (0, 1): a
    # uniform of 0 or 1 makes a Box-Muller radius infinite or zero (a nan
    # direction), or the ball radius zero.
    lengths = []

    class ExtremeHash:
        def __init__(self, data):
            pass

        def digest(self, n):
            lengths.append(n)
            return bytes([byte]) * n

    monkeypatch.setattr(oracles, "hashlib", types.SimpleNamespace(shake_256=ExtremeHash))
    for d in (2, 3, 10):
        oracle = noisy_oracle(VPolytope(np.eye(d)), 0.1, seed=0)
        p = oracle._perturbations(np.ones((1, d)) / math.sqrt(d))[0]
        assert np.isfinite(p).all()
        assert 0.0 < np.linalg.norm(p) <= 0.1 * oracle.reference_diameter
        assert lengths[-1] == 8 * (2 * math.ceil(d / 2) + 1)


def test_subset_smoothing_top1_and_full_mean():
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    oracle = SubsetSmoothingOracle(A, fraction=0.5)
    u = np.array([1.0, 0.0])
    assert np.allclose(oracle.query(u), [2.0, 0.0])
    full = SubsetSmoothingOracle(A, fraction=1.0)
    for direction in ([1.0, 0.0], [0.0, 1.0], [-0.7, 0.2]):
        assert np.allclose(full.query(np.array(direction)), A.mean(axis=1))


def test_subset_smoothing_tie_break_lowest_index():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    oracle = SubsetSmoothingOracle(A, fraction=1 / 3)
    # columns 0 and 1 tie on u; stable order keeps column 0
    assert np.allclose(oracle.query(np.array([1.0, 0.0])), [1.0, 0.0])


def test_subset_smoothing_scale_equivariance():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 40))
    oracle = SubsetSmoothingOracle(A, fraction=0.2)
    for _ in range(20):
        u = rng.standard_normal(3)
        assert np.array_equal(oracle.query(u), oracle.query(3.7 * u))


def test_subset_smoothing_answer_in_hull():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 30))
    oracle = SubsetSmoothingOracle(A, fraction=0.25)
    for _ in range(10):
        u = _unit(rng, 3)
        d, _ = dist_to_hull(oracle.query(u), A, tol=1e-8)
        assert d <= 1e-7


def test_subset_smoothing_rejects_non_finite_direction():
    oracle = SubsetSmoothingOracle(np.eye(3), fraction=0.5)
    for bad in ([np.inf, 0.0, 0.0], [1.0, np.nan, 0.0], [-np.inf, np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            oracle.top_indices(np.array(bad))
        with pytest.raises(ValueError, match="finite"):
            oracle.query(np.array(bad))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    n=st.integers(1, 60),
    levels=st.integers(1, 5),
    fraction=st.floats(0.01, 1.0),
)
def test_subset_smoothing_selection_matches_stable_sort(seed, d, n, levels, fraction):
    # Entries from a few integer levels make many scores tie, also at the cut.
    rng = np.random.default_rng(seed)
    A = rng.integers(-levels, levels + 1, size=(d, n)).astype(np.float64)
    oracle = SubsetSmoothingOracle(A, fraction=fraction)
    for _ in range(5):
        u = rng.integers(-2, 3, size=d).astype(np.float64)
        if not np.any(u):
            continue
        picked = oracle.top_indices(u)
        assert picked.size == oracle.subset_size
        assert np.array_equal(picked, stable_top_indices(u @ A, oracle.subset_size))


def test_subset_smoothing_boundary_ties_take_lowest_indices():
    scores = np.array([5.0, 1.0, 3.0, 3.0, 0.0, 3.0, 7.0, 3.0])
    for size in range(1, scores.size + 1):
        oracle = SubsetSmoothingOracle(scores[None, :], fraction=size / scores.size)
        assert oracle.subset_size == size
        assert np.array_equal(
            oracle.top_indices(np.array([1.0])), stable_top_indices(scores, size)
        )


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), k=st.integers(2, 5))
def test_subset_smoothing_answer_depends_only_on_selected_set(seed, d, k):
    # k tight clusters of 30 columns and a subset size of 30: most directions
    # select one whole cluster, each in its own score order.  Every distinct
    # subset must still give exactly one answer.
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((d, k))
    A = np.repeat(centers, 30, axis=1) + 1e-3 * rng.standard_normal((d, 30 * k))
    oracle = SubsetSmoothingOracle(A, fraction=1.0 / k)
    answers: dict[bytes, np.ndarray] = {}
    for _ in range(200):
        u = rng.standard_normal(d)
        x = answers.setdefault(oracle.top_indices(u).tobytes(), oracle.query(u))
        assert np.array_equal(x, oracle.query(u))
    assert len(answers) < 200


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    n=st.integers(3300, 5000),
    levels=st.integers(1, 5),
    fraction=st.floats(0.01, 1.0),
)
def test_subset_smoothing_batch_matches_single_queries(seed, d, n, levels, fraction):
    # Integer data and directions tie many scores at the cut; 40 rows span
    # at least 3 selection blocks of 2**16 // n rows.
    rng = np.random.default_rng(seed)
    A = rng.integers(-levels, levels + 1, size=(d, n)).astype(np.float64)
    oracle = SubsetSmoothingOracle(A, fraction=fraction)
    U = rng.integers(-2, 3, size=(40, d)).astype(np.float64)
    U[~U.any(axis=1), 0] = 1.0
    X = oracle.query_batch(U)
    assert X.shape == (d, 40)
    for i, u in enumerate(U):
        picked = oracle.top_indices(u)
        assert np.array_equal(picked, stable_top_indices(u @ A, oracle.subset_size))
        assert np.array_equal(X[:, i], oracle.query(u))
        assert np.array_equal(X[:, i], A[:, picked].mean(axis=1))
    perm = rng.permutation(40)
    assert np.array_equal(oracle.query_batch(U[perm]), X[:, perm])


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(8, 24), fraction=st.floats(0.05, 0.95))
def test_subset_smoothing_batch_matches_single_queries_on_near_ties(seed, d, fraction):
    # 40 clusters of 80 columns equal up to a few ulps: every direction's
    # scores nearly tie inside each cluster, so the selection at the cut
    # follows the last bits of the scores, where gemm and gemv disagree.
    # 60 rows span 3 selection blocks of 2**16 // 3200 rows.
    rng = np.random.default_rng(seed)
    A = np.repeat(rng.standard_normal((d, 40)), 80, axis=1)
    A *= 1.0 + np.ldexp(rng.integers(-4, 5, A.shape), -52)
    oracle = SubsetSmoothingOracle(A, fraction=fraction)
    U = rng.standard_normal((60, d))
    X = oracle.query_batch(U)
    for i, u in enumerate(U):
        assert np.array_equal(X[:, i], oracle.query(u))


def _counting(oracle):
    """Count the rows the oracle's margin test proves and the hulls it builds."""
    counts = {"proved": 0, "hulls": 0}
    proved, hull_points = oracle._proved, oracle._hull_points

    def count_proved(rows, sets):
        which = proved(rows, sets)
        counts["proved"] += int(np.count_nonzero(which >= 0))
        return which

    def count_hulls(mask):
        counts["hulls"] += 1
        return hull_points(mask)

    oracle._proved, oracle._hull_points = count_proved, count_hulls
    return counts


def _assert_full_selection(oracle, A, U, X):
    for i, u in enumerate(U):
        picked = stable_top_indices(u @ A, oracle.subset_size)
        assert np.array_equal(oracle.top_indices(u), picked)
        assert np.array_equal(X[:, i], A[:, picked].mean(axis=1))
        assert np.array_equal(X[:, i], oracle.query(u))


def _certificate_data(rng, shape, d):
    if shape == "clusters":
        centers = rng.standard_normal((d, int(rng.integers(2, 5))))
        return np.repeat(centers, 25, axis=1) + 1e-3 * rng.standard_normal((d, 25 * centers.shape[1]))
    if shape == "integers":  # many scores tie, also at the cut
        return rng.integers(-2, 3, size=(d, 60)).astype(np.float64)
    if shape == "line":  # flat for d >= 2: qhull raises
        return rng.standard_normal((d, 1)) + np.outer(rng.standard_normal(d), rng.standard_normal(50))
    return np.repeat(rng.standard_normal((d, 8)), 5, axis=1)  # duplicate columns


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    shape=st.sampled_from(["clusters", "integers", "line", "duplicates"]),
    fraction=st.sampled_from([0.1, 0.2, 1 / 3, 0.5, 1.0]) | st.floats(0.01, 1.0),
    m=st.integers(3, 120),
)
def test_certified_answers_match_full_selection(seed, d, shape, fraction, m):
    # Certificates for every recurring set after 8 head rows, tested in blocks
    # of 16 rows: every answer, at every batch size and row order, must be
    # the full selection's, bit for bit.
    rng = np.random.default_rng(seed)
    A = _certificate_data(rng, shape, d)
    U = rng.standard_normal((m, d))
    if shape == "integers":
        U = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        U[~U.any(axis=1), 0] = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CERT_ROWS", dict.fromkeys(range(1, 6), 0))
        mp.setattr(oracles, "_HEAD_ROWS", 8)
        mp.setattr(oracles, "_CERT_BLOCK", 16)
        oracle = SubsetSmoothingOracle(A, fraction=fraction)
        X = oracle.query_batch(U)
        _assert_full_selection(oracle, A, U, X)
        for b in (3, m // 2, m - 1):
            assert np.array_equal(oracle.query_batch(U[:b]), X[:, :b])
        perm = rng.permutation(m)
        assert np.array_equal(oracle.query_batch(U[perm]), X[:, perm])


@pytest.mark.parametrize("case", ["line", "duplicates", "dim-1", "fraction-1", "small-set"])
def test_certificate_fallbacks_match_full_selection(case):
    # Each case certifies rows through a hull fallback (all of a side's
    # columns) or an empty complement, and answers as the full selection.
    rng = np.random.default_rng(31)
    d, fraction = 3, 0.25
    A = np.repeat(rng.standard_normal((3, 4)), 25, axis=1) + 1e-3 * rng.standard_normal((3, 100))
    if case == "line":
        A = _certificate_data(rng, "line", 3)
    elif case == "duplicates":
        A, fraction = np.repeat(rng.standard_normal((3, 6)), 4, axis=1), 4 / 24
    elif case == "dim-1":
        d, A = 1, rng.standard_normal((1, 50))
    elif case == "fraction-1":
        fraction = 1.0
    elif case == "small-set":
        fraction = 0.04  # 4 columns: at most dim + 1
    U = rng.standard_normal((300, d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CERT_ROWS", dict.fromkeys(range(1, 6), 0))
        oracle = SubsetSmoothingOracle(A, fraction=fraction)
        counts = _counting(oracle)
        X = oracle.query_batch(U)
    assert counts["hulls"] > 0 and counts["proved"] > 0
    _assert_full_selection(oracle, A, U, X)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.sampled_from([0.25, 0.3, 0.5, 0.55]))
def test_certified_answers_match_single_queries_on_near_ties(seed, fraction):
    # The near-tie construction in R^3, where 2000 rows make the cost rule
    # fire: 4 clusters of 80 columns equal up to a few ulps.  Whole clusters
    # are certified; a cut inside a cluster follows the last bits of the
    # scores and must fall to the full selection.
    rng = np.random.default_rng(seed)
    A = np.repeat(rng.standard_normal((3, 4)), 80, axis=1)
    A *= 1.0 + np.ldexp(rng.integers(-4, 5, A.shape), -52)
    oracle = SubsetSmoothingOracle(A, fraction=fraction)
    counts = _counting(oracle)
    U = rng.standard_normal((2000, 3))
    X = oracle.query_batch(U)
    for i, u in enumerate(U):
        assert np.array_equal(X[:, i], oracle.query(u))
    if fraction in (0.25, 0.5):
        assert counts["hulls"] > 0 and counts["proved"] > 0


def test_certificate_margin_covers_rounding_and_range():
    # One hull point per side, max|A| = 1: a row is proved only when its
    # gap exceeds (4*gamma_3 + 1e-9)*|u|_1, and never where |u|_1*max|A|
    # leaves [2^-900, 2^1000], where scores could underflow or overflow.
    oracle = SubsetSmoothingOracle(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), fraction=0.5)

    def certified(u0, c0):
        hulls = (np.zeros(3), np.array([[1.0, c0], [0.0, 0.0], [0.0, 0.0]]), np.array([0]))
        return oracle._proved(np.array([[u0, 0.0, 0.0]]), [hulls])[0] == 0

    assert not certified(1.0, 1.0 - 5e-10)
    assert certified(1.0, 1.0 - 2e-9)
    assert certified(1e-250, 0.0) and not certified(1e-280, 0.0)
    assert certified(1e300, 0.0) and not certified(1e302, 0.0)


def _kolp_probes(A, k, fraction, m, seed):
    oracle = SubsetSmoothingOracle(svd_project(A, k).projected, fraction)
    counts = _counting(oracle)
    return random_probes(oracle, m, seed=seed).answers.entries, counts


def test_certificates_answer_desk_rows_and_skip_wide_and_mixture_data():
    # kolp-desk's shape (k=3, n=5000, m=10^4) proves at least 90% of its
    # rows on hull points, with the answers of the full selection; without
    # hulls, rows are tested on the data's columns, with the same answers.
    # A kolp-wide shape (k=5, m=1000) builds no hull, and neither does an
    # overlapping two-Gaussian mixture at m=10^4, whose head rows each
    # select a new set.
    inst = gen_lkp(gen_well_separated_polytope(50, 3, 0.65, seed=41), 5000, 0.1, 4e-5, seed=42,
                   validate=False)
    X, counts = _kolp_probes(inst.A, 3, 0.1, 10_000, seed=43)
    assert counts["proved"] >= 9000
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CERT_ROWS", {})
        exact, none = _kolp_probes(inst.A, 3, 0.1, 10_000, seed=43)
    assert none["hulls"] == 0
    assert np.array_equal(X, exact)

    wide = gen_lkp(gen_well_separated_polytope(30, 5, 0.65, seed=44), 5000, 0.1, 3e-5, seed=45,
                   validate=False)
    assert _kolp_probes(wide.A, 5, 0.1, 1000, seed=46)[1]["hulls"] == 0
    mix = gen_two_gaussian_mixture(20, 10_000, v_norm=1.0, seed=47, validate=False)
    oracle = SubsetSmoothingOracle(svd_project(mix.A, 2).projected, mix.w0)
    U = oracles._unit_directions(np.random.default_rng(48), oracles._HEAD_ROWS, 2)
    assert len({oracle.top_indices(u).tobytes() for u in U}) == len(U)
    assert _kolp_probes(mix.A, 2, mix.w0, 10_000, seed=48)[1]["hulls"] == 0


def _score_check_data(rng, shape, d):
    if shape == "clusters":  # subset sizes of whole clusters recur
        centers = rng.uniform(-2.0, 2.0, (d, int(rng.integers(2, 6))))
        return np.repeat(centers, 20, axis=1) + 1e-3 * rng.uniform(-1.0, 1.0, (d, 20 * centers.shape[1]))
    if shape == "integers":  # many scores tie, also at the cut
        return rng.integers(-2, 3, size=(d, 60)).astype(np.float64)
    return np.repeat(rng.uniform(-2.0, 2.0, (d, 12)), 3, axis=1)  # duplicate columns


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    shape=st.sampled_from(["clusters", "integers", "duplicates"]),
    fraction=st.sampled_from([0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0]) | st.floats(0.01, 1.0),
    m=st.integers(9, 120),
    scale=st.sampled_from([1.0, 1e300, 1e-300]),
    certify=st.booleans(),
)
def test_score_checked_answers_match_full_selection(seed, d, shape, fraction, m, scale, certify):
    # Rows after 8 head rows guess one of the sets that recurred there and
    # keep it only when the margin test on its hull points (``certify``) or
    # on the data's columns proves it; duplicate columns that tie across the
    # cut, guesses of a set that is not the selection and rows whose scores
    # underflow must fall to the full selection, and rows near 2^1000 in
    # |u|_1*max|A| make no guess.  Every answer, at every batch size and row
    # order, must be the stable sorted prefix's mean.
    rng = np.random.default_rng(seed)
    A = _score_check_data(rng, shape, d)
    U = rng.standard_normal((m, d))
    if shape == "integers":
        U = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        U[~U.any(axis=1), 0] = 1.0
    U *= scale
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CERT_ROWS", dict.fromkeys(range(1, 6), 0) if certify else {})
        mp.setattr(oracles, "_HEAD_ROWS", 8)
        mp.setattr(oracles, "_CERT_BLOCK", 16)
        oracle = SubsetSmoothingOracle(A, fraction=fraction)
        X = oracle.query_batch(U)
        _assert_full_selection(oracle, A, U, X)
        for b in range(1, m):
            assert np.array_equal(oracle.query_batch(U[:b]), X[:, :b])
        perm = rng.permutation(m)
        assert np.array_equal(oracle.query_batch(U[perm]), X[:, perm])


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    levels=st.integers(1, 20),
    offset=st.sampled_from([0, 2**29, 2**30, 2**33]),
    size=st.integers(1, 40),
    true_guess=st.booleans(),
    top=st.sampled_from([-902, -901, -900, -899, 0, 999, 1000, 1001]),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_score_check_proves_only_the_selection_without_a_tie_at_the_cut(
    seed, n, levels, offset, size, true_guess, top, sign
):
    # The margin test on the data's columns: integer scores, many tied at
    # the cut, and a power-of-two row putting |u|_1*max|A| in [2^top,
    # 2^(top+1)), so every score is exact.  A guess is proved only when it
    # is the stable selection and no outside column scores within the
    # margin of min(S), and only inside [2^-900, 2^1000]; it is proved
    # whenever those hold with the margin 1% to spare.  The offset makes
    # the margin (about 1e-9*max|A|) span 0, 1 or several integer gaps.
    rng = np.random.default_rng(seed)
    size = min(size, n)
    oracle = SubsetSmoothingOracle(offset + rng.integers(-levels, levels + 1, size=(1, n)), fraction=size / n)
    assert oracle.subset_size == size
    A = oracle._data.entries
    u = np.array([[sign * 2.0 ** (top - math.frexp(oracle._max_abs)[1] + 1)]])
    scale = abs(u[0, 0]) * oracle._max_abs
    scores = u[0, 0] * A[0]
    best = stable_top_indices(scores, size)
    guess = best if true_guess else np.sort(rng.choice(n, size, replace=False))
    gap = scores[guess].min() - np.delete(scores, guess).max(initial=-np.inf)
    margin = oracle._margin * scale
    proved = oracle._proved(u, [(np.zeros(1), A, guess)])[0] == 0
    clear = 2.0**-900 <= scale <= 2.0**1000 and np.array_equal(guess, best)
    if proved:
        assert clear and gap > 0.99 * margin
    else:
        assert not (clear and gap > 1.01 * margin)


def test_duplicates_tying_across_the_cut_are_never_score_checked():
    # Each column appears 3 times and the subset size is not a multiple of
    # 3: the selection splits a group of equal scores at the cut, so no row
    # can prove its set, and every row takes the full selection.
    rng = np.random.default_rng(5)
    A = np.repeat(rng.standard_normal((3, 10)), 3, axis=1)
    U = rng.standard_normal((200, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_CERT_ROWS", {})
        oracle = SubsetSmoothingOracle(A, fraction=4 / 30)
        head = oracle._exact(U[: oracles._HEAD_ROWS], np.empty((3, oracles._HEAD_ROWS)), {})
        assert max(head.values()) >= 2  # the head's sets recur, so later rows guess
        counts = _counting(oracle)
        X = oracle.query_batch(U)
    assert counts == {"proved": 0, "hulls": 0}
    _assert_full_selection(oracle, A, U, X)


def test_score_check_skips_rows_whose_scores_could_overflow():
    # Past |u|_1*max|A| = 2^1000 a score could be NaN (inf - inf), which
    # np.partition ranks above every number and >= below it, so such rows
    # make no guess and are never proved, even when their scores happen to
    # be finite (here the head's direction times 2^1000).
    A = np.array([[1.0, 1.1, 1.2, 1.3, 1.4] + [-1.0] * 5 + [0.9], [0.5] * 5 + [-0.5] * 5 + [-0.9]])
    oracle = SubsetSmoothingOracle(A, fraction=5 / 11)
    U = np.ones((oracles._HEAD_ROWS + 6, 2))
    U[-1] *= 2.0**1000
    counts = _counting(oracle)
    X = oracle.query_batch(U)
    assert counts["proved"] == 5
    assert np.array_equal(X, np.repeat(A[:, :5].mean(axis=1, keepdims=True), U.shape[0], axis=1))


def test_score_check_answers_wide_rows_and_skips_the_mixture():
    # A kolp-wide shape (k=5, m=1000), whose head sets recur but build no
    # hull, proves at least 80% of its post-head rows on the data's
    # columns, with the answers of the full selection.  The overlapping
    # two-Gaussian mixture, whose head rows each select a new set, proves
    # no row.
    wide = gen_lkp(gen_well_separated_polytope(30, 5, 0.65, seed=44), 5000, 0.1, 3e-5, seed=45,
                   validate=False)
    X, counts = _kolp_probes(wide.A, 5, 0.1, 1000, seed=46)
    assert counts["hulls"] == 0
    assert counts["proved"] >= 0.8 * (1000 - oracles._HEAD_ROWS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles.SubsetSmoothingOracle, "_reusable", lambda self, counts, means, left: [])
        exact, none = _kolp_probes(wide.A, 5, 0.1, 1000, seed=46)
    assert none["proved"] == 0
    assert np.array_equal(X, exact)
    mix = gen_two_gaussian_mixture(20, 10_000, v_norm=1.0, seed=47, validate=False)
    assert _kolp_probes(mix.A, 2, mix.w0, 10_000, seed=48)[1]["proved"] == 0


def test_subset_smoothing_batch_errors_name_the_row():
    oracle = SubsetSmoothingOracle(np.eye(3), fraction=0.5)
    U = np.ones((30, 3))
    U[17, 1] = np.nan
    with pytest.raises(ValueError, match="direction 17 must be finite"):
        oracle.query_batch(U)
    U[17] = 0.0
    with pytest.raises(ValueError, match="direction 17 must be nonzero"):
        oracle.query_batch(U)
    with pytest.raises(ValueError, match="m x 3"):
        oracle.query_batch(np.ones((4, 2)))


def test_default_query_batch_matches_single_queries():
    rng = np.random.default_rng(13)
    K = VPolytope(rng.standard_normal((4, 7)))
    U = rng.standard_normal((50, 4))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for oracle in (exact_oracle(K), noisy_oracle(K, 0.05, seed=14)):
        X = oracle.query_batch(U)
        assert np.array_equal(X, np.column_stack([oracle.query(u) for u in U]))
        assert np.array_equal(OptOracle.query_batch(oracle, U), X)  # the base class's loop


def test_noisy_oracle_fallback_answer_meets_contract():
    # A perturbation that 8 halvings cannot bring inside the budget makes the
    # oracle fall back to the exact vertex, which passes the audit.
    rng = np.random.default_rng(15)
    K = VPolytope(rng.standard_normal((3, 5)))
    eps = 0.01
    oracle = noisy_oracle(K, eps, seed=16)
    oracle._perturbations = lambda U: -1e3 * eps * K.diameter() * U
    for _ in range(20):
        u = _unit(rng, 3)
        x = oracle.query(u)
        assert np.array_equal(x, exact_oracle(K).query(u))
        assert audit_answer(K, u, x, epsilon=eps, tol=1e-9).passed


def _unit_rows(rng, m, d):
    U = rng.standard_normal((m, d))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def _assert_batch_equals_queries(oracle, U, perturbation=single_query_perturbation):
    # Against single queries and against the per-query reference answer.
    X = oracle.query_batch(U)
    assert X.shape == (oracle.dim, len(U)) and X.dtype == np.float64
    assert X.tobytes() == np.column_stack([oracle.query(u) for u in U]).tobytes()
    assert X.tobytes() == np.column_stack([single_query_answer(oracle, u, perturbation) for u in U]).tobytes()
    return X


def _assert_same_failure(oracle, U):
    # The batch raises what the default row-by-row loop raises, naming the same row.
    with pytest.raises(Exception) as loop:
        OptOracle.query_batch(oracle, U)
    with pytest.raises(loop.type) as batch:
        oracle.query_batch(U)
    assert str(batch.value) == str(loop.value)
    assert type(batch.value.__cause__) is type(loop.value.__cause__)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    k=st.integers(1, 8),
    eps=st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0]),
    log_scale=st.floats(-3.0, 3.0),
    m=st.integers(1, 40),
    bad=st.sampled_from(["none", "norm", "nan", "width"]),
)
@example(seed=1, d=1, k=1, eps=0.3, log_scale=0.0, m=5, bad="none")
@example(seed=2, d=7, k=1, eps=1.0, log_scale=3.0, m=9, bad="none")
@example(seed=3, d=8, k=5, eps=0.0, log_scale=-3.0, m=9, bad="none")
@example(seed=4, d=2**14 + 1, k=3, eps=0.3, log_scale=0.0, m=9, bad="norm")  # blocks of 3 rows
def test_exact_and_noisy_batches_equal_single_queries(seed, d, k, eps, log_scale, m, bad):
    # Bit for bit, on odd and even d, a single vertex (diameter 0), eps = 0,
    # vertex scales 1e-3 to 1e3, prefixes and permutations of the rows, a
    # Fortran-ordered copy and rows split into blocks; an invalid batch fails
    # as the default loop does.
    rng = np.random.default_rng(seed)
    V = 10.0**log_scale * rng.standard_normal((d, k))
    if k > 1:  # a near-twin vertex: rounding decides the argmax between the two
        V[:, -1] = V[:, 0] * (1.0 + rng.choice([-1, 1], size=d) * 2.0**-52)
    K = VPolytope(V)
    U = _unit_rows(rng, m, d)
    perm = rng.permutation(m)
    for oracle in (ExactOracle(K), NoisyOracle(K, eps, seed=seed)):
        X = _assert_batch_equals_queries(oracle, U)
        assert oracle.query_batch(U[: m // 2 + 1]).tobytes() == X[:, : m // 2 + 1].tobytes()
        assert oracle.query_batch(U[perm]).tobytes() == X[:, perm].tobytes()
        assert oracle.query_batch(np.asfortranarray(U)).tobytes() == X.tobytes()
        if bad == "width":
            _assert_same_failure(oracle, U[:, :-1] if d > 1 else np.ones((m, 2)))
        elif bad != "none":
            V = U.copy()
            rows = np.sort(rng.choice(m + 1, size=2, replace=False))
            for i in rows[rows < m]:
                V[i] = V[i] * 1.5 if bad == "norm" else np.nan
            _assert_same_failure(oracle, V)


def test_noisy_batch_equals_single_queries_on_extreme_hash_words(monkeypatch):
    # Uniforms at both ends of (0, 1) from every hash word, through both paths.
    for byte in (0x00, 0xFF):

        class ExtremeHash:
            def __init__(self, data):
                pass

            def digest(self, n, byte=byte):
                return bytes([byte]) * n

        extreme = types.SimpleNamespace(shake_256=ExtremeHash)
        monkeypatch.setattr(oracles, "hashlib", extreme)
        monkeypatch.setattr(reference, "hashlib", extreme)
        rng = np.random.default_rng(byte)
        for d in (1, 2, 3, 10):
            K = VPolytope(rng.standard_normal((d, 4)))
            _assert_batch_equals_queries(noisy_oracle(K, 0.1, seed=0), _unit_rows(rng, 30, d))


def test_noisy_batch_halves_and_falls_back_like_single_queries(monkeypatch):
    # Scaling each row's perturbation by 2^j, j = 0..11 from the row's bits,
    # puts it j halvings from the budget: rows with j <= 7 answer after j of
    # the 8 re-checks, the others fall back to the exact vertex.  The hash path
    # alone cannot do this, since its radius stays below eps*diam*(1 - 1e-12).
    def power(u):
        return int(np.frombuffer(u.tobytes(), np.uint8).sum()) % 12

    batch = NoisyOracle._perturbations
    monkeypatch.setattr(
        NoisyOracle,
        "_perturbations",
        lambda self, U: batch(self, U) * 2.0 ** np.array([power(u) for u in U])[:, None],
    )
    rng = np.random.default_rng(17)
    K = VPolytope(rng.standard_normal((6, 5)))
    U = _unit_rows(rng, 300, 6)
    oracle = noisy_oracle(K, 0.05, seed=18)
    X = _assert_batch_equals_queries(
        oracle, U, lambda oracle, u: single_query_perturbation(oracle, u) * 2.0 ** power(u)
    )
    exact = exact_oracle(K).query_batch(U)
    fell_back = np.all(X == exact, axis=0)
    j = np.array([power(u) for u in U])
    assert fell_back[j >= 8].all() and not fell_back[j <= 7].any()
    for i in range(0, 300, 7):
        assert audit_answer(K, U[i], X[:, i], epsilon=0.05, tol=1e-9).passed


def test_subset_smoothing_lkp_audit():
    # data-backed oracle audits against the true polytope with
    # eps = 4*sigma0/(diam*sqrt(w0)) on 1000 random directions
    M = gen_well_separated_polytope(20, 3, 0.4, seed=6)
    inst = gen_lkp(M, 400, 0.2, noise_scale=0.05, seed=7)
    oracle = SubsetSmoothingOracle(inst.A, fraction=inst.w0)
    delta_k = inst.M.diameter()
    eps = 4.0 * inst.sigma0 / (delta_k * math.sqrt(inst.w0))
    rng = np.random.default_rng(8)
    for _ in range(1000):
        u = _unit(rng, 20)
        audit = audit_answer(inst.M, u, oracle.query(u), epsilon=eps, tol=1e-9)
        assert audit.passed


def test_needle_oracle_zero_answers_and_log():
    oracle = needle_oracle(50)
    rng = np.random.default_rng(9)
    for _ in range(100):
        assert not np.any(oracle.query(_unit(rng, 50)))
    assert oracle.query_count == 100
    assert oracle.queries.shape == (100, 50)


def test_needle_oracle_dim_floor():
    with pytest.raises(ValueError):
        needle_oracle(3)


# Zeros, values that underflow or overflow float32, non-finite values and a
# float32 rounding tie (1 + 2^-24).
_LOG_SPECIALS = np.array(
    [0.0, -0.0, 1e-310, -1e-45, 3.5e38, -1e300, np.inf, -np.inf, np.nan, 1.0 + 2.0**-24]
)


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(4, 9),
    steps=st.lists(
        st.tuples(st.sampled_from(["float64", "float32", "row", "bad", "read"]), st.integers(1, 1500)),
        min_size=3,
        max_size=12,
    ),
)
def test_needle_log_matches_list_reference(seed, d, steps):
    # Queries of every accepted form, across at least three doublings of the
    # log, give snapshots equal bit for bit to the stacked list log, from the
    # empty (0, d) log on; a wrong-dimension query logs nothing.
    rng = np.random.default_rng(seed)
    oracle, ref = needle_oracle(d), ListNeedleLog(d)
    start = oracles._NEEDLE_LOG_ROWS
    total = sum(n for kind, n in steps if kind in ("float64", "float32", "row"))
    steps = steps + [("float64", max(1, 4 * start + 1 - total)), ("read", 1)]
    snapshots = []
    with np.errstate(all="ignore"):
        for kind, n in [("read", 1)] + steps:
            if kind == "read":
                snap = oracle.queries
                assert snap.dtype == np.float32 and snap.shape == (ref.queries.shape[0], d)
                assert snap.tobytes() == ref.queries.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    snap[...] = 0.0
                assert snap.size == 0 or np.shares_memory(snap, oracle.queries)  # reading copies nothing
                snapshots.append((snap, snap.tobytes()))
                continue
            if kind == "bad":
                for log in (oracle, ref):
                    with pytest.raises(ValueError, match=f"query dim {d + 1} != oracle dim {d}"):
                        log.query(np.ones(d + 1))
                assert oracle.query_count == len(ref.queries)
                continue
            rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-40, 40, size=(n, 1))
            special = rng.random((n, d)) < 0.02
            rows[special] = rng.choice(_LOG_SPECIALS, int(special.sum()))
            if kind == "float32":
                rows = rows.astype(np.float32)
                bits = rows.view(np.uint32)
                bits[rng.random((n, d)) < 0.005] = 0x7F800001  # a signalling NaN
            for u in rows:
                u = u.reshape(1, -1) if kind == "row" else u
                oracle.query(u)
                ref.query(u)
            assert oracle.query_count == len(ref.queries)
    assert oracle.query_count > 4 * start
    for snap, saved in snapshots:
        assert snap.tobytes() == saved


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(4, 9),
    steps=st.lists(
        st.tuples(st.sampled_from(["query", "batch", "float32", "bad", "read"]), st.integers(0, 2500)),
        min_size=3,
        max_size=10,
    ),
)
def test_needle_batches_match_list_reference(seed, d, steps):
    # Mixed query and query_batch calls, blocks that cross one or more
    # doublings at once, float32 blocks with signalling NaNs and wrong-width
    # blocks: every snapshot equals the stacked list log bit for bit, and the
    # buffer is the least doubling of 1024 rows that holds the log.
    rng = np.random.default_rng(seed)
    oracle, ref = needle_oracle(d), ListNeedleLog(d)
    start = oracles._NEEDLE_LOG_ROWS
    total = sum(n for kind, n in steps if kind in ("query", "batch", "float32"))
    steps = steps + [("batch", max(0, 4 * start + 1 - total)), ("read", 1)]
    snapshots = []
    with np.errstate(all="ignore"):
        for kind, n in steps:
            if kind == "read":
                snap = oracle.queries
                assert snap.tobytes() == ref.queries.tobytes() and snap.shape == (len(ref.queries), d)
                snapshots.append((snap, snap.tobytes()))
                continue
            if kind == "bad":
                with pytest.raises(ValueError, match=f"m x {d} array"):
                    oracle.query_batch(np.ones((n, d + 1)))
                assert oracle.query_count == len(ref.queries)
                continue
            rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-40, 40, size=(n, 1))
            special = rng.random((n, d)) < 0.02
            rows[special] = rng.choice(_LOG_SPECIALS, int(special.sum()))
            if kind == "float32":
                rows = rows.astype(np.float32)
                rows.view(np.uint32)[rng.random((n, d)) < 0.005] = 0x7F800001  # a signalling NaN
            if kind == "query":
                for u in rows:
                    assert not oracle.query(u).any()
            else:
                answers = oracle.query_batch(rows)
                assert answers.shape == (d, n) and not answers.any()
            for u in rows:
                ref.query(u)
            assert oracle.query_count == len(ref.queries)
            assert len(oracle._log) == start * 2 ** max(0, math.ceil(math.log2(max(1, oracle.query_count) / start)))
    assert oracle.query_count > 4 * start
    for snap, saved in snapshots:
        assert snap.tobytes() == saved


def _can_remap() -> bool:
    buf = mmap.mmap(-1, mmap.PAGESIZE, **oracles._LOG_MAP_FLAGS)
    try:
        buf.resize(2 * mmap.PAGESIZE)
    except (SystemError, OSError):
        return False
    return True


# Whether the needle log can grow in place here: not without mremap (macOS).
_CAN_REMAP = _can_remap()


class _NoRemap(mmap.mmap):
    """A map whose resize fails as on a platform without mremap."""

    def resize(self, newsize):
        raise SystemError("mmap: resizing not available--no mremap()")


def _needle_rows(rng, n, d, dtype):
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-40, 40, size=(n, 1))
    special = rng.random((n, d)) < 0.02
    rows[special] = rng.choice(_LOG_SPECIALS, int(special.sum()))
    if dtype == "float32":
        rows = rows.astype(np.float32)
        rows.view(np.uint32)[rng.random((n, d)) < 0.005] = 0x7F800001  # a signalling NaN
    return rows


def test_needle_log_grows_in_place_without_views():
    # With no view alive, five doublings keep the one map, and the rows
    # written before each resize are still there after it.
    rng = np.random.default_rng(3)
    d, start = 7, oracles._NEEDLE_LOG_ROWS
    oracle, ref = needle_oracle(d), ListNeedleLog(d)
    buf = oracle._buf
    with np.errstate(all="ignore"):
        steps = ((start, "float64"), (start + 5, "float32"), (6 * start, "float64"), (23 * start, "float32"))
        for n, dtype in steps:
            rows = _needle_rows(rng, n, d, dtype)
            oracle.query_batch(rows)
            for u in rows:
                ref.query(u)
        for u in _needle_rows(rng, 3, d, "float32"):
            oracle.query(u)
            ref.query(u)
    assert len(oracle._log) == 32 * start and oracle.query_count == 31 * start + 8
    assert (oracle._buf is buf) == _CAN_REMAP
    assert oracle.queries.tobytes() == ref.queries.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_needle_copy_path_matches_list_reference(monkeypatch, seed):
    # Where maps cannot be resized, every growth copies the rows into a new
    # map; the log still equals the list log bit for bit, float32 input and
    # signalling NaNs included, and views taken before stay snapshots.
    monkeypatch.setattr(oracles, "mmap", types.SimpleNamespace(mmap=_NoRemap))
    rng = np.random.default_rng(seed)
    d, start = 5 + seed, oracles._NEEDLE_LOG_ROWS
    oracle, ref = needle_oracle(d), ListNeedleLog(d)
    snapshots = []
    with np.errstate(all="ignore"):
        steps = ((900, "float32", False), (1500, "float64", True), (3000, "float32", True),
                 (2, "float64", False), (4000, "float32", False))
        for n, dtype, batch in steps:
            buf, size = oracle._buf, len(oracle._log)
            rows = _needle_rows(rng, n, d, dtype)
            if batch:
                oracle.query_batch(rows)
            else:
                for u in rows:
                    oracle.query(u)
            for u in rows:
                ref.query(u)
            assert (oracle._buf is buf) == (len(oracle._log) == size)
            snap = oracle.queries
            assert snap.tobytes() == ref.queries.tobytes()
            snapshots.append((snap, snap.tobytes()))
    assert len(oracle._log) == 16 * start
    for snap, saved in snapshots:
        assert snap.tobytes() == saved


def test_needle_view_across_growth_is_snapshot():
    # A view held across a growth keeps its rows (the log moves to a copy);
    # once it is dropped, the next growth is in place again.
    d, start = 6, oracles._NEEDLE_LOG_ROWS
    oracle = needle_oracle(d)
    rows = np.random.default_rng(4).standard_normal((4 * start, d))
    oracle.query_batch(rows[:start])
    view = oracle.queries
    buf = oracle._buf
    oracle.query_batch(rows[start : start + 1])
    assert oracle._buf is not buf and len(oracle._log) == 2 * start
    assert not np.shares_memory(view, oracle.queries)
    assert view.tobytes() == rows[:start].astype(np.float32).tobytes()
    del view
    buf = oracle._buf
    oracle.query_batch(rows[start + 1 :])
    assert len(oracle._log) == 4 * start
    assert (oracle._buf is buf) == _CAN_REMAP
    assert oracle.queries.tobytes() == rows.astype(np.float32).tobytes()


def test_needle_log_survives_failed_growth(monkeypatch):
    # If the map can neither be resized (a view is alive) nor replaced, the
    # query raises, logs nothing, and the log keeps working afterwards.
    d, start = 5, oracles._NEEDLE_LOG_ROWS
    oracle = needle_oracle(d)
    rows = np.random.default_rng(5).standard_normal((start + 1, d))
    oracle.query_batch(rows[:start])
    view = oracle.queries

    def no_memory(*args, **kwargs):
        raise OSError("Cannot allocate memory")

    monkeypatch.setattr(oracles, "mmap", types.SimpleNamespace(mmap=no_memory))
    with pytest.raises(OSError, match="allocate"):
        oracle.query(rows[start])
    assert oracle.query_count == start and len(oracle._log) == start
    assert np.shares_memory(view, oracle.queries)
    monkeypatch.undo()
    oracle.query(rows[start])
    assert oracle.queries.tobytes() == rows.astype(np.float32).tobytes()


def test_needle_consistency_small():
    d = 64
    oracle = needle_oracle(d)
    rng = np.random.default_rng(10)
    for _ in range(500):
        oracle.query(_unit(rng, d))
    log = oracle.queries
    needles = find_consistent_needles(log, d, count=2, seed=11)
    threshold = 4.0 * math.log(d) / math.sqrt(d)
    eps = 8.0 * math.log(d) / math.sqrt(d)
    for u in needles:
        assert float(np.abs(log.astype(np.float64) @ u).max()) <= threshold
        K = VPolytope(np.column_stack([-u, u]))
        for i in range(0, 500, 50):
            audit = audit_answer(K, log[i].astype(np.float64), np.zeros(d), epsilon=eps)
            assert audit.passed
    assert np.linalg.norm(needles[0] - needles[1]) >= 0.1
    assert np.linalg.norm(needles[0] + needles[1]) >= 0.1


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 12),
    rows=st.integers(0, 10),
    scale=st.floats(0.2, 1.5),
    count=st.integers(1, 4),
    single=st.booleans(),
)
def test_needles_match_pairwise_norm_search(seed, d, rows, scale, count, single):
    # A row's product with a random unit u is about N(0, (scale*4 ln(d)/sqrt(d))^2),
    # so the threshold rejects a good share of candidates; in d = 2 the 0.1
    # separation rejects often too.
    rng = np.random.default_rng(seed)
    log = scale * 4.0 * math.log(d) / math.sqrt(d) * rng.standard_normal((rows, d))
    if single:
        log = log.astype(np.float32)
    needles = find_consistent_needles(log, d, count=count, seed=seed)
    assert needles.shape == (count, d)
    assert np.array_equal(needles, pairwise_norm_needles(log, d, count, seed))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_needle_scan_skips_only_logs_that_cannot_reject(dtype):
    # Unit rows, and rows just inside the threshold, can reject no candidate,
    # so skipping the scan from the third candidate on keeps the needles of
    # an empty log; rows scaled to 1.5 times the threshold make the scan
    # reject candidates, so the needles move.  All equal the reference search.
    d = 16
    threshold = 4.0 * math.log(d) / math.sqrt(d)
    rows = _unit_rows(np.random.default_rng(19), 300, d)
    empty = find_consistent_needles(np.zeros((0, d)), d, count=5, seed=20)
    for scale, moved in ((1.0, False), (threshold * (1 - 1e-5), False), (1.5 * threshold, True)):
        log = (scale * rows).astype(dtype)
        assert oracles._log_can_reject(log, d, threshold) == moved
        needles = find_consistent_needles(log, d, count=5, seed=20)
        assert np.array_equal(needles, pairwise_norm_needles(log, d, 5, 20))
        assert np.array_equal(needles, empty) != moved
        assert float(np.abs(log.astype(np.float64) @ needles.T).max()) <= threshold


def test_needle_search_rejects_malformed_logs():
    for log in (np.ones(5), np.ones((2, 5, 5)), np.ones((3, 4))):
        with pytest.raises(ValueError, match=re.escape(f"m x 5 array, got shape {log.shape}")):
            find_consistent_needles(log, 5)
    for bad in (np.nan, np.inf):
        for dtype in (np.float64, np.float32):
            log = np.zeros((10, 5), dtype=dtype)
            log[3, 2] = bad
            with pytest.raises(ValueError, match="non-finite score"):
                find_consistent_needles(log, 5, seed=1)
    for empty in (np.zeros((0, 5)), np.zeros(0), np.zeros((0, 5), dtype=np.float32)):
        assert find_consistent_needles(empty, 5, count=2, seed=3).shape == (2, 5)


def test_needle_answers_valid_for_any_direction_below_half_budget():
    # any needle direction u with max |u.v_i| <= eps*diam/2 keeps answer 0 valid
    d = 100
    eps = 8.0 * math.log(d) / math.sqrt(d)
    rng = np.random.default_rng(12)
    V = rng.standard_normal((20, d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    for _ in range(10):
        u = _unit(rng, d)
        if float(np.abs(V @ u).max()) <= eps * 2.0 / 2.0:
            K = VPolytope(np.column_stack([-u, u]))
            for v in V:
                assert audit_answer(K, v, np.zeros(d), epsilon=eps).passed


def test_audit_detects_violations():
    K = segment()
    eps = 0.01
    u = np.array([1.0, 0.0])
    vertex = np.array([1.0, 0.0])
    # outward offset of 2*eps*diam breaks containment
    bad_far = vertex + np.array([2.0 * eps * K.diameter(), 0.0])
    audit = audit_answer(K, u, bad_far, epsilon=eps, tol=1e-9)
    assert not audit.passed and audit.containment_slack > 1e-9
    # second-best vertex with gap > eps*diam breaks optimality
    second = np.array([0.0, 0.0])
    audit2 = audit_answer(K, u, second, epsilon=eps, tol=1e-9)
    assert not audit2.passed and audit2.optimality_slack < -1e-9
    # gap here is exactly 1 - eps*diam
    assert audit2.optimality_slack == pytest.approx(-(1.0 - eps), abs=1e-12)


def test_audit_dimension_mismatch():
    with pytest.raises(ValueError):
        audit_answer(segment(), np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.1)
