import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylearn import (
    VPolytope,
    audit_answer,
    dist_to_hull,
    exact_oracle,
    find_consistent_needles,
    gen_lkp,
    gen_well_separated_polytope,
    needle_oracle,
    noisy_oracle,
    subset_smoothing_oracle,
)
from reference import stable_top_indices


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
    oracle = exact_oracle(segment())
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


def test_noisy_oracle_epsilon_range():
    with pytest.raises(ValueError):
        noisy_oracle(segment(), 1.5, seed=0)


def test_subset_smoothing_top1_and_full_mean():
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    oracle = subset_smoothing_oracle(A, fraction=0.5)
    u = np.array([1.0, 0.0])
    assert np.allclose(oracle.query(u), [2.0, 0.0])
    full = subset_smoothing_oracle(A, fraction=1.0)
    for direction in ([1.0, 0.0], [0.0, 1.0], [-0.7, 0.2]):
        assert np.allclose(full.query(np.array(direction)), A.mean(axis=1))


def test_subset_smoothing_tie_break_lowest_index():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    oracle = subset_smoothing_oracle(A, fraction=1 / 3)
    # columns 0 and 1 tie on u; stable order keeps column 0
    assert np.allclose(oracle.query(np.array([1.0, 0.0])), [1.0, 0.0])


def test_subset_smoothing_scale_equivariance():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 40))
    oracle = subset_smoothing_oracle(A, fraction=0.2)
    for _ in range(20):
        u = rng.standard_normal(3)
        assert np.array_equal(oracle.query(u), oracle.query(3.7 * u))


def test_subset_smoothing_answer_in_hull():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 30))
    oracle = subset_smoothing_oracle(A, fraction=0.25)
    for _ in range(10):
        u = _unit(rng, 3)
        d, _ = dist_to_hull(oracle.query(u), A, tol=1e-8)
        assert d <= 1e-7


def test_subset_smoothing_rejects_non_finite_direction():
    oracle = subset_smoothing_oracle(np.eye(3), fraction=0.5)
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
    oracle = subset_smoothing_oracle(A, fraction=fraction)
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
        oracle = subset_smoothing_oracle(scores[None, :], fraction=size / scores.size)
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
    oracle = subset_smoothing_oracle(A, fraction=1.0 / k)
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
    oracle = subset_smoothing_oracle(A, fraction=fraction)
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
    oracle = subset_smoothing_oracle(A, fraction=fraction)
    U = rng.standard_normal((60, d))
    X = oracle.query_batch(U)
    for i, u in enumerate(U):
        assert np.array_equal(X[:, i], oracle.query(u))


def test_subset_smoothing_batch_errors_name_the_row():
    oracle = subset_smoothing_oracle(np.eye(3), fraction=0.5)
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


def test_noisy_oracle_fallback_answer_meets_contract():
    # A perturbation that 8 halvings cannot bring inside the budget makes the
    # oracle fall back to the exact vertex, which passes the audit.
    rng = np.random.default_rng(15)
    K = VPolytope(rng.standard_normal((3, 5)))
    eps = 0.01
    oracle = noisy_oracle(K, eps, seed=16)
    oracle._perturbation = lambda u: -1e3 * eps * K.diameter() * u
    for _ in range(20):
        u = _unit(rng, 3)
        x = oracle.query(u)
        assert np.array_equal(x, exact_oracle(K).query(u))
        assert audit_answer(K, u, x, epsilon=eps, tol=1e-9).passed


def test_subset_smoothing_lkp_audit():
    # data-backed oracle audits against the true polytope with
    # eps = 4*sigma0/(diam*sqrt(w0)) on 1000 random directions
    M = gen_well_separated_polytope(20, 3, 0.4, seed=6)
    inst = gen_lkp(M, 400, 0.2, noise_scale=0.05, seed=7)
    oracle = subset_smoothing_oracle(inst.A, fraction=inst.w0)
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
