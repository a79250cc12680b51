import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from polylearn import (
    VPolytope,
    SeparationVerdict,
    estimate_rsh_probability,
    exact_oracle,
    example1_segment,
    example2_sphere,
    margin,
    margin_threshold_factor,
    noisy_oracle,
    normalized_margin_samples,
    recommended_query_budget,
    rsh_lower_bound,
    separate_via_opt,
)
from polylearn import rsh
from polylearn.rsh import _normalized_margins, _span_coordinates
from reference import full_dimensional_margin_samples, per_query_separation, row_max_margins


def test_margin_vertex_never_positive():
    K = VPolytope(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(2)
        assert margin(u, K.vertices.column(0), K) <= 1e-12


def test_margin_point_vs_singleton():
    K = VPolytope(np.array([[0.0], [0.0]]))
    assert margin(np.array([1.0, 0.0]), np.array([1.0, 0.0]), K) == pytest.approx(1.0)


def test_margin_matches_vertex_scan():
    rng = np.random.default_rng(1)
    K = VPolytope(rng.standard_normal((3, 7)))
    for _ in range(30):
        u = rng.standard_normal(3)
        a = rng.standard_normal(3)
        expect = float(u @ a - max(u @ K.vertices.entries[:, j] for j in range(7)))
        assert margin(u, a, K) == pytest.approx(expect, abs=1e-12)


def test_margin_rejects_zero_direction():
    K = example1_segment(4)
    with pytest.raises(ValueError):
        margin(np.zeros(4), np.ones(4), K)


def test_threshold_factor_arithmetic():
    # k=2, delta=1, m=50: sqrt(ln 2)/(sqrt(ln 2) + 4*sqrt(50))
    expect = math.sqrt(math.log(2.0)) / (math.sqrt(math.log(2.0)) + 4.0 * math.sqrt(50.0))
    assert margin_threshold_factor(2, 1.0, 50) == pytest.approx(expect, abs=1e-15)
    assert margin_threshold_factor(2, 1.0, 50) == pytest.approx(0.0285936, abs=1e-6)
    assert margin_threshold_factor(1, 0.5, 10) == 0.0


def test_lower_bound_value():
    assert rsh_lower_bound(2, 1.0) == pytest.approx(2.44140625e-5, rel=1e-12)
    assert rsh_lower_bound(1, 0.3) == pytest.approx(0.025)


def test_estimate_on_segment_beats_bound():
    K = example1_segment(50)
    a = np.zeros(50)
    a[1] = 1.0
    est = estimate_rsh_probability(K, a, delta=1.0, m=50, trials=100_000, seed=7)
    assert est.successes > 0
    assert est.empirical_probability >= est.theoretical_lower_bound
    assert est.wilson_lower <= est.empirical_probability <= est.wilson_upper
    assert est.margin_threshold_factor == pytest.approx(0.0285936, abs=1e-6)


def test_estimate_rejects_near_point():
    K = example1_segment(20)
    a = np.zeros(20)
    a[1] = 0.5  # only delta = 0.5 away, request delta = 1
    with pytest.raises(ValueError, match="too close"):
        estimate_rsh_probability(K, a, delta=1.0, m=20, trials=10, seed=0)


def test_estimate_negative_control_inside_softened():
    # a inside K + (delta/2)*diam*B must be rejected at delta
    K = example1_segment(10)
    a = np.zeros(10)
    a[1] = 0.4
    with pytest.raises(ValueError):
        estimate_rsh_probability(K, a, delta=0.8, m=10, trials=10, seed=0)


def test_estimate_requires_m_at_least_span():
    K = example1_segment(10)
    a = np.zeros(10)
    a[1] = 1.0
    with pytest.raises(ValueError):
        estimate_rsh_probability(K, a, delta=1.0, m=1, trials=10, seed=0)


def test_subspace_dim_must_be_positive():
    # A zero-dimensional subspace has only u = 0, for which |u| normalises nothing.
    K = VPolytope(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="positive"):
        estimate_rsh_probability(K, np.zeros(3), delta=0.5, m=0, trials=10, seed=0)
    with pytest.raises(ValueError, match="positive"):
        normalized_margin_samples(K, np.zeros(3), m=0, trials=10, seed=0)


def test_event_scale_invariance():
    # the margin event is invariant under positive rescaling of u
    K = example1_segment(8)
    a = np.zeros(8)
    a[1] = 1.0
    rng = np.random.default_rng(3)
    thr = 1.0 * 1.0 * margin_threshold_factor(2, 1.0, 8)
    for _ in range(200):
        u = rng.standard_normal(8)
        for c in (1.0, 0.01, 173.0):
            v = c * u
            event = margin(v, a, K) >= np.linalg.norm(v) * thr
            if c == 1.0:
                base = event
            assert event == base


def test_estimate_deterministic():
    K = example1_segment(12)
    a = np.zeros(12)
    a[1] = 1.0
    e1 = estimate_rsh_probability(K, a, 1.0, 12, 20_000, seed=42)
    e2 = estimate_rsh_probability(K, a, 1.0, 12, 20_000, seed=42)
    assert e1.successes == e2.successes


def test_sphere_probability_decreases_with_k():
    # discretized cross-section sphere at fixed delta: harder as k grows
    probs = []
    for k in (4, 16):
        K = example2_sphere(k, 8)
        a = np.zeros(8)
        a[0] = 1.0
        est = estimate_rsh_probability(K, a, delta=0.5, m=8, trials=60_000, seed=5)
        probs.append(est.empirical_probability)
    assert probs[0] > probs[1] > 0


def test_normalized_margins_shrink_with_subspace_dim():
    quantiles = []
    for m in (10, 90):
        K = example1_segment(m)
        a = np.zeros(m)
        a[1] = 1.0
        s = normalized_margin_samples(K, a, m, trials=40_000, seed=9)
        quantiles.append(float(np.quantile(s, 0.9)))
    ratio = quantiles[0] / quantiles[1]
    assert ratio == pytest.approx(3.0, rel=0.25)  # sqrt(90/10) = 3


class _Replay:
    """Stands in for a Generator: hands out the split of one full draw G."""

    def __init__(self, G, r):
        self.G, self.r = G, r

    def standard_normal(self, shape):
        assert shape == (self.G.shape[0], self.r)
        return self.G[:, : self.r]

    def chisquare(self, df, size):
        assert df == self.G.shape[1] - self.r > 0 and size == self.G.shape[0]
        return np.sum(self.G[:, self.r :] ** 2, axis=1)


@pytest.mark.parametrize("m", [5, 9])
def test_span_draw_reproduces_full_draw(m):
    # One m-dim Gaussian draw in a padded basis of span(K u {a}): its r span
    # coordinates plus the tail's squared norm give the full margins and norms.
    rng = np.random.default_rng(21)
    d, r = 12, 5
    V, a = rng.standard_normal((d, r - 1)), rng.standard_normal(d)
    proj_a, proj_v = _span_coordinates(VPolytope(V), a, m)
    assert proj_a.shape == (r,) and proj_v.shape == (r, r - 1)
    raw, coords = np.column_stack([V, a]), np.column_stack([proj_v, proj_a])
    B = raw @ np.linalg.pinv(coords)
    assert np.allclose(B.T @ B, np.eye(r), atol=1e-12)
    assert np.allclose(B @ coords, raw, atol=1e-12)
    pad = rng.standard_normal((d, m - r))
    basis = np.column_stack([B, np.linalg.qr(pad - B @ (B.T @ pad))[0]])
    G = rng.standard_normal((2000, m))
    U = G @ basis.T
    full_margins = U @ a - np.max(U @ V, axis=1)
    full_norms = np.linalg.norm(U, axis=1)
    span = G[:, :r]
    margins = span @ proj_a - np.max(span @ proj_v, axis=1)
    norms = np.sqrt(np.sum(span**2, axis=1) + np.sum(G[:, r:] ** 2, axis=1))
    assert np.allclose(margins, full_margins, rtol=0, atol=1e-12)
    assert np.allclose(norms, full_norms, rtol=1e-14, atol=0)
    sampled = _normalized_margins(proj_a, proj_v, m, 2000, _Replay(G, r))
    assert np.allclose(sampled, full_margins / full_norms, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 8),
    k=st.integers(1, 23),
    extra=st.integers(0, 5),
    size=st.integers(1, 3000),
    log_scale=st.floats(-3.0, 3.0),
)
def test_normalized_margins_equal_row_max_bits(seed, r, k, extra, size, log_scale):
    # The column max of proj_v^T G^T gives the same bits as the row max of
    # G proj_v, for any span rank, vertex count, subspace excess and scale.
    rng = np.random.default_rng(seed)
    proj_a = rng.standard_normal(r) * 10.0**log_scale
    proj_v = rng.standard_normal((r, k)) * 10.0**log_scale
    got = _normalized_margins(proj_a, proj_v, r + extra, size, np.random.default_rng(seed))
    want = row_max_margins(proj_a, proj_v, r + extra, size, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "case, delta, seed",
    [("segment", 1.0, 5), ("sphere", 0.5, 6)],
)
def test_estimate_successes_equal_row_max_kernel(monkeypatch, case, delta, seed):
    # The separation benchmark's two estimates count the same successes with
    # either vertex-maximum kernel, over several sampling blocks.
    K, a, m = _segment_case(50) if case == "segment" else _sphere_case()
    trials = 3 * rsh._BLOCK + 17
    est = estimate_rsh_probability(K, a, delta=delta, m=m, trials=trials, seed=seed)
    monkeypatch.setattr(rsh, "_normalized_margins", row_max_margins)
    ref = estimate_rsh_probability(K, a, delta=delta, m=m, trials=trials, seed=seed)
    assert 0 < est.successes < trials
    assert est.successes == ref.successes


def _segment_case(m):
    a = np.zeros(m)
    a[1] = 1.0
    return example1_segment(m), a, m


def _sphere_case():
    a = np.zeros(8)
    a[0] = 1.0
    return example2_sphere(16, 8), a, 8


@pytest.mark.parametrize(
    "K, a, m",
    [_segment_case(50), _sphere_case(), _segment_case(2)],
    ids=["segment-r2-m50", "sphere-r3-m8", "segment-r2-m2"],
)
def test_normalized_margins_match_full_dimensional_sampler(K, a, m):
    # Six two-sample KS tests at 200k samples each; 1e-3 per test keeps the
    # family's false-alarm rate under 1%.  Dropping the chi-square fails the
    # m > r cases; moving it by one degree of freedom fails the sphere.
    for seed in (0, 1):
        reduced = normalized_margin_samples(K, a, m, trials=200_000, seed=seed)
        full = full_dimensional_margin_samples(K.vertices.entries, a, m, 200_000, seed + 1000)
        assert ks_2samp(reduced, full).pvalue > 1e-3


def test_separate_vertex_stays_inside():
    K = example1_segment(10)
    oracle = exact_oracle(K)
    res = separate_via_opt(K.vertices.column(1), oracle, 0.5, 10, 2000, seed=1)
    assert res.verdict is SeparationVerdict.INSIDE_SOFTENED
    assert res.separator is None and res.margin is None
    assert res.queries_used == 2000


def test_separate_far_point_and_verify_margin():
    K = example1_segment(10)
    oracle = exact_oracle(K)
    a = np.zeros(10)
    a[1] = 0.5
    res = separate_via_opt(a, oracle, 0.5, 10, 100_000, seed=2)
    assert res.verdict is SeparationVerdict.SEPARATED
    true_margin = margin(res.separator, a, K)
    assert true_margin > 0
    assert true_margin >= 0.5 * 1.0 / (20.0 * math.sqrt(10))
    assert np.linalg.norm(res.separator) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [float("nan"), 0.0, -1.0, 1.5, float("inf")])
def test_separate_rejects_delta_outside_unit_interval_before_querying(delta):
    oracle = exact_oracle(example1_segment(10))
    with mock.patch.object(oracle, "query", side_effect=AssertionError("queried")):
        with pytest.raises(ValueError, match=re.escape(f"delta must lie in (0, 1], got {delta}")):
            separate_via_opt(np.zeros(10), oracle, delta, 10, 10, seed=1)


def test_separate_warns_on_weak_oracle():
    K = example1_segment(10)
    weak = noisy_oracle(K, 0.5, seed=3)
    a = np.zeros(10)
    a[1] = 0.9
    with pytest.warns(RuntimeWarning, match="exceeds"):
        separate_via_opt(a, weak, 0.5, 10, 10, seed=4)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    k=st.integers(1, 5),
    offset=st.floats(0.0, 1.0),
    delta=st.floats(0.1, 1.0),
    num_queries=st.integers(1, 2500),
    noisy=st.booleans(),
    block=st.sampled_from([1, 3, 64, rsh._QUERY_BLOCK]),
)
def test_separation_matches_per_query_draws(seed, d, k, offset, delta, num_queries, noisy, block):
    # Block draws of any size consume the per-query stream, but the norm
    # along axis 1 and the 1-D norm can differ in the last bit, so a separator
    # may move by an ulp; the noisy oracle then perturbs by another eps*diam
    # at most.
    rng = np.random.default_rng(seed)
    K = VPolytope(rng.standard_normal((d, k)))
    a = K.vertices.entries.mean(axis=1) + offset * rng.standard_normal(d)
    eps = 1e-9 if noisy else 0.0
    oracle = noisy_oracle(K, eps, seed=seed) if noisy else exact_oracle(K)
    with mock.patch.object(rsh, "_QUERY_BLOCK", block):
        res = separate_via_opt(a, oracle, delta, d, num_queries, seed=seed)
    u, observed, used = per_query_separation(a, oracle, delta, d, num_queries, seed)
    assert res.queries_used == used
    assert (res.verdict is SeparationVerdict.SEPARATED) == (u is not None)
    if u is not None:
        assert np.max(np.abs(res.separator - u)) <= 1e-15
        scale = np.abs(a).sum() + np.abs(K.vertices.entries).sum(axis=0).max()
        assert abs(res.margin - observed) <= 2.0 * eps * oracle.reference_diameter + 1e-14 * scale


def test_query_budget_formula():
    assert recommended_query_budget(1, 1.0) == math.ceil(40 * math.log(100.0))
    assert recommended_query_budget(2, 0.1) == 10**6  # capped
    assert recommended_query_budget(2, 1.0) == math.ceil(40 * 2**10 * math.log(100.0))
