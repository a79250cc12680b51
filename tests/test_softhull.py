import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylearn import (
    EnvelopeParams,
    PointMatrix,
    diameter,
    find_soft_envelope,
    fixtures,
    hull_membership,
    in_soft_hull,
    is_env,
    is_eps_delta_env,
    softhull,
)

from reference import naive_envelope, stepwise_envelope
from test_acceptance import _random_cluster_instance


def spec_params():
    # the fixture parameters used throughout: outside the guaranteed (*) range,
    # so envelope calls warn and proceed
    return EnvelopeParams(epsilon=0.02, delta=0.5, epsilon3=0.08)


def tight_cluster_pair(radius: float) -> PointMatrix:
    star = np.array([[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]) * radius
    return PointMatrix(np.hstack([star, star + np.array([[1.0], [0.0]])]))


def test_in_soft_hull_membership():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    inside, w = in_soft_hull(np.array([1.0, 0.0]), S, 0.0, 1.0)
    assert inside
    assert np.linalg.norm(S @ w.weights - [1.0, 0.0]) <= 1e-9


def test_in_soft_hull_radius_exceeded():
    S = np.array([[0.0], [0.0]])
    eps, diam_w = 0.1, 2.0
    outside, _ = in_soft_hull(np.array([eps * diam_w + 0.1, 0.0]), S, eps, diam_w)
    assert not outside


def test_in_soft_hull_boundary_point():
    # w exactly eps*diamW along the outward normal from a hull point
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    eps, diam_w = 0.05, 2.0
    w = np.array([0.5, eps * diam_w])
    inside, _ = in_soft_hull(w, S, eps, diam_w, tol=1e-9)
    assert inside
    beyond = np.array([0.5, eps * diam_w + 1e-6])
    inside2, _ = in_soft_hull(beyond, S, eps, diam_w, tol=1e-9)
    assert not inside2


def test_is_env_basics():
    W = fixtures()["two-cluster"]
    assert is_env(W, W, epsilon=0.0)
    T = W.select([0, 5])
    assert is_env(T, W, epsilon=0.02)
    lone = W.select([0])
    assert not is_env(lone, W, epsilon=0.02)
    with pytest.raises(ValueError):
        is_env(PointMatrix(np.zeros((2, 0))), W, 0.1)


def test_is_env_monotone_in_epsilon():
    W = fixtures()["two-rings"]
    T = W.select([0, 8])
    hits = [is_env(T, W, epsilon=e) for e in (0.001, 0.01, 0.02, 0.1)]
    # once true, stays true as epsilon grows
    assert hits == sorted(hits)


def test_is_eps_delta_env_two_cluster():
    W = tight_cluster_pair(0.01)
    T = W.select([0, 5])
    assert is_eps_delta_env(T, W, spec_params())
    # a near-duplicate member breaks the separation clause
    T_dup = W.select([0, 1, 5])
    assert not is_eps_delta_env(T_dup, W, spec_params())


def test_is_eps_delta_env_zero_eps_vertices():
    # eps = 0: the hull's vertex set is the envelope when vertices are separated
    square = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    mid = np.array([[0.5], [0.5]])
    W = PointMatrix(np.hstack([square, mid]))
    T = PointMatrix(square)
    params = EnvelopeParams(epsilon=1e-12, delta=0.4, epsilon3=0.05)
    assert is_eps_delta_env(T, W, params)


def test_find_envelope_two_cluster_fixture():
    W = fixtures()["two-cluster"]
    with pytest.warns(RuntimeWarning):
        res = find_soft_envelope(W, spec_params())
    assert res.found
    assert res.q_indices == (0, 5)  # one point per cluster, lowest indices
    assert res.certificate is not None and len(res.certificate) == W.count


def test_find_envelope_square_plus_midpoint():
    W = fixtures()["square-plus-midpoint"]
    params = EnvelopeParams(epsilon=0.0005, delta=0.1, epsilon3=0.02)
    assert params.condition_violations() == []
    res = find_soft_envelope(W, params)
    assert res.found
    assert res.q_indices == (0, 1, 2, 3)  # midpoint pruned


def test_find_envelope_two_rings_beats_naive():
    W = fixtures()["two-rings"]
    dw = diameter(W)
    assert naive_envelope(W.entries, 0.02, dw) == []
    with pytest.warns(RuntimeWarning):
        res = find_soft_envelope(W, spec_params())
    assert res.found and len(res.q_indices) == 2
    assert res.q_indices[0] < 8 <= res.q_indices[1]


def test_find_envelope_circle_has_none():
    # spread circle with delta near 1: no small envelope exists
    angles = 2 * np.pi * np.arange(12) / 12
    W = PointMatrix(np.vstack([np.cos(angles), np.sin(angles)]))
    params = EnvelopeParams(epsilon=0.01, delta=0.9, epsilon3=0.05)
    with pytest.warns(RuntimeWarning):
        res = find_soft_envelope(W, params)
    assert not res.found
    assert res.reason is not None
    # exhaustive: no 2*eps3*diam-separated subset of size <= 3 passes the check
    dw = diameter(W)
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(12), r):
            T = W.select(list(combo))
            ok = True
            for i in range(r):
                for j in range(i + 1, r):
                    if np.linalg.norm(T.entries[:, i] - T.entries[:, j]) <= 2 * params.epsilon3 * dw:
                        ok = False
            if ok:
                assert not is_eps_delta_env(T, W, params, diam_w=dw)


def test_envelope_pairwise_separation_and_subset():
    W = fixtures()["two-cluster"]
    with pytest.warns(RuntimeWarning):
        res = find_soft_envelope(W, spec_params())
    dw = res.diam_w
    pts = res.Q.entries
    for i in range(pts.shape[1]):
        for j in range(i + 1, pts.shape[1]):
            assert np.linalg.norm(pts[:, i] - pts[:, j]) > 2 * spec_params().epsilon3 * dw
    for idx, col in zip(res.q_indices, range(pts.shape[1])):
        assert np.array_equal(pts[:, col], W.entries[:, idx])


def test_envelope_rigid_motion_invariance():
    W = fixtures()["two-cluster"]
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shift = np.array([[3.0], [-2.0]])
    W2 = PointMatrix(R @ W.entries + shift)
    with pytest.warns(RuntimeWarning):
        r1 = find_soft_envelope(W, spec_params())
        r2 = find_soft_envelope(W2, spec_params())
    assert r1.q_indices == r2.q_indices


def test_sqrt_variant_on_tight_clusters():
    # the square-root default eps3 = 4*sqrt(eps) (the CLI's, without --eps3);
    # coverage at eps = 1e-4 needs clusters of radius below eps*diam;
    # delta = 0.3 is outside the guaranteed (0, 1/8) range, hence the warning
    W = tight_cluster_pair(5e-5)
    with pytest.warns(RuntimeWarning):
        res = find_soft_envelope(W, EnvelopeParams(1e-4, 0.3, 4.0 * np.sqrt(1e-4)))
    assert res.found
    assert len(res.q_indices) == 2
    # output points sit within 2*eps3*diam = 8*sqrt(eps)*diam of the truth reps
    radius = 8.0 * np.sqrt(1e-4) * res.diam_w
    truth = [W.entries[:, 0], W.entries[:, 5]]
    for t in truth:
        assert min(np.linalg.norm(t - res.Q.entries[:, j]) for j in range(2)) <= radius
    assert res.params.epsilon3 == pytest.approx(4.0 * np.sqrt(1e-4))


def test_find_envelope_coincident_points():
    # zero-diameter cloud: the singleton envelope is the answer
    W = PointMatrix(np.ones((3, 4)))
    res = find_soft_envelope(W, EnvelopeParams(0.0005, 0.1, 0.02))
    assert res.found and res.q_indices == (0,)


def test_params_validation_messages():
    bad = EnvelopeParams(epsilon=0.02, delta=0.5, epsilon3=0.08)
    msgs = bad.condition_violations()
    assert any("outside the guaranteed range" in m for m in msgs)
    good = EnvelopeParams(epsilon=0.0005, delta=0.1, epsilon3=0.02)
    assert good.condition_violations() == []
    crossed = EnvelopeParams(epsilon=0.05, delta=0.1, epsilon3=0.01)
    assert any("must exceed" in m for m in crossed.condition_violations())


def test_find_soft_envelope_certifies_with_one_cover(monkeypatch):
    # each point is decided by one solve against its far set, not through
    # hull_membership, and the envelope check's coverage weights are the
    # certificate: one kernel call, not a second cover for the witnesses
    calls = {"kernel": 0, "membership": 0}
    kernel = softhull._hull_distances

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counted_membership(*args, **kwargs):
        calls["membership"] += 1
        return hull_membership(*args, **kwargs)

    monkeypatch.setattr(softhull, "_hull_distances", counted_kernel)
    monkeypatch.setattr(softhull, "hull_membership", counted_membership)
    res = find_soft_envelope(fixtures()["square-plus-midpoint"], EnvelopeParams(0.0005, 0.1, 0.02))
    assert res.found and res.q_indices == (0, 1, 2, 3)
    assert calls == {"kernel": 1, "membership": 0}


def _random_params(rng) -> EnvelopeParams:
    return EnvelopeParams(
        float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.01, 0.4))
    )


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["clusters", "cloud", "coincident", "singleton"]),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    n=st.integers(2, 20),
    tol=st.sampled_from([None, 1e-6]),
)
def test_find_soft_envelope_matches_stepwise_reference(kind, seed, dim, n, tol):
    rng = np.random.default_rng(seed)
    if kind == "clusters":  # criterion 7's instances
        W, params, _, k = _random_cluster_instance(rng)
    elif kind == "cloud":  # assorted parameters: mostly no envelope
        W, params = rng.standard_normal((dim, n)), _random_params(rng)
    elif kind == "coincident":  # integer entries: the diameter is exactly zero
        W, params = np.tile(rng.integers(-4, 5, (dim, 1)).astype(float), (1, n)), _random_params(rng)
    else:
        W, params = rng.standard_normal((dim, 1)), _random_params(rng)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"(epsilon3?|delta) = ")
        got = find_soft_envelope(W, params, tol)
        want = stepwise_envelope(W, params, tol)
    assert (got.found, got.q_indices, got.reason, got.diam_w, got.warnings) == (
        want.found, want.q_indices, want.reason, want.diam_w, want.warnings
    )
    if kind == "clusters":
        assert got.found and len(got.q_indices) == k
    if want.found:
        assert got.Q.entries.tobytes() == want.Q.entries.tobytes()
        assert [c.weights.tobytes() for c in got.certificate] == [
            c.weights.tobytes() for c in want.certificate
        ]
    else:
        assert got.Q is None and got.certificate is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_soft_envelope(np.zeros((2, 3)), EnvelopeParams(0.01, 0.1, 0.02), tol=-1e-6),
        lambda: find_soft_envelope(fixtures()["two-cluster"], spec_params(), tol=-1e-6),
        lambda: hull_membership(np.zeros(2), np.zeros((2, 1)), 0.0, tol=-1e-9),
        lambda: in_soft_hull(np.zeros(2), np.zeros((2, 1)), 0.1, 1.0, tol=-1e-9),
        lambda: is_env(fixtures()["two-cluster"], fixtures()["two-cluster"], 0.02, tol=-1e-9),
        lambda: is_eps_delta_env(
            fixtures()["two-cluster"], fixtures()["two-cluster"], spec_params(), tol=-1e-9
        ),
    ],
    ids=["envelope-coincident", "envelope", "hull_membership", "in_soft_hull", "is_env",
         "is_eps_delta_env"],
)
def test_negative_tol_is_rejected(call):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"(epsilon3?|delta) = ")
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            call()
