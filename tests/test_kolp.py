import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from polylearn import (
    Constants,
    PointMatrix,
    PruneError,
    SubsetSmoothingOracle,
    VPolytope,
    audit_answer,
    audit_projected_oracle,
    exact_oracle,
    gen_lkp,
    gen_well_separated_polytope,
    kolp_run,
    noisy_oracle,
    prune_to_k,
    random_probes,
    spectral_norm,
    svd_project,
    well_separation,
)
from polylearn.oracles import _unit_directions


def matched_errors(truth: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    cost = np.linalg.norm(truth[:, :, None] - estimates[:, None, :], axis=0)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols]


def small_instance(seed=0, n=1500, noise=3e-5):
    M = gen_well_separated_polytope(30, 3, 0.65, seed=seed)
    return gen_lkp(M, n, 0.1, noise, seed=seed + 1)


def test_svd_rank_one_residual():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    coeff = rng.standard_normal(20)
    A = np.outer(v, coeff)
    proj = svd_project(A, 1)
    residual = A - proj.basis @ proj.projected.entries
    assert spectral_norm(residual) <= 1e-9


def test_svd_constructed_spectrum_residual():
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = U @ np.diag([3.0, 2.0, 1.0]) @ V.T
    proj = svd_project(A, 2)
    residual = A - proj.basis @ proj.projected.entries
    assert np.linalg.norm(residual, 2) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(proj.singular_values, [3.0, 2.0], atol=1e-9)


def test_svd_idempotent_and_orthonormal():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 40))
    proj = svd_project(A, 3)
    assert np.allclose(proj.basis.T @ proj.basis, np.eye(3), atol=1e-9)
    reconstructed = proj.basis @ proj.projected.entries
    proj2 = svd_project(reconstructed, 3)
    re2 = proj2.basis @ proj2.projected.entries
    assert np.allclose(reconstructed, re2, atol=1e-9)


def test_svd_sign_convention():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 30))
    proj = svd_project(A, 2)
    for i in range(2):
        j = int(np.argmax(np.abs(proj.basis[:, i])))
        assert proj.basis[j, i] > 0


def test_svd_k_out_of_range():
    A = np.zeros((3, 5))
    A[0, 0] = 1.0
    with pytest.raises(ValueError):
        svd_project(A, 4)
    with pytest.raises(ValueError):
        svd_project(A, 0)


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    n=st.integers(1, 9),
    rank=st.integers(0, 9),
    k=st.integers(1, 9),
    exponent=st.integers(-200, 200),
)
def test_svd_projector_matches_dense_svd(seed, d, n, rank, k, exponent):
    # A = U diag(s) V^T with distinct singular values spread over [0.3, 1]
    # (so each top-k subspace is well defined) and zeros past the rank.
    rng = np.random.default_rng(seed)
    rank, k = min(rank, d, n), min(k, d, n)
    s = np.linspace(1.0, 0.3, rank) if rank > 1 else np.ones(rank)
    U, V = _orthonormal(rng, d, rank), _orthonormal(rng, n, rank)
    A = (U * s) @ V.T * 10.0**exponent
    proj = svd_project(A, k)
    P = proj.basis @ proj.basis.T
    assert np.allclose(proj.basis.T @ proj.basis, np.eye(k), rtol=0.0, atol=1e-12)
    Ud = np.linalg.svd(A, full_matrices=False)[0]
    if k <= rank:
        assert np.abs(P - Ud[:, :k] @ Ud[:, :k].T).max() <= 1e-12
        assert np.allclose(proj.singular_values, s[:k] * 10.0**exponent, rtol=1e-12, atol=0.0)
    else:
        # Beyond the rank the dense basis is arbitrary: the projector must
        # contain the range of A and reproduce A exactly.
        assert np.allclose(P @ U, U, rtol=0.0, atol=1e-12)
        reconstructed = proj.basis @ proj.projected.entries
        assert np.allclose(reconstructed, A, rtol=0.0, atol=1e-12 * 10.0**exponent)
        assert np.all(proj.singular_values[rank:] <= 1e-7 * 10.0**exponent)


def test_svd_projector_wide_and_tall_data():
    rng = np.random.default_rng(4)
    for shape, k in (((12, 300), 4), ((300, 12), 4), ((300, 12), 12), ((40, 40), 5)):
        A = rng.standard_normal(shape)
        proj = svd_project(A, k)
        Ud, sd, _ = np.linalg.svd(A, full_matrices=False)
        P = proj.basis @ proj.basis.T
        assert np.abs(P - Ud[:, :k] @ Ud[:, :k].T).max() <= 1e-12
        assert np.allclose(proj.singular_values, sd[:k], rtol=1e-12, atol=0.0)


def test_random_probes_batch_equals_single_queries_on_lkp():
    # Many probes share a selected set; each must still get that set's own mean.
    inst = small_instance(seed=18)
    proj = svd_project(inst.A, 3)
    oracle = SubsetSmoothingOracle(proj.projected, fraction=inst.w0)
    probes = random_probes(oracle, 400, seed=19)
    single = [oracle.query(u) for u in probes.directions.entries.T]
    assert np.array_equal(probes.answers.entries, np.column_stack(single))


def test_prune_exact_triangle_probes():
    K = gen_well_separated_polytope(2, 3, 0.5, seed=4)
    probes = random_probes(exact_oracle(K), 600, seed=5)
    picked = prune_to_k(probes.answers, 3, delta=0.5)
    assert picked.count == 3
    errs = matched_errors(K.vertices.entries, picked.entries)
    assert errs.max() <= 1e-9


def test_prune_collapses_duplicates():
    K = gen_well_separated_polytope(2, 3, 0.5, seed=6)
    V = K.vertices.entries
    W = np.column_stack([V[:, 0], V[:, 1], V[:, 0], V[:, 2], V[:, 1], V[:, 0]])
    picked = prune_to_k(W, 3, delta=0.5)
    assert picked.count == 3
    errs = matched_errors(V, picked.entries)
    assert errs.max() <= 1e-12


def test_prune_surfaces_solver_warnings(monkeypatch):
    # Pruning silences its ladder's off-range parameter warnings (delta' =
    # 0.125 here), never a hull-distance solver that stopped early.
    import polylearn.kolp as kolp

    real = kolp.find_soft_envelope

    def stalling(W, params):
        warnings.warn("hull-distance solver stopped early; achieved gap 1e-3", RuntimeWarning)
        return real(W, params)

    monkeypatch.setattr(kolp, "find_soft_envelope", stalling)
    K = gen_well_separated_polytope(2, 3, 0.5, seed=6)
    with pytest.warns(RuntimeWarning) as record:
        picked = prune_to_k(K.vertices.entries, 3, delta=0.5)
    assert picked.count == 3
    messages = [str(w.message) for w in record]
    assert messages and all(m.startswith("hull-distance solver stopped early") for m in messages)


def test_prune_noisy_square():
    K = gen_well_separated_polytope(2, 4, 0.35, seed=7)
    eps = 5e-4
    probes = random_probes(noisy_oracle(K, eps, seed=8), 800, seed=9)
    picked = prune_to_k(probes.answers, 4, delta=0.35)
    errs = matched_errors(K.vertices.entries, picked.entries)
    assert errs.max() <= 0.35 * K.diameter() / 10.0


def test_prune_failure_diagnostics():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((2, 40))  # amorphous cloud, no 7-point envelope
    with pytest.raises(PruneError) as exc:
        prune_to_k(W, 7, delta=0.4)
    assert exc.value.attempts  # ladder attempts recorded
    assert "histogram" in str(exc.value)
    with pytest.raises(PruneError, match="cannot select"):
        prune_to_k(np.zeros((2, 2)), 5, delta=0.3)


def test_kolp_run_noiseless_recovery():
    M = gen_well_separated_polytope(12, 3, 0.65, seed=11)
    inst = gen_lkp(M, 600, 0.15, noise_scale=0.0, seed=12)
    assert inst.sigma0 == 0.0
    out = kolp_run(inst.A, 3, 0.15, delta=0.3, m=1500, seed=13)
    errs = matched_errors(M.vertices.entries, out.vertex_estimates.entries)
    assert errs.max() <= 1e-7


def test_kolp_run_small_lkp():
    inst = small_instance(seed=14)
    M = inst.M
    out = kolp_run(inst.A, 3, 0.1, delta=0.3, m=2500, seed=15)
    errs = matched_errors(M.vertices.entries, out.vertex_estimates.entries)
    assert errs.max() <= 0.3 * M.diameter() / 5.0
    assert out.vertex_estimates.count == 3
    assert out.probe_log.count == 2500


def test_kolp_run_deterministic():
    inst = small_instance(seed=16, n=900)
    o1 = kolp_run(inst.A, 3, 0.1, delta=0.3, m=800, seed=17)
    o2 = kolp_run(inst.A, 3, 0.1, delta=0.3, m=800, seed=17)
    assert np.array_equal(o1.vertex_estimates.entries, o2.vertex_estimates.entries)
    assert np.array_equal(o1.probe_log.answers.entries, o2.probe_log.answers.entries)


def test_kolp_estimates_in_basis_span():
    inst = small_instance(seed=18, n=900)
    out = kolp_run(inst.A, 3, 0.1, delta=0.3, m=800, seed=19)
    B = out.projection.basis
    E = out.vertex_estimates.entries
    off_span = E - B @ (B.T @ E)
    assert np.linalg.norm(off_span) <= 1e-9 * max(inst.M.diameter(), 1.0)
    # estimates are smoothed answers, hence inside the projected data's hull
    from polylearn import dist_to_hull

    proj_est = B.T @ E
    for j in range(proj_est.shape[1]):
        d, _ = dist_to_hull(proj_est[:, j], out.projection.projected, tol=1e-7)
        assert d <= 1e-6 * max(inst.M.diameter(), 1.0)


def test_kolp_equivariance_under_rotation():
    inst = small_instance(seed=20, n=900)
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    out1 = kolp_run(inst.A, 3, 0.1, delta=0.3, m=800, seed=22)
    out2 = kolp_run(PointMatrix(Q @ inst.A.entries), 3, 0.1, delta=0.3, m=800, seed=22)
    # estimates transform with the data up to the SVD sign/probe coupling;
    # compare as sets against the rotated truth
    e1 = matched_errors(Q @ inst.M.vertices.entries, Q @ out1.vertex_estimates.entries)
    e2 = matched_errors(Q @ inst.M.vertices.entries, out2.vertex_estimates.entries)
    tol = 0.3 * inst.M.diameter() / 5.0
    assert e1.max() <= tol and e2.max() <= tol


@pytest.fixture(scope="module")
def unit_scaling_case():
    M = gen_well_separated_polytope(20, 3, 0.65, seed=1)
    A = gen_lkp(M, 3000, 0.1, 4e-5, seed=2, validate=False).A.entries
    return A, kolp_run(A, 3, 0.1, 0.3, 2000, seed=5).vertex_estimates.entries


@pytest.mark.parametrize("j", [-33, -40, -300])
def test_kolp_run_estimates_scale_with_the_data_units(unit_scaling_case, j):
    # The same data in units 2^j smaller: every tolerance must shrink with
    # it, so the estimates are exactly 2^j times the unscaled ones.  An
    # envelope tolerance floored at 1e-9 raised PruneError from j = -32 down.
    A, unscaled = unit_scaling_case
    out = kolp_run(np.ldexp(A, j), 3, 0.1, 0.3, 2000, seed=5)
    assert np.array_equal(out.vertex_estimates.entries, np.ldexp(unscaled, j))


def test_kolp_half_fraction_flag():
    inst = small_instance(seed=23, n=900)
    out = kolp_run(inst.A, 3, 0.1, delta=0.3, m=800, seed=24, smoothing_fraction=0.05)
    errs = matched_errors(inst.M.vertices.entries, out.vertex_estimates.entries)
    assert errs.max() <= 0.3 * inst.M.diameter() / 5.0


@pytest.mark.parametrize("delta", [0.0, -0.3, math.nan])
def test_kolp_and_prune_reject_delta_not_positive(delta):
    W = np.random.default_rng(10).standard_normal((2, 40))
    with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
        prune_to_k(W, 3, delta)
    with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
        kolp_run(W, 3, 0.1, delta, m=10)


@pytest.mark.parametrize("field", ["c", "c0"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_constants_reject_values_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"constant {field} = {value!r} must be finite"):
        Constants(**{field: value})


def test_kolp_hypothesis_message():
    inst = small_instance(seed=25, n=900)
    out = kolp_run(inst.A, 3, 0.1, delta=0.05, m=800, seed=26)
    assert any("sqrt(log k)" in m for m in out.messages)


def test_audit_projected_oracle_zero_noise():
    M = gen_well_separated_polytope(12, 3, 0.6, seed=27)
    inst = gen_lkp(M, 600, 0.15, noise_scale=0.0, seed=28)
    audit = audit_projected_oracle(inst, 0.15, trials=200, seed=29)
    assert audit.all_passed
    assert audit.epsilon == 0.0
    assert audit.vertex_displacements.max() <= 1e-9


def test_audit_projected_oracle_noisy():
    inst = small_instance(seed=30)
    audit = audit_projected_oracle(inst, 0.1, trials=500, seed=31)
    assert audit.passes == 500
    assert audit.vertex_displacements.max() <= audit.displacement_bound + 1e-12


def test_latent_projection_spectral_bound():
    # || P - P_hat || <= 3*sigma0*sqrt(n) for the top-k projection of A
    inst = small_instance(seed=32, noise=1e-3)
    proj = svd_project(inst.A, inst.k)
    P = inst.P.entries
    P_hat = proj.basis @ (proj.basis.T @ P)
    assert spectral_norm(P - P_hat) <= 3.0 * inst.sigma0 * math.sqrt(inst.n) + 1e-9


def test_projected_separation_preserved():
    inst = small_instance(seed=33)
    delta_measured = well_separation(inst.M)
    proj = svd_project(inst.A, inst.k)
    M_hat = proj.basis.T @ inst.M.vertices.entries
    sep_hat = well_separation(VPolytope(M_hat))
    assert sep_hat >= delta_measured * (1.0 - 1.0 / 100.0)


@pytest.mark.parametrize("noise, fraction", [(3e-5, 0.1), (3e-2, 0.05)])
def test_audit_projected_oracle_matches_per_trial_audit(noise, fraction):
    # The batched audit against one audit_answer call per trial.
    inst = small_instance(seed=30, noise=noise)
    audit = audit_projected_oracle(inst, fraction, trials=300, seed=31)
    proj = svd_project(inst.A, inst.k)
    K_hat = VPolytope(PointMatrix(proj.project_points(inst.M.vertices)))
    U = _unit_directions(np.random.default_rng(31), 300, inst.k)
    answers = SubsetSmoothingOracle(proj.projected, fraction).query_batch(U)
    delta_k = inst.M.diameter()
    audits = [
        audit_answer(K_hat, u, x, audit.epsilon, tol=1e-8 * max(delta_k, 1.0),
                     reference_diameter=delta_k, dist_tol=1e-10)
        for u, x in zip(U, answers.T)
    ]
    assert audit.passes == sum(a.passed for a in audits)
    assert abs(audit.worst_containment_slack - max(a.containment_slack for a in audits)) <= 1e-12
    assert abs(audit.worst_optimality_slack - min(a.optimality_slack for a in audits)) <= 1e-12
