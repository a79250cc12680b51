import math

import numpy as np
import pytest

from polylearn import (
    OptOracle,
    PointMatrix,
    VPolytope,
    dist_to_hull,
    exact_oracle,
    gen_well_separated_polytope,
    hausdorff,
    hausdorff_learn,
    list_learn,
    noisy_oracle,
    random_probes,
    recommended_probe_count,
)


def square():
    return VPolytope(np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))


def test_probe_directions_unit_and_deterministic():
    oracle = exact_oracle(square())
    p1 = random_probes(oracle, 50, seed=3)
    p2 = random_probes(oracle, 50, seed=3)
    assert np.array_equal(p1.directions.entries, p2.directions.entries)
    assert np.array_equal(p1.answers.entries, p2.answers.entries)
    norms = np.linalg.norm(p1.directions.entries, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    p3 = random_probes(oracle, 50, seed=4)
    assert not np.array_equal(p1.directions.entries, p3.directions.entries)


def test_probe_single_direction_returns_vertex():
    seg = VPolytope(np.array([[0.0, 1.0], [0.0, 0.0]]))
    probes = random_probes(exact_oracle(seg), 1, seed=0)
    answer = probes.answers.column(0)
    assert any(np.allclose(answer, seg.vertices.column(j)) for j in range(2))


def test_probe_answers_are_vertices_for_exact_oracle():
    K = square()
    probes = random_probes(exact_oracle(K), 200, seed=1)
    V = K.vertices.entries
    for j in range(200):
        a = probes.answers.column(j)
        assert min(np.linalg.norm(a - V[:, i]) for i in range(4)) <= 1e-12


def test_probe_answers_near_hull_for_noisy_oracle():
    K = square()
    eps = 0.01
    probes = random_probes(noisy_oracle(K, eps, seed=5), 100, seed=2)
    for j in range(100):
        d, _ = dist_to_hull(probes.answers.column(j), K.vertices, tol=1e-8)
        assert d <= eps * K.diameter() + 1e-7


def test_probe_oracle_failure_carries_index():
    class Flaky(OptOracle):
        dim = 2
        advertised_epsilon = 0.0
        reference_diameter = 1.0
        calls = 0

        def query(self, u):
            self.calls += 1
            if self.calls == 3:
                raise ValueError("boom")
            return np.zeros(2)

    with pytest.raises(RuntimeError, match="probe 2"):
        random_probes(Flaky(), 10, seed=0)


def test_hausdorff_learn_square():
    K = square()
    probes, report = hausdorff_learn(exact_oracle(K), 500, truth=K, seed=7)
    assert report.hausdorff_to_truth <= 0.05 * K.diameter()
    assert report.query_count == 500


def test_hausdorff_learn_single_probe_of_segment():
    seg = VPolytope(np.array([[0.0, 1.0], [0.0, 0.0]]))
    probes, report = hausdorff_learn(exact_oracle(seg), 1, truth=seg, seed=8)
    assert report.hausdorff_to_truth == pytest.approx(seg.diameter(), abs=1e-9)


def test_hausdorff_monotone_in_prefixes():
    K = square()
    probes = random_probes(exact_oracle(K), 60, seed=9)
    prev = np.inf
    for m in range(1, 61, 7):
        h = hausdorff(probes.answers.entries[:, :m], K.vertices, tol=1e-7)
        assert h <= prev + 1e-6
        prev = min(prev, h)


def test_hausdorff_permutation_invariance():
    K = square()
    probes = random_probes(exact_oracle(K), 64, seed=10)
    rng = np.random.default_rng(0)
    perm = rng.permutation(64)
    shuffled = PointMatrix(probes.answers.entries[:, perm])
    h1 = hausdorff(probes.answers, K.vertices, tol=1e-8)
    h2 = hausdorff(shuffled, K.vertices, tol=1e-8)
    assert h1 == pytest.approx(h2, abs=1e-9)


def test_recommended_probe_count():
    assert recommended_probe_count(4, 0.5) == pytest.approx(4.0 ** (10 + 20.0 / 0.25))
    assert recommended_probe_count(16, 0.05) == np.inf


def test_list_learn_exact_triangle():
    K = gen_well_separated_polytope(2, 3, 0.3, seed=11)
    probes, report = list_learn(exact_oracle(K), (3, 0.3), 3000, truth=K, seed=12)
    assert report.per_vertex_error.max() <= 1e-9
    assert report.success


def test_list_learn_rejects_delta_before_probing():
    class NeverProbed(OptOracle):
        dim, advertised_epsilon, reference_diameter = 2, 0.0, 1.0

        def query(self, u):
            raise AssertionError("probed")

    for delta in (math.nan, math.inf, 0.0, -0.3):
        with pytest.raises(ValueError, match=f"delta must be finite and positive, got {delta}"):
            list_learn(NeverProbed(), (4, delta), 10, truth=square())


def test_list_learn_noisy_triangle():
    K = gen_well_separated_polytope(2, 3, 0.35, seed=13)
    eps = 1e-3
    probes, report = list_learn(noisy_oracle(K, eps, seed=14), (3, 0.35), 3000, truth=K, seed=15)
    assert report.per_vertex_error.max() <= 0.35 * K.diameter() / 10.0
    assert report.success


def test_list_learn_separation_precondition():
    flat = VPolytope(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]]))  # collinear
    with pytest.raises(ValueError, match="well-separated"):
        list_learn(exact_oracle(flat), (3, 0.3), 10, truth=flat, seed=0)


def test_list_learn_hypothesis_warning():
    K = gen_well_separated_polytope(4, 3, 0.3, seed=16)
    weak = noisy_oracle(K, 0.2, seed=17)
    with pytest.warns(RuntimeWarning) as record:
        _, report = list_learn(weak, (3, 0.3), 10, truth=K, seed=18)
    messages = [str(w.message) for w in record]
    assert any("delta^2 >= c*eps*sqrt(d)" in m for m in messages)
    assert any("delta^2" in m for m in report.messages)
