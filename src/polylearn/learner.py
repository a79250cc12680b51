"""Learning polytopes by probing an optimization oracle with random directions.

Random probes alone already solve two problems: the convex hull of the
answers approximates the polytope in Hausdorff distance, and when the
vertices are well separated the answer list contains a point close to every
vertex (list learning).  Reducing the list to exactly k points is the
pruning module's job.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONSTANTS, Constants
from .geometry import PointMatrix, VPolytope, _pairwise_distances, hausdorff, well_separation
from .oracles import OptOracle, _unit_directions

__all__ = [
    "ProbeSet",
    "LearnReport",
    "random_probes",
    "hausdorff_learn",
    "list_learn",
    "recommended_probe_count",
]


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Paired unit query directions and oracle answers, in query order."""

    directions: PointMatrix
    answers: PointMatrix
    seed: int

    def __post_init__(self):
        if self.directions.count != self.answers.count:
            raise ValueError("directions and answers must have equal counts")
        if self.directions.count:
            norms = np.linalg.norm(self.directions.entries, axis=0)
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise ValueError("probe directions must be unit vectors")

    @property
    def count(self) -> int:
        return self.directions.count


@dataclass(frozen=True, eq=False)
class LearnReport:
    """Measured quality of a probe run (fields are None without ground truth)."""

    query_count: int
    epsilon: float
    delta: float | None = None
    hausdorff_to_truth: float | None = None
    per_vertex_error: np.ndarray | None = None
    success: bool | None = None
    recommended_query_count: float | None = None
    messages: tuple[str, ...] = field(default_factory=tuple)


def random_probes(oracle: OptOracle, m: int, seed: int = 0) -> ProbeSet:
    """Query the oracle on m i.i.d. uniform unit directions.

    Directions are Gaussian vectors normalized to unit length (exactly
    uniform on the sphere).  Answers are recorded in query order.
    """
    if m < 1:
        raise ValueError("probe count m must be positive")
    U = _unit_directions(np.random.default_rng(seed), m, oracle.dim)
    answers = oracle.query_batch(U)
    return ProbeSet(PointMatrix(U.T), PointMatrix(answers), seed)


def recommended_probe_count(k: int, delta: float, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Worst-case probe count k^(10 + c/delta^2) backing the hull learner.

    Astronomically large for small delta; returned as a float and reported
    alongside runs so the gap between theory and the configured m is visible.
    """
    if k < 1:
        raise ValueError("vertex count must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    exponent = (10.0 + constants.c / delta**2) * math.log(max(k, 1))
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def hausdorff_learn(
    oracle: OptOracle,
    m: int,
    truth: VPolytope | None = None,
    seed: int = 0,
    tol: float = 1e-6,
) -> tuple[ProbeSet, LearnReport]:
    """Random probes plus a Hausdorff measurement against known truth.

    When ``truth`` is supplied the report carries hausdorff(CH(answers), truth).
    """
    probes = random_probes(oracle, m, seed=seed)
    haus = None
    delta_measured = None
    if truth is not None:
        haus = hausdorff(probes.answers, truth.vertices, tol=tol)
        diam = truth.diameter()
        delta_measured = haus / diam if diam > 0 else 0.0
    return probes, LearnReport(
        query_count=m,
        epsilon=oracle.advertised_epsilon,
        delta=delta_measured,
        hausdorff_to_truth=haus,
    )


def list_learn(
    oracle: OptOracle,
    k_params: tuple[int, float],
    m: int,
    truth: VPolytope | None = None,
    seed: int = 0,
    tol: float = 1e-6,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[ProbeSet, LearnReport]:
    """Random probes aimed at covering every vertex of a well-separated polytope.

    ``k_params`` is (k, delta).  With ground truth, per_vertex_error[l] is the
    distance from vertex l to its nearest answer, and success means every
    vertex is matched within delta*diam/10.  The guarantee needs
    delta^2 >= c*eps*sqrt(d) and delta^3 >= c*eps; violations are warned
    about and recorded, never fatal.
    """
    k, delta = k_params
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if truth is not None:
        if truth.count != k:
            raise ValueError(f"truth has {truth.count} vertices, expected k = {k}")
        sep = well_separation(truth, tol=tol)
        if sep < delta - 1e-9:
            raise ValueError(
                f"truth is only {sep:.6g}-well-separated, required delta = {delta}"
            )
    messages: list[str] = []
    eps = oracle.advertised_epsilon
    d = oracle.dim
    if math.isfinite(eps):
        if delta**2 < constants.c * eps * math.sqrt(d):
            msg = (
                f"hypothesis delta^2 >= c*eps*sqrt(d) fails: "
                f"{delta**2:.3g} < {constants.c * eps * math.sqrt(d):.3g}"
            )
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
            messages.append(msg)
        if delta**3 < constants.c * eps:
            msg = (
                f"hypothesis delta^3 >= c*eps fails: "
                f"{delta**3:.3g} < {constants.c * eps:.3g}"
            )
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
            messages.append(msg)

    probes = random_probes(oracle, m, seed=seed)
    per_vertex = None
    success = None
    if truth is not None:
        per_vertex = _pairwise_distances(truth.vertices.entries, probes.answers.entries).min(-1)
        success = bool(per_vertex.max() <= delta * truth.diameter() / 10.0)
    return probes, LearnReport(
        query_count=m,
        epsilon=eps,
        delta=delta,
        per_vertex_error=per_vertex,
        success=success,
        recommended_query_count=recommended_probe_count(k, delta, constants),
        messages=tuple(messages),
    )
