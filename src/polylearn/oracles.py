"""Direction-query optimization oracles and an answer auditor.

An optimization oracle with error eps over a polytope K answers a unit
direction u with a point x(u) satisfying both

    x(u) in K + eps*diam(K)*B      (containment), and
    u.x(u) >= max_{y in K} u.y - eps*diam(K)   (optimality).

Four concrete oracles live here: the exact vertex argmax, the same answer
plus a bounded perturbation, subset smoothing over a data matrix (answers
with the mean of the top fraction of columns along u), and the adversarial
"needle" oracle that always answers zero while logging every query.
``audit_answer`` checks a single answer against both clauses when K is
known.  ``_unit_directions`` is the package's one sampler of uniformly
random unit directions.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .geometry import VPolytope, _pairwise_distances, as_point_matrix, diameter, dist_to_hull

__all__ = [
    "OptOracle",
    "ExactOracle",
    "NoisyOracle",
    "SubsetSmoothingOracle",
    "NeedleOracle",
    "OracleAudit",
    "exact_oracle",
    "noisy_oracle",
    "needle_oracle",
    "audit_answer",
    "find_consistent_needles",
]

_UNIT_NORM_TOL = 1e-9
# find_consistent_needles: candidates per draw, the search budget (a multiple
# of the block) and the least distance from a needle to earlier ones and
# their negations.
_NEEDLE_BLOCK = 64
_NEEDLE_CANDIDATES = 10**7
_NEEDLE_GAP = 0.1
_NEEDLE_LOG_ROWS = 1024  # NeedleOracle's log rows before its first doubling


def _check_unit(u, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    n = float(np.linalg.norm(u))
    if not (1.0 - _UNIT_NORM_TOL <= n <= 1.0 + _UNIT_NORM_TOL):
        raise ValueError(f"query direction must be a unit vector, got norm {n!r}")
    if u.shape[0] != dim:
        raise ValueError(f"query dim {u.shape[0]} != oracle dim {dim}")
    return u


def _unit_directions(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """m uniform unit directions in R^dim as the rows of an m x dim array.

    Gaussian rows normalized to unit length, drawn from ``rng`` in row order,
    so drawing in blocks consumes the same stream as drawing all at once.
    """
    U = rng.standard_normal((m, dim))
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    # A zero Gaussian draw has probability zero; resample defensively.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        U[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(U, axis=1, keepdims=True)
    return U / norms


def _direction_rows(U, dim: int) -> np.ndarray:
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != dim:
        raise ValueError(f"query directions must form an m x {dim} array, got shape {U.shape}")
    return U


class OptOracle(ABC):
    """Query interface: unit direction -> point, with an advertised guarantee.

    ``advertised_epsilon`` is the error the oracle claims relative to
    ``reference_diameter``; it is nan when unknown (data-backed oracles
    without ground truth).
    """

    dim: int
    advertised_epsilon: float

    @property
    @abstractmethod
    def reference_diameter(self) -> float: ...

    @abstractmethod
    def query(self, u) -> np.ndarray: ...

    def query_batch(self, U) -> np.ndarray:
        """Answer each row of the m x dim array U; returns the dim x m answers.

        Row i's answer equals ``query(U[i])``.  A failing row raises
        RuntimeError naming it.
        """
        U = _direction_rows(U, self.dim)
        answers = np.empty((self.dim, U.shape[0]))
        for i, u in enumerate(U):
            try:
                answers[:, i] = self.query(u)
            except Exception as exc:
                raise RuntimeError(f"oracle failed on probe {i}: {exc}") from exc
        return answers


class ExactOracle(OptOracle):
    """Zero-error oracle: returns the vertex maximizing u.v.

    Ties break toward the lowest vertex index, so answers are deterministic.
    """

    def __init__(self, K: VPolytope):
        self._K = K
        self.dim = K.dim
        self.advertised_epsilon = 0.0
        self._diam = K.diameter()

    @property
    def reference_diameter(self) -> float:
        return self._diam

    def _vertex(self, u: np.ndarray) -> np.ndarray:
        return self._K.vertices.column(int(np.argmax(u @ self._K.vertices.entries)))

    def query(self, u) -> np.ndarray:
        return self._vertex(_check_unit(u, self.dim))


class NoisyOracle(ExactOracle):
    """Exact answer plus a perturbation uniform in the ball of radius eps*diam(K).

    Box-Muller pairs and a radius turn the uniforms of one ``shake_256`` hash of
    the query bits and the seed, which must lie in [-2^63, 2^63), into the
    perturbation, so answers are a pure function of (query bits, seed).  It
    keeps both oracle clauses valid; a post-hoc check still halves it if
    floating point ever lands an answer outside the advertised contract.  If
    8 halvings do not bring it back, the oracle silently returns the exact
    vertex, which meets the contract at any epsilon.
    """

    def __init__(self, K: VPolytope, epsilon: float, seed: int):
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if not -(2**63) <= int(seed) < 2**63:
            raise ValueError(f"noisy oracle seed {seed} is outside [-2^63, 2^63)")
        super().__init__(K)
        self.advertised_epsilon = float(epsilon)
        self._seed_bytes = int(seed).to_bytes(8, "little", signed=True)

    def _perturbation(self, u: np.ndarray) -> np.ndarray:
        h = (self.dim + 1) // 2
        words = np.frombuffer(hashlib.shake_256(u.tobytes() + self._seed_bytes).digest(16 * h + 8), "<u8")
        x = ((words >> 12) + 0.5) * 2.0**-52  # strictly inside (0, 1), so r > 0 and g != 0
        r = np.sqrt(-2.0 * np.log(x[:h]))
        g = (r * np.exp(2j * np.pi * x[h : 2 * h])).view(np.float64)[: self.dim]  # Box-Muller pairs
        scale = float(x[-1]) ** (1.0 / self.dim) * self.advertised_epsilon * self._diam * (1.0 - 1e-12)
        return g * (scale / math.sqrt(g @ g))

    def query(self, u) -> np.ndarray:
        u = _check_unit(u, self.dim)
        exact = self._vertex(u)
        if self.advertised_epsilon == 0.0 or self._diam == 0.0:
            return exact
        p = self._perturbation(u)
        budget = self.advertised_epsilon * self._diam
        best_score = float(u @ exact)
        for _ in range(8):
            x = exact + p
            ok_containment = float(np.linalg.norm(p)) <= budget
            ok_optimality = float(u @ x) >= best_score - budget
            if ok_containment and ok_optimality:
                return x
            p *= 0.5
        return exact


class SubsetSmoothingOracle(OptOracle):
    """Answers with the mean of the columns scoring highest along u.

    The subset size is ceil(fraction * n); score ties break toward lower
    column indices.  Answers depend only on the selected set, whose columns
    are averaged in index order, and the set only on the ranking of u.A_j, so
    the oracle is scale-equivariant in u and accepts any nonzero finite direction.
    """

    def __init__(self, data, fraction: float):
        pm = as_point_matrix(data)
        if pm.count < 1:
            raise ValueError("subset smoothing needs a nonempty data matrix")
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        self._data = pm
        self.dim = pm.dim
        self.fraction = float(fraction)
        self.subset_size = int(math.ceil(fraction * pm.count))
        self.advertised_epsilon = math.nan
        self._diam = None

    @property
    def reference_diameter(self) -> float:
        """diam(A) on first use, from O(n^2 d) explicit differences: seconds at
        n = 5000, d = 50.  Only ``separate_via_opt`` reads it, and nothing in
        the package hands that function a smoothing oracle.
        """
        if self._diam is None:
            self._diam = diameter(self._data)
        return self._diam

    def _selections(self, U):
        """Yield (start, chosen) per block of U's rows: the block's b x n selection masks.

        Row r of a block selects every column scoring above the
        subset_size-th largest score, then the lowest-index columns tying
        with it: the stable sorted prefix, found by O(n) selection.
        """
        U = _direction_rows(U, self.dim)
        A = self._data.entries
        n = A.shape[1]
        size = self.subset_size
        cut = n - size
        block = max(1, 2**16 // n)
        S = np.empty((min(block, U.shape[0]), n))
        for start in range(0, U.shape[0], block):
            rows = U[start : start + block]
            for what, ok in (("finite", np.isfinite(rows).all(axis=1)), ("nonzero", rows.any(axis=1))):
                if not ok.all():
                    raise ValueError(f"query direction {start + int(np.argmin(ok))} must be {what}")
            scores = S[: rows.shape[0]]
            # One matrix-vector product per row, never one matrix product for
            # the block: gemm scores differ from gemv ones in the last bits,
            # which would move near-tie selections with the batch size.
            for r, u in enumerate(rows):
                np.matmul(u, A, out=scores[r])
            kth = np.partition(scores, cut, axis=1)[:, cut, None]
            chosen = scores >= kth
            for r in np.flatnonzero(chosen.sum(axis=1) > size):
                row, k = chosen[r], kth[r, 0]
                row[:] = scores[r] > k
                row[np.flatnonzero(scores[r] == k)[: size - row.sum()]] = True
            yield start, chosen

    def top_indices(self, u) -> np.ndarray:
        """Indices of the subset_size columns scoring highest along u, ascending."""
        ((_, chosen),) = self._selections(np.reshape(u, (1, -1)))
        return np.flatnonzero(chosen[0])

    def query(self, u) -> np.ndarray:
        return self.query_batch(np.reshape(u, (1, -1)))[:, 0]

    def query_batch(self, U) -> np.ndarray:
        """Answer each row of U with the mean of its selected columns, in index order.

        Each distinct selected set is averaged once per call, so answers do
        not depend on the batch size or the row order.  An invalid row raises
        ValueError naming it.
        """
        U = _direction_rows(U, self.dim)
        A = self._data.entries
        answers = np.empty((self.dim, U.shape[0]))
        means: dict[bytes, np.ndarray] = {}
        for start, chosen in self._selections(U):
            for r, key in enumerate(np.packbits(chosen, axis=1)):
                key = key.tobytes()
                if key not in means:
                    means[key] = A[:, np.flatnonzero(chosen[r])].mean(axis=1)
                answers[:, start + r] = means[key]
        return answers


class NeedleOracle(OptOracle):
    """Adversarial oracle refusing information: every answer is the zero vector.

    Queries are logged as float32 rows, for building consistent needles, in a
    buffer that doubles when full.  ``queries`` is a read-only view of the rows
    logged so far: it copies nothing, and later queries leave it unchanged.
    """

    def __init__(self, dim: int):
        if dim < 4:
            raise ValueError("the needle construction needs dimension >= 4")
        self.dim = int(dim)
        self.advertised_epsilon = 8.0 * math.log(dim) / math.sqrt(dim)
        self._log = np.empty((_NEEDLE_LOG_ROWS, self.dim), dtype=np.float32)
        self._count = 0

    @property
    def reference_diameter(self) -> float:
        return 2.0

    @property
    def queries(self) -> np.ndarray:
        view = self._log[: self._count]
        view.flags.writeable = False
        return view

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, u) -> np.ndarray:
        # Via float64 even from float32, which differs only in quieting signalling NaNs.
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if u.shape[0] != self.dim:
            raise ValueError(f"query dim {u.shape[0]} != oracle dim {self.dim}")
        if self._count == len(self._log):  # a new buffer: earlier views keep the old one
            old, self._log = self._log, np.empty((2 * self._count, self.dim), dtype=np.float32)
            self._log[: self._count] = old
        self._log[self._count] = u
        self._count += 1
        return np.zeros(self.dim)


def exact_oracle(K: VPolytope) -> ExactOracle:
    return ExactOracle(K)


def noisy_oracle(K: VPolytope, epsilon: float, seed: int) -> NoisyOracle:
    return NoisyOracle(K, epsilon, seed)


def needle_oracle(d: int) -> NeedleOracle:
    return NeedleOracle(d)


@dataclass(frozen=True)
class OracleAudit:
    """Slack of one oracle answer against both contract clauses.

    containment_slack = dist(x, K) - eps*Delta   (pass: <= tol)
    optimality_slack  = u.x - max_y u.y + eps*Delta   (pass: >= -tol)
    """

    containment_slack: float
    optimality_slack: float
    passed: bool
    tol: float


def audit_answer(
    K: VPolytope,
    u,
    x,
    epsilon: float,
    tol: float = 1e-9,
    reference_diameter: float | None = None,
    dist_tol: float = 1e-9,
) -> OracleAudit:
    """Audit one oracle answer against a known polytope.

    ``reference_diameter`` overrides diam(K) as the scale of the allowed
    slack (useful when auditing a projected polytope against the ambient
    diameter).
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if u.shape[0] != K.dim or x.shape[0] != K.dim:
        raise ValueError("dimension mismatch between polytope, direction and answer")
    delta_k = K.diameter() if reference_diameter is None else float(reference_diameter)
    budget = epsilon * delta_k
    dist, _ = dist_to_hull(x, K.vertices, tol=max(dist_tol, 1e-12))
    support = float(np.max(u @ K.vertices.entries))
    containment_slack = dist - budget
    optimality_slack = float(u @ x) - support + budget
    passed = containment_slack <= tol and optimality_slack >= -tol
    return OracleAudit(containment_slack, optimality_slack, passed, tol)


def find_consistent_needles(
    queries: np.ndarray,
    dim: int,
    count: int = 2,
    seed: int = 0,
) -> np.ndarray:
    """Find ``count`` unit directions nearly orthogonal to every logged query.

    Each accepted u has max_i |u . v_i| <= 4*ln(d)/sqrt(d) over the query
    log, and |u - w| >= 0.1 and |u + w| >= 0.1 against every previously
    accepted w.  Rejection-samples random unit candidates in blocks of 64;
    raises RuntimeError once 10^7 candidates have been tried, and ValueError if
    a nonempty log is not m x dim or gives a candidate a non-finite score.
    Below d of about 680, 4*ln(d)/sqrt(d) > 1: the log test rejects no unit row.
    """
    if count < 1:
        raise ValueError(f"needle count must be positive, got {count}")
    threshold = 4.0 * math.log(dim) / math.sqrt(dim)
    V = np.asarray(queries)
    if V.dtype not in (np.float32, np.float64):
        V = V.astype(np.float64)
    if V.size and (V.ndim != 2 or V.shape[1] != dim):
        raise ValueError(f"query log must be an m x {dim} array, got shape {V.shape}")
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(_NEEDLE_CANDIDATES // _NEEDLE_BLOCK):
        for u in _unit_directions(rng, _NEEDLE_BLOCK, dim):
            if V.size:
                score = float(np.abs(V @ u.astype(V.dtype)).max())
                if not math.isfinite(score):
                    raise ValueError(f"query log gives a candidate the non-finite score {score}")
                if score > threshold:
                    continue
            # |(-u) - w| = |u + w| exactly, so one call tests both signs.
            signed = np.column_stack([u, -u])
            if found and _pairwise_distances(signed, np.column_stack(found)).min() < _NEEDLE_GAP:
                continue
            found.append(u)
            if len(found) == count:
                return np.stack(found)
    raise RuntimeError(
        f"needle search exhausted {_NEEDLE_CANDIDATES} candidates ({len(found)}/{count} found)"
    )
