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
import mmap
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import (
    VPolytope,
    _pairwise_distances,
    _row_dots,
    as_point_matrix,
    diameter,
    dist_to_hull,
)

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
# of the block), the least distance from a needle to earlier ones and their
# negations, and the log scans made before the log's norm bound, which costs
# about two scans (one BLAS dot per row against one threaded matrix-vector
# product), is computed.
_NEEDLE_BLOCK = 64
_NEEDLE_CANDIDATES = 10**7
_NEEDLE_GAP = 0.1
_NEEDLE_SCANS_BEFORE_BOUND = 2
_NEEDLE_LOG_ROWS = 1024  # NeedleOracle's log rows before its first doubling
# The log's anonymous map: private, since a shared one resized by mremap raised
# SIGBUS on the first write past its old end (Windows has no MAP_PRIVATE).
_LOG_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
# SubsetSmoothingOracle.query_batch: rows answered by full selection first,
# rows per margin-test block, the rows a recurring set must be expected to
# answer before its hulls are built, per data dimension (3 to 5 times the
# measured cost of one set's two hulls, on LkP data with n = 500 to 10^5),
# and the margin's allowance for qhull's tolerances and the test's own
# rounding, in units of |u|_1*max|A|.  The row counts are in full-selection
# rows (gemv and partition), measured when rows without hulls took it.
_HEAD_ROWS = 64
_CERT_BLOCK = 1024
_CERT_ROWS = {2: 250, 3: 300, 4: 2000, 5: 9000}
_CERT_SLACK = 1e-9


def _not_unit(n: float) -> ValueError:
    return ValueError(f"query direction must be a unit vector, got norm {n!r}")


def _probe_failure(i: int, exc: Exception) -> RuntimeError:
    return RuntimeError(f"oracle failed on probe {i}: {exc}")


def _check_unit(u, dim: int) -> np.ndarray:
    # ravel makes u contiguous, so its dot products take the BLAS path of a batch's rows.
    u = np.asarray(u, dtype=np.float64).ravel()
    n = float(np.linalg.norm(u))
    if not (1.0 - _UNIT_NORM_TOL <= n <= 1.0 + _UNIT_NORM_TOL):
        raise _not_unit(n)
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
                raise _probe_failure(i, exc) from exc
        return answers


class ExactOracle(OptOracle):
    """Zero-error oracle: returns the vertex maximizing u.v.

    Ties break toward the lowest vertex index, so answers are deterministic.
    ``query`` is a one-row batch, so a row's answer does not depend on how
    it is asked.
    """

    def __init__(self, K: VPolytope):
        self._K = K
        self.dim = K.dim
        self.advertised_epsilon = 0.0
        self._diam = K.diameter()

    @property
    def reference_diameter(self) -> float:
        return self._diam

    def query(self, u) -> np.ndarray:
        return self._answer_rows(_check_unit(u, self.dim)[None])[0]

    def _unit_rows(self, U) -> np.ndarray:
        """U as contiguous m x dim rows, each checked as ``query`` checks it.

        The lowest row off the unit sphere raises RuntimeError naming it, as
        the default ``query_batch`` does, before any row is answered.
        """
        U = np.ascontiguousarray(_direction_rows(U, self.dim))
        norms = np.sqrt(_row_dots(U, U))
        ok = (1.0 - _UNIT_NORM_TOL <= norms) & (norms <= 1.0 + _UNIT_NORM_TOL)
        if not ok.all():
            i = int(np.argmin(ok))
            exc = _not_unit(float(norms[i]))
            raise _probe_failure(i, exc) from exc
        return U

    def _answer_rows(self, U: np.ndarray) -> np.ndarray:
        """The vertex maximizing u.v for each checked row u of U, as the rows of an m x dim array.

        One matrix-vector product per row, so the bits do not depend on the
        other rows: a single ``U @ V`` product rounds differently and could
        move near-ties.
        """
        V = self._K.vertices.entries
        return np.ascontiguousarray(V.T[np.matmul(U[:, None, :], V)[:, 0, :].argmax(axis=1)])

    def query_batch(self, U) -> np.ndarray:
        """Answer each row of the m x dim array U; returns the dim x m answers.

        Row i's answer equals ``query(U[i])`` bit for bit.  Rows go in
        blocks of about 2^16 scores or coordinates, so temporaries stay
        small whatever m is.
        """
        U = self._unit_rows(U)
        answers = np.empty_like(U)
        block = max(1, 2**16 // max(self.dim, self._K.count))
        for start in range(0, U.shape[0], block):
            answers[start : start + block] = self._answer_rows(U[start : start + block])
        return answers.T


class NoisyOracle(ExactOracle):
    """Exact answer plus a perturbation uniform in the ball of radius eps*diam(K).

    Box-Muller pairs and a radius turn the uniforms of one ``shake_256`` hash of
    the query bits and the seed, which must lie in [-2^63, 2^63), into the
    perturbation, so answers are a pure function of (query bits, seed).  It
    keeps both oracle clauses valid; a post-hoc check still halves it if
    floating point ever lands an answer outside the advertised contract.  If
    8 halvings do not bring it back, the oracle silently returns the exact
    vertex, which meets the contract at any epsilon.

    A block of rows is answered at once, and each row's bits do not depend on
    the block: one hash per row, Box-Muller and the re-check on the whole
    block, every dot product and norm as one BLAS dot per row
    (``_row_dots``), and the radius ``x^(1/d)`` per row with Python's
    ``pow``, since numpy's vectorized power can differ in the last bit.  The
    re-check halves only the rows still outside the contract.
    """

    def __init__(self, K: VPolytope, epsilon: float, seed: int):
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if not -(2**63) <= int(seed) < 2**63:
            raise ValueError(f"noisy oracle seed {seed} is outside [-2^63, 2^63)")
        super().__init__(K)
        self.advertised_epsilon = float(epsilon)
        self._seed_bytes = int(seed).to_bytes(8, "little", signed=True)

    def _perturbations(self, U: np.ndarray) -> np.ndarray:
        """The perturbation of each row of U, as the rows of an m x dim array."""
        h = (self.dim + 1) // 2
        size = 16 * h + 8
        digests = b"".join(hashlib.shake_256(u.tobytes() + self._seed_bytes).digest(size) for u in U)
        words = np.frombuffer(digests, "<u8").reshape(U.shape[0], 2 * h + 1)
        x = ((words >> 12) + 0.5) * 2.0**-52  # strictly inside (0, 1), so r > 0 and g != 0
        r = np.sqrt(-2.0 * np.log(x[:, :h]))
        g = (r * np.exp(2j * np.pi * x[:, h : 2 * h])).view(np.float64)[:, : self.dim]  # Box-Muller pairs
        radius = np.array([v ** (1.0 / self.dim) for v in x[:, -1].tolist()])
        scale = radius * self.advertised_epsilon * self._diam * (1.0 - 1e-12)
        return g * (scale / np.sqrt(_row_dots(g, g)))[:, None]

    def _answer_rows(self, U: np.ndarray) -> np.ndarray:
        """The perturbed vertex for each checked row of U, as the rows of an m x dim array."""
        exact = super()._answer_rows(U)
        if self.advertised_epsilon == 0.0 or self._diam == 0.0:
            return exact
        P = self._perturbations(U)
        budget = self.advertised_epsilon * self._diam
        floor = _row_dots(U, exact) - budget
        answers = exact.copy()
        rows = np.arange(U.shape[0])
        for _ in range(8):
            p = P[rows]
            x = exact[rows] + p
            ok = (np.sqrt(_row_dots(p, p)) <= budget) & (_row_dots(U[rows], x) >= floor[rows])
            answers[rows[ok]] = x[ok]
            rows = rows[~ok]
            if not rows.size:
                break
            P[rows] *= 0.5
        return answers


class SubsetSmoothingOracle(OptOracle):
    """Answers with the mean of the columns scoring highest along u.

    The subset size is ceil(fraction * n); score ties break toward lower
    column indices.  Answers depend only on the selected set, whose columns
    are averaged in index order, and the set only on the ranking of u.A_j, so
    the oracle is scale-equivariant in u and accepts any nonzero finite direction.

    ``query_batch`` reuses the selected sets that recur.  Its first 64 rows
    take the full selection: score all n columns, select.  Each set S chosen
    there by c >= 2 rows, with r rows left, gets two point sets.  When
    r*c/64 reaches a row count set per dimension (``_CERT_ROWS``; never at a
    dimension it does not list), they are the hull points P_S of S's columns
    and P_C of the others, that is qhull's vertices and coplanar points, or
    all of a side's columns when qhull fails (flat or duplicate data), the
    side has at most dim+1 columns, or dim = 1; otherwise P_S is S's columns
    and P_C all other columns.  A later row u guesses the set whose mean
    scores highest along u and takes that set's answer when

        min(u @ P_S) - max(u @ P_C) > (4*gamma_dim + 1e-9) * |u|_1 * max|A|,

    with gamma_dim = dim*eps/(1 - dim*eps) and eps = 2^-53; every other row
    takes the full selection.  Why this proves the full selection picks S:
    a computed dot product of u with a column h differs from the exact one
    by at most gamma_dim*sum_i |u_i*h_i| <= e = gamma_dim*|u|_1*max|A|, in
    any summation order, with or without fused multiply-adds (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1), and this
    holds for the full selection's gemv and the test's gemm alike.  The
    exact minimum of u.x over S is attained at a point of P_S and the exact
    maximum over the other columns at a point of P_C.  So every column of S
    gets a computed score of at least min(u @ P_S) - 2e and every other
    column at most max(u @ P_C) + 2e: past 4e, each column of S outscores
    each other column strictly, no tie at the cut is left, and the size-|S|
    selection is S.  qhull leaves out only points it finds below every
    facet by more than its distance tolerances, which are a small multiple
    of dim*eps*max|A| (with "Qc", a point within them of a facet is kept as
    coplanar); such a point lies within that distance of the kept points'
    hull and can exceed max(u @ P) by |u|_2 times it at most, far below
    the 1e-9 term, which also covers the rounding of the test's own
    subtraction and of |u|_1*max|A|.  Rows with |u|_1*max|A| outside
    [2^-900, 2^1000] make no guess: below it, the absolute error of
    products that underflow could exceed the margin, and above it, scores
    could overflow.
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
        self._max_abs = max(float(pm.entries.max()), -float(pm.entries.min()))
        gamma = self.dim * 2.0**-53 / (1.0 - self.dim * 2.0**-53)
        self._margin = 4.0 * gamma + _CERT_SLACK

    @property
    def reference_diameter(self) -> float:
        """diam(A) on first use, from O(n^2 d) explicit differences: seconds at
        n = 5000, d = 50.  Only ``separate_via_opt`` reads it, and nothing in
        the package hands that function a smoothing oracle.
        """
        if self._diam is None:
            self._diam = diameter(self._data)
        return self._diam

    def _rows(self, U) -> np.ndarray:
        """U as m x dim rows; the lowest row that is not finite and nonzero raises ValueError."""
        U = _direction_rows(U, self.dim)
        finite = np.isfinite(U).all(axis=1)
        ok = finite & U.any(axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"query direction {i} must be {'nonzero' if finite[i] else 'finite'}")
        return U

    def _selections(self, U):
        """Yield (rows, chosen) per block of the checked rows U: the selection masks of U's rows ``rows``.

        Row r of ``chosen`` selects every column scoring above the
        subset_size-th largest score, then the lowest-index columns tying
        with it: the stable sorted prefix, found by O(n) selection.
        """
        A = self._data.entries
        n = A.shape[1]
        size = self.subset_size
        cut = n - size
        block = max(1, 2**16 // n)
        S = np.empty((min(block, U.shape[0]), n))
        for start in range(0, U.shape[0], block):
            rows = U[start : start + block]
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
            yield range(start, start + rows.shape[0]), chosen

    def top_indices(self, u) -> np.ndarray:
        """Indices of the subset_size columns scoring highest along u, ascending."""
        ((_, chosen),) = self._selections(self._rows(np.reshape(u, (1, -1))))
        return np.flatnonzero(chosen[0])

    def query(self, u) -> np.ndarray:
        return self.query_batch(np.reshape(u, (1, -1)))[:, 0]

    def _exact(self, U, out, means: dict) -> Counter:
        """Answer each checked row of U with its selected set's mean, into the same column of ``out``.

        ``means`` gains the answer of each set not in it yet.  Returns how
        many rows selected each set, keyed like ``means``.
        """
        A = self._data.entries
        counts = Counter()
        for rows, chosen in self._selections(U):
            for r, key in enumerate(np.packbits(chosen, axis=1)):
                key = key.tobytes()
                if key not in means:
                    means[key] = A[:, np.flatnonzero(chosen[r])].mean(axis=1)
                counts[key] += 1
                out[:, rows[r]] = means[key]
        return counts

    def _hull_points(self, mask) -> np.ndarray:
        """The columns of the data picked by ``mask`` that span their hull, as a dim x h array."""
        P = self._data.entries[:, mask]
        if self.dim == 1 or P.shape[1] <= self.dim + 1:
            return P
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(P.T, qhull_options="Qc")
        except QhullError:  # flat columns, such as all equal or on a line
            return P
        return P[:, np.union1d(hull.vertices, hull.coplanar[:, 0])]

    def _reusable(self, counts: Counter, means: dict, left: int) -> list[tuple[np.ndarray, ...]]:
        """(mean, P, inside) for each set at least 2 of the head rows' ``counts`` chose, given ``left`` rows.

        P holds the point sets P_S (its columns ``inside``) and P_C of the
        class docstring: the two hulls' points where the cost rule pays for
        them, else the data itself.
        """
        need = _CERT_ROWS.get(self.dim)
        head = counts.total()
        sets = []
        for key, count in counts.items():
            if count < 2:
                continue
            mask = np.unpackbits(np.frombuffer(key, np.uint8), count=self._data.count).astype(bool)
            if need is not None and left * count >= need * head:
                HS = self._hull_points(mask)
                sets.append((means[key], np.hstack([HS, self._hull_points(~mask)]), np.arange(HS.shape[1])))
            else:
                sets.append((means[key], self._data.entries, np.flatnonzero(mask)))
        return sets

    def _proved(self, rows, sets) -> np.ndarray:
        """Per row, the index in ``sets`` (``_reusable``) of its guess if the margin test proves it, or -1.

        A row fails once a column of P_C scores at least min(u @ P_S) -
        margin*|u|_1*max|A|.  Hull points are scored and tested for all the
        rows guessing the set at once.  The data's columns are scored by one
        matrix product per block of at most 32 rows and 2^20 scores, into one
        buffer, and tested row by row while the row's scores are in cache.
        """
        which = np.full(rows.shape[0], -1)
        if not sets:
            return which
        A = self._data.entries
        scale = np.abs(rows).sum(axis=1) * self._max_abs
        guess = (rows @ np.column_stack([mean for mean, _, _ in sets])).argmax(axis=1)
        guess[(scale < 2.0**-900) | (scale > 2.0**1000)] = -1
        block = max(1, min(32, 2**20 // A.shape[1]))
        buf = np.empty((block, A.shape[1]))
        for g, (_, P, inside) in enumerate(sets):
            r = np.flatnonzero(guess == g)
            margins = self._margin * scale[r]
            if P is not A:
                scores = rows[r] @ P
                floor = scores[:, inside].min(axis=1) - margins
                ok = np.count_nonzero(scores >= floor[:, None], axis=1)
            else:
                ok = []
                for start in range(0, r.size, block):
                    rb = r[start : start + block]
                    scores = np.matmul(rows[rb], A, out=buf[: rb.size])
                    for s, e in zip(scores, margins[start:]):
                        ok.append(np.count_nonzero(s >= np.take(s, inside).min() - e))
            which[r[np.equal(ok, inside.size)]] = g
        return which

    def query_batch(self, U) -> np.ndarray:
        """Answer each row of U with the mean of its selected columns, in index order.

        Each distinct selected set is averaged once per call, and a row
        whose margin test holds (see the class docstring) gets the same
        bits as its full selection, so answers do not depend on the batch
        size or the row order.  An invalid row raises ValueError naming the
        lowest one, before any row is answered.
        """
        U = self._rows(U)
        m = U.shape[0]
        answers = np.empty((self.dim, m))
        means: dict[bytes, np.ndarray] = {}
        head = min(m, _HEAD_ROWS)
        sets = self._reusable(self._exact(U[:head], answers, means), means, m - head)
        for start in range(head, m, _CERT_BLOCK):
            rows = U[start : start + _CERT_BLOCK]
            which = self._proved(rows, sets)
            for g, (mean, _, _) in enumerate(sets):
                answers[:, start + np.flatnonzero(which == g)] = mean[:, None]
            rest = np.flatnonzero(which < 0)
            exact = np.empty((self.dim, rest.size))
            self._exact(rows[rest], exact, means)
            answers[:, start + rest] = exact
        return answers


class NeedleOracle(OptOracle):
    """Adversarial oracle refusing information: every answer is the zero vector.

    Queries are logged as float32 rows, for building consistent needles, in
    one private anonymous memory map that doubles when full.  ``queries`` is a
    read-only view of the rows logged so far: it copies nothing, and later
    queries leave it unchanged.  Growth resizes the map in place (mremap moves
    page tables and copies no data) unless a view from ``queries`` is alive or
    the platform cannot resize maps (no mremap, e.g. macOS); then the rows are
    copied into a fresh map and the views keep the old one.
    """

    def __init__(self, dim: int):
        if dim < 4:
            raise ValueError("the needle construction needs dimension >= 4")
        self.dim = int(dim)
        self.advertised_epsilon = 8.0 * math.log(dim) / math.sqrt(dim)
        self._buf = mmap.mmap(-1, _NEEDLE_LOG_ROWS * 4 * self.dim, **_LOG_MAP_FLAGS)
        self._log = self._rows(self._buf)
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

    def _rows(self, buf: mmap.mmap) -> np.ndarray:
        return np.frombuffer(buf, dtype=np.float32).reshape(-1, self.dim)

    def _grow(self, rows: int) -> None:
        """Double the log until it holds ``rows``: in place, or by a copy that earlier views do not see."""
        size = 2 * len(self._log)
        while size < rows:
            size *= 2
        nbytes = size * 4 * self.dim
        self._log = None  # our own view of the map would block the resize
        try:
            try:
                self._buf.resize(nbytes)
            except (BufferError, SystemError, OSError):  # a live view, or no mremap
                buf = mmap.mmap(-1, nbytes, **_LOG_MAP_FLAGS)
                self._rows(buf)[: self._count] = self._rows(self._buf)[: self._count]
                self._buf = buf
        finally:
            self._log = self._rows(self._buf)

    def query(self, u) -> np.ndarray:
        # Via float64 even from float32, which differs only in quieting signalling NaNs.
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if u.shape[0] != self.dim:
            raise ValueError(f"query dim {u.shape[0]} != oracle dim {self.dim}")
        if self._count == len(self._log):
            self._grow(self._count + 1)
        self._log[self._count] = u
        self._count += 1
        return np.zeros(self.dim)

    def query_batch(self, U) -> np.ndarray:
        """Log the rows of the m x dim array U, each as ``query`` logs it; returns dim x m zeros."""
        U = _direction_rows(U, self.dim)  # float64 first, as in ``query``
        end = self._count + U.shape[0]
        if end > len(self._log):
            self._grow(end)
        self._log[self._count : end] = U
        self._count = end
        return np.zeros((self.dim, U.shape[0]))


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


def _log_can_reject(V: np.ndarray, dim: int, threshold: float) -> bool:
    """Whether some computed score |v . u| of a log row v and a unit candidate u can exceed ``threshold``.

    A computed score is at most max|v| * |u| times 1 + gamma_d (the scan's
    dot product, at the log's precision) + the rounding of u's cast to that
    precision, of |u| and of the squared norms: less than 1 + 3*gamma_{d+4},
    whose 4 spare units also cover products that underflow (an absolute
    d*2^-149 at most).  A NaN or infinite norm answers True, so the scan
    runs and raises on it.
    """
    roundoff = float(np.finfo(V.dtype).eps) / 2.0
    gamma = (dim + 4) * roundoff / (1.0 - (dim + 4) * roundoff)
    top = math.sqrt(float(_row_dots(V, V).max()))
    return not top * (1.0 + 3.0 * gamma) <= threshold


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
    From the third candidate on, the log is scanned only if it can reject
    one (``_log_can_reject``).
    """
    if count < 1:
        raise ValueError(f"needle count must be positive, got {count}")
    threshold = 4.0 * math.log(dim) / math.sqrt(dim)
    V = np.asarray(queries)
    if V.dtype not in (np.float32, np.float64):
        V = V.astype(np.float64)
    if V.size and (V.ndim != 2 or V.shape[1] != dim):
        raise ValueError(f"query log must be an m x {dim} array, got shape {V.shape}")
    scan, scans = V.size > 0, 0
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(_NEEDLE_CANDIDATES // _NEEDLE_BLOCK):
        for u in _unit_directions(rng, _NEEDLE_BLOCK, dim):
            if scan and scans == _NEEDLE_SCANS_BEFORE_BOUND:
                scan = _log_can_reject(V, dim, threshold)
            if scan:
                scans += 1
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
