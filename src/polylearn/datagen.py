"""Synthetic instances: latent-polytope data sets, mixtures, and fixed fixtures.

The latent-polytope (LkP) data model: hidden points P_j inside a k-vertex
polytope K are observed as A_j = P_j + displacement.  The displacement scale
is sigma0 = ||P - A|| / sqrt(n) (spectral norm), and a w0 fraction of the
latent points sits within sigma0/sqrt(w0) of every vertex.  Generators here
always measure sigma0 from the realized matrices rather than trusting the
noise parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointMatrix, VPolytope, _hull_distances, _pairwise_distances, well_separation

__all__ = [
    "LkpInstance",
    "spectral_norm",
    "gen_well_separated_polytope",
    "gen_lkp",
    "gen_two_gaussian_mixture",
    "fixtures",
    "example1_segment",
    "example2_sphere",
]


def _gram_top_eigs(B: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k singular values of B, descending, and eigenvectors of its smaller Gram.

    The vectors are left singular vectors (of B B^T) when B has no more rows
    than columns, else right ones (of B^T B).  With max|B| = m * 2^e, m in
    [1/2, 1), while |e| <= 128 the Gram of B itself is formed and B is never
    copied; outside that window the Gram of the copy B * 2^-e is, and the
    values are scaled back by 2^e.  Powers of two scale exactly, and inside
    the window LAPACK does not rescale the Gram either, so both give the same
    bits there.  Raises ValueError on NaN or infinite entries.
    """
    peak = max(float(B.max()), -float(B.min()))  # NaN if any entry is NaN
    if not math.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    e = math.frexp(peak)[1]
    e = e if abs(e) > 128 else 0
    B = np.ldexp(B, -e) if e else B
    w, V = np.linalg.eigh(B @ B.T if B.shape[0] <= B.shape[1] else B.T @ B)
    top = slice(-1, -k - 1, -1)
    return np.ldexp(np.sqrt(np.clip(w[top], 0.0, None)), e), np.ascontiguousarray(V[:, top])


def spectral_norm(B: np.ndarray) -> float:
    """Largest singular value of B, from the exact eigendecomposition of its smaller Gram."""
    B = np.asarray(B, dtype=np.float64)
    return float(_gram_top_eigs(B, 1)[0][0]) if B.size else 0.0


@dataclass(frozen=True, eq=False)
class LkpInstance:
    """A latent-polytope data set with its ground truth.

    M: true polytope; P: latent points (columns in CH(M)); A: observations;
    cluster_sets[l]: indices of the latent points placed at vertex l.
    sigma0 is measured, never assumed.
    """

    M: VPolytope
    P: PointMatrix
    A: PointMatrix
    w0: float
    sigma0: float
    cluster_sets: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.P.count

    @property
    def k(self) -> int:
        return self.M.count

    @property
    def dim(self) -> int:
        return self.M.dim

    def validate(self, tol: float = 1e-7) -> None:
        """Self-audit of the data-model invariants; raises on violation."""
        n = self.n
        if self.A.count != n or self.A.dim != self.dim or self.P.dim != self.dim:
            raise ValueError("inconsistent matrix shapes")
        if n == 0:
            raise ValueError("P holds no latent points (n = 0)")
        measured = spectral_norm(self.P.entries - self.A.entries) / math.sqrt(n)
        if abs(measured - self.sigma0) > 1e-6 * max(measured, 1.0):
            raise ValueError(
                f"stored sigma0 = {self.sigma0} disagrees with measured {measured}"
            )
        radius = self.sigma0 / math.sqrt(self.w0)
        min_count = self.w0 * n
        V = self.M.vertices.entries
        for ell, idx in enumerate(self.cluster_sets):
            if idx.size < min_count - 1e-9:
                raise ValueError(f"cluster {ell} has {idx.size} < w0*n points")
            worst = float(_pairwise_distances(self.P.entries[:, idx], V[:, [ell]]).max(initial=0.0))
            if worst > radius + tol:
                raise ValueError(
                    f"cluster {ell} latent point at {worst} > sigma0/sqrt(w0) = {radius}"
                )
        scale = max(self.M.diameter(), 1.0)
        dists, _ = _hull_distances(self.P.entries, V, min(tol, 1e-7))
        outside = np.flatnonzero(dists > tol * scale)
        if outside.size:
            j = int(outside[0])
            raise ValueError(f"latent point {j} lies {float(dists[j])} outside CH(M)")


def gen_well_separated_polytope(
    d: int,
    k: int,
    delta_target: float,
    seed: int,
    max_attempts: int = 10_000,
) -> VPolytope:
    """Rejection-sample Gaussian vertex sets until the separation target holds.

    Coplanar configurations are allowed (k may exceed d+1); raises
    RuntimeError when the sampling budget runs out.
    """
    if k < 2:
        raise ValueError("need at least two vertices for a separated polytope")
    if not math.isfinite(delta_target):
        raise ValueError(f"delta_target must be finite, got {delta_target}")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        V = rng.standard_normal((d, k))
        K = VPolytope(PointMatrix(V))
        if well_separation(K) >= delta_target:
            return K
    raise RuntimeError(
        f"no {delta_target}-well-separated polytope found in {max_attempts} attempts"
    )


def gen_lkp(
    M: VPolytope,
    n: int,
    w0: float,
    noise_scale: float,
    seed: int,
    validate: bool = True,
) -> LkpInstance:
    """Generate an LkP instance over a known polytope.

    ceil(w0*n) latent points are placed at each vertex (these are the
    clusters, so the radius clause holds with room to spare); the remaining
    latent points are Dirichlet(1,..,1) combinations of the vertices.
    Observations add i.i.d. Gaussian entries of scale ``noise_scale``;
    sigma0 is then measured as an exact spectral norm.
    """
    k = M.count
    d = M.dim
    if n < 1:
        raise ValueError(f"point count n must be positive, got {n}")
    if not (0.0 < w0 <= 1.0):
        raise ValueError("w0 must lie in (0, 1]")
    if not (math.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale!r}")
    cluster_size = int(math.ceil(w0 * n))
    if cluster_size * k > n:
        raise ValueError(
            f"infeasible cluster layout: ceil(w0*n)*k = {cluster_size * k} > n = {n} "
            "(w0*k may not exceed 1)"
        )
    rng = np.random.default_rng(seed)
    V = M.vertices.entries
    P = np.empty((d, n))
    clusters = []
    for ell in range(k):
        idx = np.arange(ell * cluster_size, (ell + 1) * cluster_size)
        P[:, idx] = V[:, [ell]]
        clusters.append(idx)
    rest = np.arange(k * cluster_size, n)
    if rest.size:
        coeffs = rng.dirichlet(np.ones(k), size=rest.size)
        P[:, rest] = V @ coeffs.T
    A = rng.standard_normal((d, n))
    A *= noise_scale
    A += P
    sigma0 = spectral_norm(P - A) / math.sqrt(n)
    inst = LkpInstance(
        M=M,
        P=PointMatrix(P),
        A=PointMatrix(A),
        w0=float(w0),
        sigma0=float(sigma0),
        cluster_sets=tuple(clusters),
    )
    if validate:
        inst.validate()
    return inst


def gen_two_gaussian_mixture(
    d: int,
    n: int,
    v_norm: float = 10.0,
    seed: int = 0,
    validate: bool = True,
) -> LkpInstance:
    """Equal-weight mixture of two unit Gaussians centered at -v and +v.

    The true polytope is the segment {-v, +v} with |v| = v_norm (diameter
    2*v_norm); latent points are the centers under a fair seeded assignment
    and observations add standard Gaussian noise.
    """
    if n < 1:
        raise ValueError(f"point count n must be positive, got {n}")
    if n % 2 != 0:
        raise ValueError("n must be even for a fair two-component assignment")
    if not (math.isfinite(v_norm) and v_norm > 0.0):
        raise ValueError(f"v_norm must be finite and positive, got {v_norm!r}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v *= v_norm / np.linalg.norm(v)
    labels = rng.permutation(np.repeat([0, 1], n // 2))
    V = np.column_stack([v, -v])
    P = V[:, labels]
    A = rng.standard_normal((d, n))
    A += P
    sigma0 = spectral_norm(P - A) / math.sqrt(n)
    inst = LkpInstance(
        M=VPolytope(PointMatrix(V)),
        P=PointMatrix(P),
        A=PointMatrix(A),
        w0=0.5,
        sigma0=float(sigma0),
        cluster_sets=(np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)),
    )
    if validate:
        inst.validate()
    return inst


def example1_segment(dim: int = 50) -> VPolytope:
    """Two vertices one unit apart: the origin and e1, embedded in R^dim."""
    V = np.zeros((dim, 2))
    V[0, 1] = 1.0
    return VPolytope(PointMatrix(V))


def example2_sphere(k: int = 16, dim: int = 8) -> VPolytope:
    """k vertices on the unit circle in coordinates 2 and 3 of R^dim.

    A discretized cross-section sphere: the point e1 sits at distance 1 from
    its hull while the diameter is 2 (k even), so delta = 1/2 regardless of k.
    """
    if dim < 3:
        raise ValueError("needs ambient dimension >= 3")
    if k < 3:
        raise ValueError("needs at least 3 vertices")
    angles = 2.0 * np.pi * np.arange(k) / k
    V = np.zeros((dim, k))
    V[1] = np.cos(angles)
    V[2] = np.sin(angles)
    return VPolytope(PointMatrix(V))


def _ring(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(count) / count
    return center[:, None] + radius * np.vstack([np.cos(angles), np.sin(angles)])


def fixtures() -> dict[str, PointMatrix]:
    """Deterministic named fixtures (no RNG; bit-identical across runs).

    two-cluster          five points each around (0,0) and (1,0), radius 0.01
    two-rings            8-point rings of radius 0.008 around (0,0) and (0,1)
    square-plus-midpoint unit square corners plus the midpoint of the top edge
    needle-pair          two orthogonal unit needle directions in R^8
    example1-segment     two points one unit apart in R^50
    example2-sphere      16 points on a unit circle inside R^8
    """
    star = 0.01 * np.array([[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]])
    cluster1 = star.copy()
    cluster2 = star + np.array([[1.0], [0.0]])
    square_mid = np.array(
        [[0.0, 1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 1.0, 1.0, 1.0]]
    )
    needles = np.zeros((8, 2))
    needles[0, 0] = 1.0
    needles[1, 1] = 1.0
    return {
        "two-cluster": PointMatrix(np.hstack([cluster1, cluster2])),
        "two-rings": PointMatrix(
            np.hstack([_ring(np.array([0.0, 0.0]), 0.008, 8), _ring(np.array([0.0, 1.0]), 0.008, 8)])
        ),
        "square-plus-midpoint": PointMatrix(square_mid),
        "needle-pair": PointMatrix(needles),
        "example1-segment": example1_segment(50).vertices,
        "example2-sphere": example2_sphere(16, 8).vertices,
    }
