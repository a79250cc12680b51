"""Learning a polytope by probing an optimization oracle at random directions.

The convex hull of the oracle answers approximates K in Hausdorff distance,
and with well-separated vertices the answer list contains a point near every
vertex.  Both effects are visible at desk scale with modest probe counts,
far below the worst-case theory recommendation (which this script prints
for contrast).
"""

import numpy as np

import polylearn as pl


def main():
    square = pl.VPolytope(np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))
    oracle = pl.ExactOracle(square)
    for m in (5, 20, 100, 500):
        _, report = pl.hausdorff_learn(oracle, m, truth=square, seed=7)
        print(f"m = {m:>3} probes: Hausdorff to truth = {report.hausdorff_to_truth:.4f}")
    rec = pl.recommended_probe_count(4, 0.05)
    print(f"(worst-case recommendation for delta = 0.05: m = {rec:.3g})")

    print("\nlist learning on a well-separated triangle with a noisy oracle:")
    K = pl.gen_well_separated_polytope(2, 3, delta_target=0.35, seed=11)
    noisy = pl.NoisyOracle(K, epsilon=1e-3, seed=12)
    _, report = pl.list_learn(noisy, (3, 0.35), 3000, truth=K, seed=13)
    print(f"  per-vertex errors: {np.round(report.per_vertex_error, 6)}")
    print(f"  target delta*diam/10 = {0.35 * K.diameter() / 10:.4f} -> success = {report.success}")


if __name__ == "__main__":
    main()
