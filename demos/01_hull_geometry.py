"""Hull distances, Hausdorff distance, and well-separation margins.

The building block for everything else in this library is the distance from
a point to the convex hull of a finite point set, solved by Wolfe's
min-norm-point algorithm over the coefficient simplex.  This script walks
through the basic quantities on small hand-checkable shapes.
"""

import numpy as np

import polylearn as pl


def main():
    triangle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([1.0, 1.0])
    d, witness = pl.dist_to_hull(x, triangle)
    print(f"dist((1,1), CH(triangle)) = {d:.6f}  (exact: 1/sqrt(2) = {1/np.sqrt(2):.6f})")
    print(f"witness coefficients: {np.round(witness.weights, 6)}")
    print(f"witness reconstructs: {np.round(triangle @ witness.weights, 6)}")

    square = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    shifted = square + np.array([[0.3], [0.0]])
    print(f"\nHausdorff(square, square shifted by 0.3) = {pl.hausdorff(square, shifted):.6f}")

    simplex = pl.VPolytope(np.eye(3))
    print(f"\nwell-separation of the standard simplex = {pl.well_separation(simplex):.4f}")
    print("(each vertex sits sqrt(3/2) from the opposite edge, diameter sqrt(2))")

    flat = pl.VPolytope(np.array([[0.0, 1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 1.0, 1.0, 0.5]]))
    print(f"square plus its centroid as a fifth vertex: separation = {pl.well_separation(flat):.2e}")
    print("(the centroid lies inside the hull of the others, so the margin collapses)")


if __name__ == "__main__":
    main()
