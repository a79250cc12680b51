"""Why dimension-scaled oracle error is necessary: the needle construction.

An oracle that always answers zero is a perfectly valid optimization oracle
with error 8*ln(d)/sqrt(d) for many different "needle" polytopes
{t*u : t in [-1, 1]} at once.  After polynomially many queries there remain
two needle directions, far apart from each other, both consistent with every
answer given, so no algorithm can name a point close to a vertex of the true
polytope.  This script runs the construction at a modest scale.
"""

import math

import numpy as np

import polylearn as pl


def main():
    d = 200
    q = 5000
    oracle = pl.NeedleOracle(d)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((q, d))
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    for i in range(q):
        oracle.query(G[i])
    log = oracle.queries

    threshold = 4.0 * math.log(d) / math.sqrt(d)
    eps = 8.0 * math.log(d) / math.sqrt(d)
    u1, u2 = pl.find_consistent_needles(log, d, count=2, seed=1)
    print(f"d = {d}, {q} queries answered with the zero vector")
    print(f"consistency threshold 4*ln(d)/sqrt(d) = {threshold:.3f}")
    for name, u in (("u1", u1), ("u2", u2)):
        worst = float(np.abs(log.astype(np.float64) @ u).max())
        print(f"  {name}: max |u.v_i| over the query log = {worst:.3f}")
    print(f"  |u1 - u2| = {np.linalg.norm(u1 - u2):.3f}, "
          f"|u1 + u2| = {np.linalg.norm(u1 + u2):.3f}")

    K1 = pl.VPolytope(np.column_stack([-u1, u1]))
    audit = pl.audit_answer(K1, log[0].astype(np.float64), np.zeros(d), epsilon=eps)
    print(f"  zero answer audits as valid for needle u1: {audit.passed}")

    gaps = [
        np.linalg.norm(s1 * u1 - s2 * u2)
        for s1 in (1, -1)
        for s2 in (1, -1)
    ]
    print(f"  smallest gap between vertices of the two needles: {min(gaps):.3f}")
    print(f"  2 * diam/10 = 0.4, so no point is within diam/10 of a vertex of both")


if __name__ == "__main__":
    main()
