"""Turning an optimization oracle into a separation routine.

Given only direction queries x(u) to an approximate optimization oracle over
K, a point a outside the softened polytope can be separated by testing
u.a > u.x(u) + delta*diam/(11*sqrt(d)) on random unit directions.  Any
direction passing the test certifiably separates with margin at least
delta*diam/(20*sqrt(d)) when the oracle error is below delta/(100*sqrt(d)).
"""

import math

import numpy as np

import polylearn as pl


def main():
    d = 10
    K = pl.example1_segment(d)
    oracle = pl.ExactOracle(K)

    a = np.zeros(d)
    a[1] = 0.5  # distance 0.5 from the unit segment: delta = 0.5
    res = pl.separate_via_opt(a, oracle, delta=0.5, d=d, num_queries=100_000, seed=0)
    print(f"far point: verdict = {res.verdict.value} after {res.queries_used} queries")
    true_margin = pl.margin(res.separator, a, K)
    certified = 0.5 * K.diameter() / (20.0 * math.sqrt(d))
    print(f"  separator margin against the true K: {true_margin:.4f} (certified floor {certified:.4f})")

    vertex = K.vertices.column(1)
    res2 = pl.separate_via_opt(vertex, oracle, delta=0.5, d=d, num_queries=5000, seed=1)
    print(f"\na vertex of K itself: verdict = {res2.verdict.value} "
          f"(no direction can pass the test)")

    budget = pl.recommended_query_budget(K.count, 0.5)
    print(f"\nrecommended query budget for k = 2, delta = 0.5: {budget}")


if __name__ == "__main__":
    main()
