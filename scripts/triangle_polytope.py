#!/usr/bin/env python3
"""Map the cancellation polytope of an extension of O(k)^m by O(-k)^m on P^1.

Serre-symmetric cancellation patterns are parametrized by (a, b) with
a = c_{0,-k} = c_{0,k-2} and b = c_{0,-1}.  The script prints which integer
points survive the cone membership test (on P^1, the signs of the second
differences of row 0 + row 1), the supernatural multiplicities at each
feasible point, and the polytope's vertices.  With the defaults (k = 2,
m = 5) the answer is the triangle a <= b <= 2a, a <= 5.
"""

import argparse

from betticone import (cancellation_bounds, feasible_set, line_bundle_table,
                       p1_oracle, polytope_vertices, scale)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", type=int, default=2, help="twist of the two bundles")
    parser.add_argument("-m", type=int, default=5, help="rank of each bundle")
    args = parser.parse_args()
    k, m = args.k, args.m
    window = (-3 * k - 2, 3 * k)
    A = scale(line_bundle_table(1, -k, window), m)
    B = scale(line_bundle_table(1, k, window), m)

    support = sorted(cancellation_bounds(A, B))
    feasible = feasible_set(A, B, mode="serre-symmetric")
    print(f"# extension of O({k})^{m} by O(-{k})^{m} on P^1")
    print("# pattern over support " + " ".join(f"({i},{j})" for i, j in support))
    for pattern, table in feasible:
        vec = ",".join(str(pattern.get(key, 0)) for key in support)
        terms = " + ".join(f"{c}s({r})" for c, r in p1_oracle(table))
        print(f"{vec}\t{terms}")
    for vertex in polytope_vertices([p for p, _ in feasible], support):
        vec = ",".join(str(vertex.get(key, 0)) for key in support)
        print(f"vertex\t{vec}")


if __name__ == "__main__":
    main()
