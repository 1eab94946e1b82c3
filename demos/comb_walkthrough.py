"""Walk through the comb instance that makes delta-blocking pay quadratically.

The comb is a tree: a unit-weight spine of 2k vertices, a unit "light" leaf
on each of the first k spine vertices, and a heavy leaf of weight
(k+1)/(delta+1) on each of the last k.  Every heavy tooth sits exactly at the
blocking threshold.  The explorer breaks ties by edge id and the comb numbers
its spine edges first, so it finishes the whole spine and all light teeth
first, then pays a long approach for every heavy tooth separately.

Run:  python3 demos/comb_walkthrough.py [k] [delta]
"""

import sys
from collections import Counter
from fractions import Fraction

from graphexplore import (
    ExplorationParams,
    InstanceSpec,
    build_instance,
    run_blocking,
    run_nearest_neighbor,
)


def explore(k: int, delta: Fraction):
    built = build_instance(
        InstanceSpec("comb_lower_bound", {"k": k, "delta": str(delta)})
    )
    params = ExplorationParams(delta=delta, start=built.start)
    return built, run_blocking(built.graph, params)


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    delta = Fraction(sys.argv[2]) if len(sys.argv) > 2 else Fraction(3)

    built, log = explore(k, delta)
    g = built.graph
    print(f"comb k={k} delta={delta}: n={g.n}, m={g.edge_count}, "
          f"heavy tooth weight {Fraction(k + 1) / (delta + 1)}")
    print(f"graph weight w(G) = {g.total_weight()}  "
          f"(offline tour costs 2 w(G) = {2 * g.total_weight()} on a tree)")
    print()

    roles = Counter(s.role for s in log.steps)
    cost_by_role = Counter()
    for s in log.steps:
        cost_by_role[s.role] += g.weight(s.edge)
    print("traversal breakdown:")
    for role in ("take-boundary", "approach", "return"):
        print(f"  {role:14s} {roles[role]:5d} steps, cost {cost_by_role[role]}")
    print(f"  {'total':14s} {len(log.steps):5d} steps, cost {log.total_cost}")
    print()

    # the closed form the run should land on
    expected = 2 * k * k + 8 * k - 2 + 2 * k * Fraction(k + 1) / (delta + 1)
    ratio = log.total_cost / (2 * g.total_weight())
    print(f"closed form 2k^2+8k-2+2k(k+1)/(delta+1) = {expected} "
          f"({'matches' if expected == log.total_cost else 'MISMATCH'})")
    print(f"ratio vs offline tour: {ratio} ~ {float(ratio):.3f} "
          f"(grows toward delta+2 = {delta + 2})")

    nn = run_nearest_neighbor(g, built.start)
    print(f"nearest neighbor pays {nn.total_cost} on the same instance")
    print()

    print("ratio growth with k at this delta:")
    for kk in (5, 10, 20, 40, 80):
        b2, l2 = explore(kk, delta)
        r = l2.total_cost / (2 * b2.graph.total_weight())
        print(f"  k={kk:3d}  cost={str(l2.total_cost):>10s}  ratio={float(r):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
