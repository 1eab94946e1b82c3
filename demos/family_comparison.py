"""Blocking vs nearest-neighbor across instance families.

For each family: run the delta-blocking explorer at a few deltas plus the
nearest-neighbor baseline, and report cost over w(MST).  On small instances
the exact optimal tour is also shown, so the true competitive ratio can be
read off directly.  Every run breaks ties by edge id; the comb's numbering
makes that order adversarial.
"""

import sys
from fractions import Fraction

from graphexplore import (
    ExplorationParams,
    InstanceSpec,
    build_instance,
    exact_tsp,
    minimum_spanning_tree,
    run_blocking,
    run_nearest_neighbor,
)
from graphexplore.oracle import TSP_MAX_N

DELTAS = (Fraction(1, 2), Fraction(2), Fraction(5))

SPECS = (
    InstanceSpec("comb_lower_bound", {"k": 3, "delta": "2"}),
    InstanceSpec("random_planar", {"points": 80}, 11),
    InstanceSpec("toroidal_grid", {"p": 8, "q": 8}, 11),
    InstanceSpec("grid", {"p": 6, "q": 6, "weights": "uniform"}, 11),
    InstanceSpec("random_tree", {"n": 40}, 11),
    InstanceSpec("erdos_renyi", {"n": 14, "p": "1/3"}, 11),
)


def main() -> int:
    for spec in SPECS:
        built = build_instance(spec)
        g = built.graph
        mst_w = minimum_spanning_tree(g).weight()
        opt = exact_tsp(g, built.start).cost if g.n <= TSP_MAX_N else None
        print(f"{spec.label}: n={g.n} m={g.edge_count} w(MST)={float(mst_w):.3f}"
              + (f" opt={float(opt):.3f}" if opt is not None else ""))
        for delta in DELTAS:
            log = run_blocking(g, ExplorationParams(delta=delta, start=built.start))
            line = (f"  blocking d={str(delta):>3s}: cost/w(MST) = "
                    f"{float(log.total_cost / mst_w):6.3f}")
            if opt:
                line += f"   cost/opt = {float(log.total_cost / opt):6.3f}"
            print(line)
        nn = run_nearest_neighbor(g, built.start)
        line = f"  nearest nbr   : cost/w(MST) = {float(nn.total_cost / mst_w):6.3f}"
        if opt:
            line += f"   cost/opt = {float(nn.total_cost / opt):6.3f}"
        print(line)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
