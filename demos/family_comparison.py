"""Blocking vs nearest-neighbor across instance families.

For each family: run the delta-blocking explorer at a few deltas plus the
nearest-neighbor baseline, and print the cost over w(MST), the bound and
the verdicts from the rows `graphexplore explore` writes.  On small
instances the exact optimal tour is also shown, so the true competitive
ratio can be read off directly.  Every run breaks ties by edge id; the
comb's numbering makes that order adversarial.
"""

import sys
from fractions import Fraction
from itertools import groupby

from graphexplore import AlgorithmSpec, ExperimentConfig, InstanceSpec, run_explore

ALGORITHMS = [AlgorithmSpec("blocking", d) for d in ("1/2", "2", "5")]
ALGORITHMS.append(AlgorithmSpec("nearest_neighbor"))

SPECS = [
    InstanceSpec("comb_lower_bound", {"k": 3, "delta": "2"}),
    InstanceSpec("random_planar", {"points": 80}, 11),
    InstanceSpec("toroidal_grid", {"p": 8, "q": 8}, 11),
    InstanceSpec("grid", {"p": 6, "q": 6, "weights": "uniform"}, 11),
    InstanceSpec("random_tree", {"n": 40}, 11),
    InstanceSpec("erdos_renyi", {"n": 14, "p": "1/3"}, 11),
]


def main() -> int:
    rows = run_explore(ExperimentConfig(SPECS, ALGORITHMS))
    for label, group in groupby(rows, lambda r: r["instance"]):
        group = list(group)
        head = group[0]
        opt = f" opt={float(Fraction(head['opt_cost'])):.3f}" if head["opt_cost"] else ""
        print(f"{label}: n={head['n']} m={head['m']} w(MST)={float(Fraction(head['mst_weight'])):.3f}{opt}")
        for r in group:
            name = f"blocking d={r['delta']:>3s}" if r["delta"] else "nearest nbr   "
            line = f"  {name}: cost/w(MST) = {float(r['ratio_vs_mst_float']):6.3f}"
            if r["ratio_vs_opt"]:
                line += f"   cost/opt = {float(Fraction(r['ratio_vs_opt'])):6.3f}"
            if r["bound"]:
                line += f"   bound {float(Fraction(r['bound'])):7.3f} held: {r['bound_ok']}"
            print(line + f"   verified: {r['verified_ok']}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
