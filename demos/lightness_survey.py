"""Greedy spanner lightness against the genus-aware bounds.

Builds planar (Delaunay) and toroidal-grid instances, runs the greedy
(1+eps)-spanner over an epsilon ladder, and prints measured lightness next
to the applicable bound: (1+2/eps) for planar, times (1+2/(1+eps)) on the
torus.  Every output is also re-verified for stretch from scratch.  Each
column is one of the rows that `graphexplore spanner` writes.
"""

import sys
from fractions import Fraction
from itertools import groupby

from graphexplore import ExperimentConfig, InstanceSpec, run_spanner

EPSILONS = ["1/4", "1/2", "1", "2", "4"]

SPECS = [InstanceSpec("random_planar", {"points": 300}, seed) for seed in (1, 2)] + [
    InstanceSpec("toroidal_grid", {"p": p, "q": q}, 7) for p, q in ((12, 12), (20, 15))
]


def main() -> int:
    rows = run_spanner(ExperimentConfig(SPECS, epsilons=EPSILONS, checks=("stretch",)))
    for label, group in groupby(rows, key=lambda r: r["instance"]):
        group = list(group)
        print(f"{label}: n={group[0]['n']} m={group[0]['m']} genus={group[0]['genus']}")
        print(f"  {'eps':>5s} {'kept':>5s} {'lightness':>10s} {'bound':>8s} {'stretch ok':>10s}")
        for r in group:
            print(f"  {r['epsilon']:>5s} {r['kept_edges']:>5s} {float(r['lightness_float']):10.4f} "
                  f"{float(Fraction(r['bound'])):8.3f} {r['verified_ok']:>10s}")
        print()
    print("note: lightness falls as eps grows; at large eps the spanner is")
    print("just the minimum spanning tree and lightness hits exactly 1.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
