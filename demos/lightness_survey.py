"""Greedy spanner lightness against the genus-aware bounds.

Builds planar (Delaunay) and toroidal-grid instances, runs the greedy
(1+eps)-spanner over an epsilon ladder, and prints measured lightness next
to the applicable bound: (1+2/eps) for planar, times (1+2/(1+eps)) on the
torus.  Every output is also re-verified for stretch from scratch.
"""

import sys
from fractions import Fraction

from graphexplore import (
    InstanceSpec,
    build_instance,
    greedy_spanner,
    lightness_bound,
    verify_spanner_stretch,
)

EPSILONS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))


def survey(spec: InstanceSpec) -> None:
    built = build_instance(spec)
    g = built.graph
    print(f"{spec.label}: n={g.n} m={g.edge_count} genus={built.genus}")
    print(f"  {'eps':>5s} {'kept':>5s} {'lightness':>10s} {'bound':>8s} {'stretch ok':>10s}")
    for eps in EPSILONS:
        res = greedy_spanner(g, eps)
        bound = lightness_bound(eps, built.genus)
        check = verify_spanner_stretch(g, res.edges, eps)
        print(
            f"  {str(eps):>5s} {len(res.edges):5d} {float(res.lightness):10.4f} "
            f"{float(bound):8.3f} {'yes' if check.ok else 'no':>10s}"
        )
    print()


def main() -> int:
    for seed in (1, 2):
        survey(InstanceSpec("random_planar", {"points": 300}, seed))
    for shape in ((12, 12), (20, 15)):
        survey(InstanceSpec("toroidal_grid", {"p": shape[0], "q": shape[1]}, 7))
    print("note: lightness falls as eps grows; at large eps the spanner is")
    print("just the minimum spanning tree and lightness hits exactly 1.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
