"""Cross-check the fast implementations against the brute-force oracles.

Everything the library computes cleverly is recomputed here the slow way on
instances small enough to afford it: Held-Karp vs permutation search for
tours, greedy spanner lightness vs exhaustive optimum, and the per-edge
detour property of the explorer's taken edges vs full cycle enumeration.
"""

import random
import sys
from fractions import Fraction

from graphexplore import (
    ExplorationParams,
    brute_force_exploration,
    brute_force_optspan,
    enumerate_cycles_check,
    exact_tsp,
    gen_erdos_renyi,
    gen_random_planar,
    greedy_spanner,
    restrict,
    run_blocking,
    taken_union_mst,
    verify_blocking_cycle_property,
)
from graphexplore.oracle import CYCLE_SPACE_MAX_NU


def main() -> int:
    rng = random.Random(7)

    print("tours: held-karp vs permutation search on 40 random graphs")
    worst = Fraction(0)
    for i in range(40):
        g = gen_erdos_renyi(rng.randint(4, 8), Fraction(1, 2), seed=i)
        a = exact_tsp(g).cost
        b = brute_force_exploration(g).cost
        assert a == b, (i, a, b)
        worst = max(worst, a)
    print(f"  all agree (largest optimal tour seen: {worst})")
    print()

    print("spanners: greedy vs exhaustive optimum on tiny planar instances")
    gaps = []
    for seed in range(12):
        g = gen_random_planar(6, seed=seed)
        for eps in (Fraction(1, 2), Fraction(2)):
            greedy = greedy_spanner(g, eps).lightness
            opt = brute_force_optspan(g, eps)
            assert opt <= greedy
            gaps.append(greedy / opt)
    print(f"  greedy/optimum over {len(gaps)} cases: "
          f"max {float(max(gaps)):.4f}, mean {float(sum(gaps) / len(gaps)):.4f}")
    print("  (1.0 means greedy found a true optimum)")
    print()

    print("exploration: taken-edge cycle property vs cycle enumeration")
    checked = cyclic = 0
    for seed in range(25):
        g = gen_erdos_renyi(10, Fraction(2, 5), seed=seed)
        delta = Fraction(1, 2)
        log = run_blocking(g, ExplorationParams(delta=delta))
        rep = verify_blocking_cycle_property(g, log, delta)
        sub, _ = restrict(g, taken_union_mst(g, log))
        nu = sub.edge_count - sub.n + 1
        if nu > CYCLE_SPACE_MAX_NU:
            continue
        enum = enumerate_cycles_check(sub, 1 + delta)
        assert rep.ok == enum.ok, seed
        checked += 1
        if nu >= 1:
            cyclic += 1
    print(f"  {checked} instances compared, {cyclic} with at least one cycle "
          "in the taken edges; verdicts always matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
