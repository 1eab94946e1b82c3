"""Cross-check the fast implementations against the brute-force oracles.

Everything the library computes cleverly is recomputed the slow way, by the
rows of `graphexplore verify`, on instances small enough to afford it:
Held-Karp vs permutation search for tours, greedy spanner lightness vs
exhaustive optimum, and the per-edge detour property of the explorer's
taken edges vs full cycle enumeration.
"""

import random
import sys
from fractions import Fraction

from graphexplore import AlgorithmSpec, ExperimentConfig, InstanceSpec, run_verify


def verify(check, specs, **config):
    """The details of the `check` rows `graphexplore verify` writes; all must hold."""
    rows = [r for r in run_verify(ExperimentConfig(specs, **config)) if r["check"] == check]
    assert rows and all(r["ok"] == "yes" for r in rows), rows
    return [r["detail"] for r in rows]


def main() -> int:
    rng = random.Random(7)
    blocking = [AlgorithmSpec("blocking", Fraction(1, 2))]

    print("tours: held-karp vs permutation search on 40 random graphs")
    specs = [InstanceSpec("erdos_renyi", {"n": rng.randint(4, 8), "p": "1/2"}, i) for i in range(40)]
    costs = verify("tsp_permutation_agreement", specs)
    assert len(costs) == 40
    print(f"  all agree (largest optimal tour seen: {max(Fraction(c[5:]) for c in costs)})")
    print()

    print("spanners: greedy vs exhaustive optimum on tiny planar instances")
    specs = [InstanceSpec("random_planar", {"points": 6}, seed) for seed in range(12)]
    details = verify("optspan_lower_bounds_greedy", specs, epsilons=["1/2", "2"])
    pairs = [[Fraction(part.split("=")[1]) for part in d.split()] for d in details]  # opt, greedy
    gaps = [greedy / opt for opt, greedy in pairs]
    print(f"  greedy/optimum over {len(gaps)} cases: "
          f"max {float(max(gaps)):.4f}, mean {float(sum(gaps) / len(gaps)):.4f}")
    print("  (1.0 means greedy found a true optimum)")
    print()

    print("exploration: taken-edge cycle property vs cycle enumeration")
    specs = [InstanceSpec("erdos_renyi", {"n": 10, "p": "2/5"}, seed) for seed in range(25)]
    cycles = verify("cycle_enumeration_agreement", specs, algorithms=blocking)
    cyclic = sum(d != "cycles=0" for d in cycles)
    print(f"  {len(cycles)} instances compared, {cyclic} with at least one cycle "
          "in the taken edges; verdicts always matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
