#!/usr/bin/env python3
"""Re-verify mined bases: soundness everywhere, completeness at desk scale.

Usage: python scripts/verify_bases.py [--depth 2] [--size-cap 9] [--seeds 50]
"""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.miner import build_base, check_base_complete, check_base_sound
from ciforge.oracles import random_mineable_interpretation

COMPLETENESS_FIXTURES = ("fig3", "fig4i", "fig4ii", "fig7")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--size-cap", type=int, default=9)
    parser.add_argument("--seeds", type=int, default=50)
    args = parser.parse_args()

    failures = 0
    t_all = time.perf_counter()

    for name in FIXTURE_NAMES:
        i = builtin_fixture(name)
        tbox, report = build_base(i)
        ok = check_base_sound(i, tbox)
        failures += not ok
        print(f"{name}: {report.axiom_count} axioms, sound={ok}")

    for seed in range(args.seeds):
        i = random_mineable_interpretation(random.Random(seed))
        tbox, _ = build_base(i)
        if not check_base_sound(i, tbox):
            failures += 1
            print(f"seed {seed}: UNSOUND")
    print(f"random soundness: {args.seeds} seeds checked")

    for name in COMPLETENESS_FIXTURES:
        i = builtin_fixture(name)
        tbox, _ = build_base(i)
        t0 = time.perf_counter()
        rep = check_base_complete(i, tbox, args.depth, args.size_cap)
        check_s = time.perf_counter() - t0
        failures += not rep.complete
        print(
            f"{name}: complete={rep.complete} "
            f"({rep.checked} concepts, check_base_complete {check_s:.2f}s, "
            f"reasoner {rep.reasoner_atoms} atoms, "
            f"{rep.reasoner_pairs} subsumer pairs)"
        )
        for ci in rep.counterexamples[:5]:
            print(f"   missing: {ci}")

    print(f"total: {time.perf_counter() - t_all:.1f}s, failures={failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
