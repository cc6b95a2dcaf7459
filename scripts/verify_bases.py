#!/usr/bin/env python3
"""Re-verify mined bases: soundness everywhere, completeness at desk scale.

Completeness is checked on fig3, fig4i, fig4ii, fig7 and on the (2, 3) and
(2, 5) cycle interpretations (fig5's shape without its self-loops), whose
bases hold deep ∃-chains.  Each check prints the time of a bare
`Reasoner(tbox)` saturation apart from that of `check_base_complete`, which
saturates the base with its targets and answers the queries.  Last, fig3's
base with every third axiom (sorted by text) dropped must be found
incomplete at depth 2 and size cap 6; its counterexample count and check
time are printed.

Usage: python scripts/verify_bases.py [--depth 2] [--size-cap 9] [--seeds 50]
"""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ciforge.concepts import make_interpretation
from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.miner import build_base, check_base_complete, check_base_sound
from ciforge.oracles import random_mineable_interpretation
from ciforge.reasoner import Reasoner

COMPLETENESS_FIXTURES = ("fig3", "fig4i", "fig4ii", "fig7")
CYCLES = ((2, 3), (2, 5))


def cycles(lengths):
    """fig5's shape without its self-loops: one B-hub per r-cycle, with A on
    the hub's predecessor."""
    domain, edges, a_ext, b_ext = [], [], [], []
    for k, length in enumerate(lengths):
        nodes = [f"h{k}"] + [f"c{k}_{j}" for j in range(1, length)]
        domain += nodes
        b_ext.append(nodes[0])
        a_ext.append(nodes[-1])
        edges += zip(nodes, nodes[1:] + nodes[:1])
    return make_interpretation(domain, {"A": a_ext, "B": b_ext}, {"r": edges})


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

    checks = [(name, builtin_fixture(name)) for name in COMPLETENESS_FIXTURES]
    checks += [(f"cycles{lengths}", cycles(lengths)) for lengths in CYCLES]
    for name, i in checks:
        tbox, _ = build_base(i)
        t0 = time.perf_counter()
        Reasoner(tbox)
        saturate_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        rep = check_base_complete(i, tbox, args.depth, args.size_cap)
        check_s = time.perf_counter() - t0
        failures += not rep.complete
        print(
            f"{name}: complete={rep.complete} "
            f"({rep.checked} concepts; Reasoner(tbox) {saturate_s:.2f}s, "
            f"check_base_complete {check_s:.2f}s; "
            f"reasoner {rep.reasoner_atoms} atoms, "
            f"{rep.reasoner_pairs} subsumer pairs)"
        )
        for ci in rep.counterexamples[:5]:
            print(f"   missing: {ci}")

    i = builtin_fixture("fig3")
    tbox, _ = build_base(i)
    dropped = frozenset(ci for k, ci in enumerate(sorted(tbox, key=str)) if k % 3)
    t0 = time.perf_counter()
    rep = check_base_complete(i, dropped, 2, 6)
    check_s = time.perf_counter() - t0
    failures += rep.complete
    print(
        f"fig3 with every third axiom dropped: complete={rep.complete} "
        f"({rep.checked} concepts; {len(rep.counterexamples)} counterexamples; "
        f"check_base_complete {check_s:.2f}s)"
    )

    print(f"total: {time.perf_counter() - t_all:.1f}s, failures={failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
