"""Command-line interface: mine, mvf, mmsc, entails, check."""

from __future__ import annotations

import argparse
import sys

from .concepts import check_fragment, render_concept
from .errors import CiforgeError
from .fixtures import FIXTURE_NAMES, builtin_fixture
from .graphs import DEFAULT_NODE_CAP, graph_of_interpretation
from .miner import DEFAULT_DOMAIN_CAP, build_base, check_base_complete, check_base_sound
from .mmsc import (
    adaptable_depth,
    mmsc_adaptive,
    mmsc_at_depth,
    prune_subsumed_conjuncts,
)
from .mvf import mvf
from .reasoner import Reasoner
from .storage import load_interpretation, load_tbox, parse_inclusion, save_tbox


def _add_input_options(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="interpretation JSON file")
    group.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="built-in example interpretation"
    )


def _load(args):
    if args.input:
        return load_interpretation(args.input)
    return builtin_fixture(args.fixture)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciforge",
        description="Mine and verify EL⊥ concept-inclusion bases from finite interpretations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine a base TBox from an interpretation")
    _add_input_options(p_mine)
    p_mine.add_argument("--output", required=True, help="TBox output file")
    p_mine.add_argument("--max-attrs", type=int, default=DEFAULT_DOMAIN_CAP,
                        help="domain-size cap for attribute enumeration")
    p_mine.add_argument("--product-cap", type=int, default=DEFAULT_NODE_CAP,
                        help="vertex cap for products and unravellings")
    p_mine.add_argument("--stats", action="store_true", help="print the mining report")

    p_mvf = sub.add_parser("mvf", help="maximum vertices visitable by one walk")
    _add_input_options(p_mvf)
    p_mvf.add_argument("--vertex", required=True)

    p_mmsc = sub.add_parser("mmsc", help="most specific concept for an element set")
    _add_input_options(p_mmsc)
    p_mmsc.add_argument("--elements", required=True, help="comma-separated element ids")
    p_mmsc.add_argument("--depth", type=int, default=None,
                        help="fixed unravelling depth (default: adaptable)")

    p_ent = sub.add_parser("entails", help="decide TBox entailment of one inclusion")
    p_ent.add_argument("--tbox", required=True)
    p_ent.add_argument("--ci", required=True, help='e.g. "City SubClassOf some partof.Region"')

    p_check = sub.add_parser("check", help="soundness + desk-scale completeness of a TBox")
    _add_input_options(p_check)
    p_check.add_argument("--tbox", required=True)
    p_check.add_argument("--depth", type=int, default=2)
    p_check.add_argument("--size-cap", type=int, default=9)

    return parser


def _cmd_mine(args) -> int:
    for flag, cap in (("--max-attrs", args.max_attrs), ("--product-cap", args.product_cap)):
        if cap < 1:
            raise CiforgeError(f"{flag} must be at least 1, got {cap}")
    i = _load(args)
    tbox, report = build_base(i, domain_cap=args.max_attrs, node_cap=args.product_cap)
    save_tbox(tbox, args.output, report=report)
    if args.stats:
        for line in report.summary_lines():
            print(line)
    print(f"wrote {report.axiom_count} axioms to {args.output}")
    return 0


def _cmd_mvf(args) -> int:
    i = _load(args)
    g = graph_of_interpretation(i)
    if args.vertex not in g.vertices:
        raise CiforgeError(f"unknown vertex {args.vertex!r}")
    print(mvf(g, args.vertex))
    return 0


def _cmd_mmsc(args) -> int:
    i = _load(args)
    elements = [e for e in args.elements.split(",") if e]
    if not elements:
        raise CiforgeError(f"--elements names no element: {args.elements!r}")
    unknown = [e for e in elements if e not in i.domain]
    if unknown:
        raise CiforgeError(f"unknown element {unknown[0]!r}")
    if args.depth is not None:
        concept = prune_subsumed_conjuncts(mmsc_at_depth(i, elements, args.depth))
        print(render_concept(concept))
        print(f"depth: fixed {args.depth}")
        return 0
    report = adaptable_depth(i, elements)
    concept = prune_subsumed_conjuncts(mmsc_adaptive(i, elements))
    print(render_concept(concept))
    print(
        f"depth: branch={report.branch} product_mvf={report.product_mvf} "
        f"chosen={report.chosen_depth} bounded_members={sorted(report.x_lim)}"
    )
    return 0


def _cmd_entails(args) -> int:
    tbox = load_tbox(args.tbox)
    inclusions = parse_inclusion(args.ci)
    # Both directions of an EquivalentTo share one saturation.
    reasoner = Reasoner(tbox, rhs_concepts=[ci.rhs for ci in inclusions])
    verdict = all(reasoner.entails(ci) for ci in inclusions)
    print("true" if verdict else "false")
    return 0


def _cmd_check(args) -> int:
    check_fragment(args.depth, args.size_cap)
    i = _load(args)
    tbox = load_tbox(args.tbox)
    sound = check_base_sound(i, tbox)
    print(f"sound: {'yes' if sound else 'NO'}")
    report = check_base_complete(i, tbox, args.depth, args.size_cap)
    print(
        f"complete within fragment (depth {args.depth}, size {args.size_cap}): "
        f"{'yes' if report.complete else 'NO'} ({report.checked} concepts checked)"
    )
    missing = report.counterexamples
    if missing:
        print(f"{len(missing)} missing inclusions; the first {min(len(missing), 20)}:")
    for ci in missing[:20]:
        print(f"  missing: {ci}")
    return 0 if sound and report.complete else 1


_COMMANDS = {
    "mine": _cmd_mine,
    "mvf": _cmd_mvf,
    "mmsc": _cmd_mmsc,
    "entails": _cmd_entails,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CiforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
