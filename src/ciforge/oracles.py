"""Concept enumeration for the completeness check.

`enumerate_concepts` is the only library code here; `miner.check_base_complete`
runs it.  It yields the basic concepts of the fragment, not its conjunctions:
the check counts those.  It stays in this module until the benchmark harness,
which traces it by the name `ciforge.oracles.enumerate_concepts`, follows it
into `miner.py` (ROADMAP item 1).  The brute-force oracles the tests use,
and the whole fragment in order (`enumerate_fragment`), live in
`tests/oracles.py`.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .concepts import And, Atom, BOTTOM, Exists, Signature, TOP, check_fragment


def enumerate_concepts(sig: Signature, depth: int, size_cap: int):
    """Top, Bottom and the basic concepts (atoms and restrictions) over sig
    with role_depth <= depth and at most size_cap AST nodes, each exactly
    once and as a (concept, node count) pair: Top and Bottom first, then
    the basics in canonical conjunct order.  Every other canonical concept
    of the fragment is a conjunction of at least two basics whose node
    counts, with the And node, fit the cap.  A negative depth or a size cap
    below 1 raises ValidationError when iteration starts.

    The fillers are built first, a level at a time, each level only as far
    as its concepts can still be fillers: a concept k restrictions below
    the top has at most size_cap - k nodes.
    """
    check_fragment(depth, size_cap)
    atoms = [(Atom(name), 1, name) for name in sorted(sig.concept_names)]
    roles = sorted(sig.role_names)

    def basics(below: list) -> list:
        """The atoms, and the restrictions to the concepts of `below`, as
        (concept, node count, sort key) triples in canonical conjunct order;
        the sort key is the rendered form, `render_concept`."""
        pool = list(atoms)
        for f, f_size, f_key in below:
            if isinstance(f, (And, Exists)):
                f_key = f"({f_key})"
            for role in roles:
                pool.append((Exists(role, f), f_size + 1, f"some {role}.{f_key}"))
        pool.sort(key=itemgetter(2))
        return pool

    def conjunctions(pool: list, cap: int):
        """The conjunctions of pool concepts of at most `cap` nodes, as
        (concept, node count, sort key) triples."""
        # Conjunctions are index-increasing lists of pool positions.  The
        # pool holds distinct concepts in canonical order, so each canonical
        # And is built exactly once, and as it is: `conjoin` would flatten,
        # deduplicate and sort the conjuncts again.  `fitting[b]` lists the
        # positions of the conjuncts of at most b nodes, so that no conjunct
        # that cannot fit is scanned.
        fitting = [
            [k for k, (_, size, _) in enumerate(pool) if size <= budget]
            for budget in range(cap)
        ]

        def extend(start: int, chosen: list, used: int, key: str):
            # `used` counts the And node and the chosen conjuncts; `key` is
            # their rendered conjunction.
            candidates = fitting[cap - used]
            for k in candidates[bisect_left(candidates, start):]:
                c, c_size, c_key = pool[k]
                total = used + c_size
                chosen.append(c)
                if isinstance(c, Exists):
                    c_key = f"({c_key})"
                if key:
                    c_key = f"{key} and {c_key}"
                if len(chosen) > 1:
                    yield And(tuple(chosen)), total, c_key
                if total < cap:
                    yield from extend(k + 1, chosen, total, c_key)
                chosen.pop()

        return extend(0, [], 1, "")

    # The basic concepts of role depth <= d restrict the concepts of depth
    # <= d - 1, as triples that live only while the pool above is built.  A
    # concept of role depth k has at least k + 1 nodes, so levels deeper
    # than size_cap - 1 add nothing.  The pool `below` levels under the top
    # holds basics of at most size_cap - below nodes, and its conjunctions
    # are built to that cap.  Bottom is no filler: ∃r.⊥ is ⊥.
    pool = basics([])
    for below in range(min(depth, size_cap - 1), 0, -1):
        pool = basics([(TOP, 1, "Top"), *pool, *conjunctions(pool, size_cap - below)])
    yield TOP, 1
    yield BOTTOM, 1
    for c, size, _ in pool:
        yield c, size
