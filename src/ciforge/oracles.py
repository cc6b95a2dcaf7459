"""Concept enumeration and the bounded-subset search of the completeness check.

`miner.check_base_complete` runs `enumerate_concepts`, and both run
`_fitting_sets`, the one search for sets of items whose sizes fit a budget:
the enumerator for the conjunctions of each lower level, the check for its
classes, the extensions to register and the conjunctions of a failing set
of classes.  `enumerate_concepts` yields the basic concepts of the fragment,
not its conjunctions: the check counts those.  Both functions stay in this
module until the benchmark harness, which traces the enumerator by the name
`ciforge.oracles.enumerate_concepts`, follows it into `miner.py` (ROADMAP
item 1).  The brute-force oracles the tests use, and the whole fragment in
order (`enumerate_fragment`), live in `tests/oracles.py`.
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
        # The pool holds distinct concepts in canonical order, and each set
        # joins its conjuncts in ascending position, so each canonical And
        # is built exactly once, and as it is: `conjoin` would flatten,
        # deduplicate and sort the conjuncts again.
        items = [
            (((c,), f"({key})" if isinstance(c, Exists) else key), size)
            for c, size, key in pool
        ]
        for chosen, (conjuncts, key), size in _fitting_sets(items, cap - 1, _join):
            if len(chosen) > 1:
                yield And(conjuncts), size + 1, key

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


def _join(left: tuple, right: tuple) -> tuple:
    """The conjuncts and rendered conjunction of two disjoint conjunctions,
    `left`'s conjuncts first."""
    return left[0] + right[0], f"{left[1]} and {right[1]}"


def _fitting_sets(items: list, budget: int, combine, settles=None):
    """(positions, combined key, size) for every non-empty set of `items`,
    (key, size, …) tuples in any order, whose sizes sum to at most
    `budget`; the positions ascend, and the combined key folds `combine`
    over the members' keys in that order.  One depth-first loop over an
    explicit stack, extending each set by later items only.  A set whose
    combined key `settles` is yielded but not extended: the caller knows
    that combining more keys into a settled key changes nothing it asks, so
    the sets above it are skipped."""
    # `fitting[b]` lists the positions of the items of size at most b, so
    # that no item that cannot fit is scanned.
    fitting = [
        [k for k, item in enumerate(items) if item[1] <= b] for b in range(budget + 1)
    ]
    stack = [((), None, 0, 0)]
    while stack:
        chosen, value, used, start = stack.pop()
        candidates = fitting[budget - used]
        for k in candidates[bisect_left(candidates, start):]:
            key, size = items[k][:2]
            total = used + size
            here = key if value is None else combine(value, key)
            grown = (*chosen, k)
            yield grown, here, total
            later = fitting[budget - total]
            if later and later[-1] > k and not (settles and settles(here)):
                stack.append((grown, here, total, k + 1))
