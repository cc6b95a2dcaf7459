"""Concept enumeration for the completeness check.

`enumerate_concepts` is the only library code here; `miner.check_base_complete`
runs it.  It stays in this module until the benchmark harness, which traces it
by the name `ciforge.oracles.enumerate_concepts`, follows it into `miner.py`
(ROADMAP item 1).  The brute-force oracles the tests use live in
`tests/oracles.py`.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .concepts import And, Atom, BOTTOM, Exists, Signature, TOP
from .errors import ValidationError


def enumerate_concepts(sig: Signature, depth: int, size_cap: int):
    """Every canonical concept over sig with role_depth <= depth and at most
    size_cap AST nodes, each exactly once.  A negative depth or a size cap
    below 1 raises ValidationError when iteration starts.

    Order: Top, Bottom, the basic concepts (atoms and restrictions) in
    canonical conjunct order, then the conjunctions in depth-first pre-order
    of their conjunct lists.  So for n >= 3 the last conjunction of n - 1
    conjuncts yielded before one of n conjuncts is its prefix, the
    conjunction of its conjuncts but the last; the completeness check
    evaluates each conjunction from that prefix.
    """
    if depth < 0:
        raise ValidationError(f"role depth must be at least 0, got {depth}")
    if size_cap < 1:
        raise ValidationError(f"size cap must be at least 1, got {size_cap}")
    atoms = [(Atom(name), 1, name) for name in sorted(sig.concept_names)]
    roles = sorted(sig.role_names)

    def level(d: int, top: bool) -> list:
        """Concepts of role depth <= d within the cap, in yield order.  Below
        the top level they come as (concept, node count, sort key) triples,
        from which the restrictions of level d + 1 are built; the sort key
        is the rendered form, `render_concept`."""
        pool = list(atoms)
        if d > 0:
            lower = level(d - 1, False)
            # The restrictions of level d - 1 are reused, so that each basic
            # concept is one object at every level and memo lookups of it
            # hit by identity.
            built = {key: c for c, _, key in lower if isinstance(c, Exists)}
            for f, f_size, f_key in lower:
                if f is BOTTOM or f_size == size_cap:
                    continue
                if isinstance(f, (And, Exists)):
                    f_key = f"({f_key})"
                for role in roles:
                    key = f"some {role}.{f_key}"
                    c = built.get(key)
                    if c is None:
                        c = Exists(role, f)
                    pool.append((c, f_size + 1, key))
        pool.sort(key=itemgetter(2))
        if top:
            out = [TOP, BOTTOM] + [c for c, _, _ in pool]
        else:
            out = [(TOP, 1, "Top"), (BOTTOM, 1, "Bottom")] + pool
        # Conjunctions: index-increasing lists of pool positions.  The pool
        # holds distinct concepts in canonical order, so each canonical And
        # is built exactly once, and as it is: `conjoin` would re-render the
        # conjuncts to sort them again.  `fitting[b]` lists the positions of
        # the conjuncts of at most b nodes, so that no conjunct that cannot
        # fit is scanned.
        fitting = [
            [k for k, (_, size, _) in enumerate(pool) if size <= budget]
            for budget in range(size_cap)
        ]

        def extend(start: int, chosen: list, used: int, key: str):
            # `used` counts the And node and the chosen conjuncts; `key` is
            # their rendered conjunction, kept below the top level only.
            candidates = fitting[size_cap - used]
            for k in candidates[bisect_left(candidates, start):]:
                c, c_size, c_key = pool[k]
                total = used + c_size
                chosen.append(c)
                if not top:
                    if isinstance(c, Exists):
                        c_key = f"({c_key})"
                    if key:
                        c_key = f"{key} and {c_key}"
                if len(chosen) > 1:
                    conj = And(tuple(chosen))
                    out.append(conj if top else (conj, total, c_key))
                if total < size_cap:
                    extend(k + 1, chosen, total, c_key)
                chosen.pop()

        extend(0, [], 1, "")
        return out

    yield from level(depth, True)
