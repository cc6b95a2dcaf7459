"""Semantic extensions, and empty-TBox subsumption decided by simulation
between concept trees."""

from __future__ import annotations

from .concepts import (
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Interpretation,
    Top,
)
from .graphs import tree_of_concept


def semantic_extension(c: Concept, i: Interpretation, _memo=None) -> frozenset:
    """Recursive evaluation of C^I straight from the semantics; the tests
    cross-check it against a greatest simulation into G(I)."""
    if _memo is None:
        _memo = {}
    hit = _memo.get(c)
    if hit is not None:
        return hit
    if isinstance(c, Top):
        result = i.domain
    elif isinstance(c, Bottom):
        result = frozenset()
    elif isinstance(c, Atom):
        result = i.concept_ext.get(c.name, frozenset())
    elif isinstance(c, And):
        result = i.domain
        for d in c.conjuncts:
            result = result & semantic_extension(d, i, _memo)
    elif isinstance(c, Exists):
        filler = semantic_extension(c.filler, i, _memo)
        pairs = i.role_ext.get(c.role, frozenset())
        result = frozenset(src for src, tgt in pairs if tgt in filler)
    else:
        raise TypeError(f"not a concept: {c!r}")
    _memo[c] = result
    return result


def tree_simulates(t1, v1, t2, v2, _memo=None) -> bool:
    """Simulation between tree nodes, decided by memoized recursion.

    Equivalent to a greatest-simulation fixpoint on the underlying graphs,
    without its global refinement: trees have no cycles, so the recursion is
    well-founded and only touches node pairs reachable from (v1, v2)."""
    if _memo is None:
        _memo = {}
    key = (v1, v2)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    result = t1.graph.label(v1) <= t2.graph.label(v2) and all(
        any(
            tree_simulates(t1, u1, t2, u2, _memo)
            for u2 in t2.graph.successors_by_role(v2, role)
        )
        for role, u1 in t1.children(v1)
    )
    _memo[key] = result
    return result


def subsumed_empty(c: Concept, d: Concept) -> bool:
    """∅ ⊨ c ⊑ d, by simulating d's tree into c's tree (read as a graph)."""
    if isinstance(c, Bottom):
        return True
    if isinstance(d, Top):
        return True
    if isinstance(d, Bottom):
        return False
    tc = tree_of_concept(c)
    td = tree_of_concept(d)
    return tree_simulates(td, td.root, tc, tc.root)


def equivalent_empty(c: Concept, d: Concept) -> bool:
    return subsumed_empty(c, d) and subsumed_empty(d, c)
