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
    bottom_up,
)
from .graphs import tree_of_concept


def semantic_extension(c: Concept, i: Interpretation, _memo=None) -> frozenset:
    """C^I evaluated straight from the semantics, children first; the tests
    cross-check it against a greatest simulation into G(I).  A memo shared
    across calls evaluates each distinct conjunction and restriction once."""

    def extension(d: Concept, parts: list) -> frozenset:
        if isinstance(d, Exists):
            return preimage(i, d.role, parts[0])
        if isinstance(d, And):
            return i.domain.intersection(*parts)
        if isinstance(d, Atom):
            return i.concept_ext.get(d.name, frozenset())
        if isinstance(d, (Top, Bottom)):
            return i.domain if isinstance(d, Top) else frozenset()
        raise TypeError(f"not a concept: {d!r}")

    return bottom_up(c, extension, _memo)


def preimage(i: Interpretation, role: str, ext: frozenset) -> frozenset:
    """(∃role.F)^I from F^I = ext: the elements with a role-edge into ext."""
    return frozenset(src for src, tgt in i.role_ext.get(role, ()) if tgt in ext)


def tree_simulates(t1, v1, t2, v2, _memo=None) -> bool:
    """Simulation between tree nodes, decided depth-first on an explicit
    stack with a memo per node pair.

    Equivalent to a greatest-simulation fixpoint on the underlying graphs,
    without its global refinement: trees have no cycles, so the search is
    well-founded and only touches node pairs reachable from (v1, v2)."""
    if _memo is None:
        _memo = {}
    # The open pairs, innermost last, each with its decision, which asks for
    # the verdicts on the child pairs it needs one at a time.
    stack, pair = [], (v1, v2)
    verdict = _memo.get(pair)
    while verdict is None or stack:
        if verdict is None:
            stack.append((pair, _decide(t1, pair[0], t2, pair[1])))
        key, decision = stack[-1]
        try:
            pair = decision.send(verdict)
            verdict = _memo.get(pair)
        except StopIteration as stop:
            verdict = _memo[key] = stop.value
            stack.pop()
    return verdict


def _decide(t1, v1, t2, v2):
    """Whether v2 simulates v1: the labels, then for each child of v1 some
    child of v2 along its role that simulates it, asked by yielding the pair."""
    if not t1.graph.label(v1) <= t2.graph.label(v2):
        return False
    for role, u1 in t1.children(v1):
        for u2 in t2.graph.successors_by_role(v2, role):
            if (yield (u1, u2)):
                break
        else:
            return False
    return True


def subsumed_empty(c: Concept, d: Concept, _trees=None) -> bool:
    """∅ ⊨ c ⊑ d, by simulating d's tree into c's tree (read as a graph).
    A dict shared across calls, from concept to its `tree_of_concept` tree,
    builds each distinct concept's tree once."""
    if isinstance(c, Bottom):
        return True
    if isinstance(d, Top):
        return True
    if isinstance(d, Bottom):
        return False
    trees = {} if _trees is None else _trees
    for e in (c, d):
        if e not in trees:
            trees[e] = tree_of_concept(e)
    tc, td = trees[c], trees[d]
    return tree_simulates(td, td.root, tc, tc.root)


def equivalent_empty(c: Concept, d: Concept, _trees=None) -> bool:
    return subsumed_empty(c, d, _trees) and subsumed_empty(d, c, _trees)
