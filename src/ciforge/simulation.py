"""Greatest simulations between description graphs, semantic extensions, and
empty-TBox subsumption decided by simulation between concept trees."""

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
from .errors import ValidationError
from .graphs import DescriptionGraph, tree_of_concept


def greatest_simulation(g1: DescriptionGraph, g2: DescriptionGraph) -> set:
    """All pairs (w1, w2) such that (g1, w1) is simulated by (g2, w2).

    Fixpoint refinement: start from the label-compatible pairs and repeatedly
    drop pairs with an unmatched edge until nothing changes.
    """
    candidates = {
        (w1, w2)
        for w1 in g1.vertices
        for w2 in g2.vertices
        if g1.label(w1) <= g2.label(w2)
    }
    changed = True
    while changed:
        changed = False
        for w1, w2 in list(candidates):
            ok = True
            for role, u1 in g1.successors(w1):
                if not any(
                    (u1, u2) in candidates for u2 in g2.successors_by_role(w2, role)
                ):
                    ok = False
                    break
            if not ok:
                candidates.discard((w1, w2))
                changed = True
    return candidates


def simulates(g1: DescriptionGraph, v1, g2: DescriptionGraph, v2) -> bool:
    """True iff a simulation from (g1, v1) to (g2, v2) exists."""
    if v1 not in g1.vertices or v2 not in g2.vertices:
        raise ValidationError("simulation endpoints must be graph vertices")
    return (v1, v2) in greatest_simulation(g1, g2)


def bounded_simulates(g1: DescriptionGraph, v1, g2: DescriptionGraph, v2, d: int) -> bool:
    """True iff the depth-d unravelling of (g1, v1) simulates into (g2, v2).

    Two unravelling nodes ending at the same vertex with the same remaining
    depth root isomorphic subtrees, so the answer only depends on (vertex,
    remaining depth): iterate the label-compatible pair set d times instead of
    materializing the (possibly exponential) tree.
    """
    if v1 not in g1.vertices or v2 not in g2.vertices:
        raise ValidationError("simulation endpoints must be graph vertices")
    sim = {
        (w1, w2)
        for w1 in g1.vertices
        for w2 in g2.vertices
        if g1.label(w1) <= g2.label(w2)
    }
    for _ in range(d):
        sim = {
            (w1, w2)
            for w1, w2 in sim
            if all(
                any((u1, u2) in sim for u2 in g2.successors_by_role(w2, role))
                for role, u1 in g1.successors(w1)
            )
        }
    return (v1, v2) in sim


def semantic_extension(c: Concept, i: Interpretation, _memo=None) -> frozenset:
    """Recursive evaluation of C^I straight from the semantics; the simulation
    route in `oracles.extension` cross-checks it."""
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

    Equivalent to `simulates` on the underlying graphs but avoids the global
    fixpoint: trees have no cycles, so the recursion is well-founded and only
    touches node pairs reachable from (v1, v2)."""
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
