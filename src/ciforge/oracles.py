"""Brute-force oracles and executable counterexample suites.

Everything here is deliberately independent of the main algorithms: exhaustive
enumeration, semantic evaluation, and state-space search, used to pin golden
values and cross-check the fast paths.
"""

from __future__ import annotations

import itertools
import os
import random

from .concepts import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    Exists,
    Interpretation,
    Signature,
    TOP,
    Top,
    canonicalize,
    concept_sort_key,
    exists_chain,
    make_interpretation,
    node_count,
)
from .errors import ValidationError
from .graphs import DescriptionGraph, graph_of_interpretation, tree_of_concept
from .mvf import mvf
from .simulation import bounded_simulates, greatest_simulation, semantic_extension

DEFAULT_SEED = 20260823


def harness_seed() -> int:
    """Seed for randomized suites; override with CIFORGE_SEED."""
    raw = os.environ.get("CIFORGE_SEED")
    return int(raw) if raw else DEFAULT_SEED


# ---------------------------------------------------------------------------
# Extensions by simulation


def extension(c: Concept, i: Interpretation) -> frozenset:
    """{x ∈ Δ | x ∈ C^I} via one greatest simulation of C's tree into G(I);
    independent of the recursive `semantic_extension`."""
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, Top):
        return i.domain
    tree = tree_of_concept(c)
    sim = greatest_simulation(tree.graph, graph_of_interpretation(i))
    return frozenset(x for x in i.domain if (tree.root, x) in sim)


def member(x, c: Concept, i: Interpretation) -> bool:
    """x ∈ C^I, decided through simulation of C's tree into G(I)."""
    if x not in i.domain:
        raise ValidationError(f"{x!r} is not a domain element")
    return x in extension(c, i)


# ---------------------------------------------------------------------------
# Closed extents


def closed_extents(domain, extents) -> frozenset:
    """Every intersection of a subfamily of `extents` (the empty one gives
    `domain`): {domain} ∪ extents closed under pairwise intersection.  The
    extents of the closed attribute sets NextClosure enumerates, by brute
    force."""
    closed = {frozenset(domain)} | {frozenset(e) for e in extents}
    frontier = set(closed)
    while frontier:
        new = {a & b for a in frontier for b in closed} - closed
        closed |= new
        frontier = new
    return frozenset(closed)


# ---------------------------------------------------------------------------
# Concept enumeration


def enumerate_concepts(sig: Signature, depth: int, size_cap: int):
    """Every canonical concept over sig with role_depth <= depth and at most
    size_cap AST nodes, each exactly once."""
    atoms = [Atom(name) for name in sorted(sig.concept_names)]
    roles = sorted(sig.role_names)

    # pool[d] = basic (non-And, non-Top, non-Bottom) concepts of role depth
    # exactly <= d, paired with node counts, in canonical conjunct order.
    def basics(d: int) -> list:
        items = list(atoms)
        if d > 0:
            for f, f_size in all_concepts(d - 1):
                if f is BOTTOM or f_size + 1 > size_cap:
                    continue
                for role in roles:
                    items.append(Exists(role, f))
        items = [c for c in items if node_count(c) <= size_cap]
        items.sort(key=concept_sort_key)
        return items

    memo: dict = {}

    def all_concepts(d: int) -> list:
        """(concept, node count) pairs of role depth <= d, size <= cap."""
        cached = memo.get(d)
        if cached is not None:
            return cached
        result = [(TOP, 1), (BOTTOM, 1)]
        pool = [(c, node_count(c)) for c in basics(d)]
        result.extend(pool)
        # conjunctions: index-increasing subsets of the sorted pool, so each
        # canonical And is produced exactly once.  Per-budget index lists keep
        # the recursion from rescanning conjuncts that cannot fit.
        fitting = {
            budget: [k for k, (_, size) in enumerate(pool) if size <= budget]
            for budget in range(size_cap + 1)
        }
        from bisect import bisect_left

        def extend(start: int, chosen: list, used: int):
            budget = size_cap - used
            candidates = fitting[budget] if budget >= 0 else ()
            for k in candidates[bisect_left(candidates, start):]:
                c, c_size = pool[k]
                total = (used if chosen else 1) + c_size
                if total > size_cap:
                    continue
                chosen.append(c)
                if len(chosen) >= 2:
                    result.append((And(tuple(chosen)), total))
                extend(k + 1, chosen, total)
                chosen.pop()

        extend(0, [], 0)
        memo[d] = result
        return result

    seen = set()
    for c, _ in all_concepts(depth):
        if c not in seen:
            seen.add(c)
            yield c


# ---------------------------------------------------------------------------
# Random instances


def random_graph(rng: random.Random, max_vertices=8, roles=("r", "s"), density=0.25,
                 atom_names=("A", "B")) -> DescriptionGraph:
    n = rng.randint(1, max_vertices)
    vertices = [f"n{k}" for k in range(n)]
    edges = []
    for role in roles:
        for src in vertices:
            for tgt in vertices:
                if rng.random() < density:
                    edges.append((src, role, tgt))
    labels = {
        v: {a for a in atom_names if rng.random() < 0.5} for v in vertices
    }
    return DescriptionGraph(vertices, edges, labels)


def random_interpretation(
    rng: random.Random,
    max_elements=4,
    atom_names=("A", "B"),
    role_names=("r", "s"),
    density=0.22,
) -> Interpretation:
    n = rng.randint(1, max_elements)
    domain = [f"e{k}" for k in range(n)]
    concept_ext = {
        a: [x for x in domain if rng.random() < 0.5] for a in atom_names
    }
    role_ext = {
        r: [
            (src, tgt)
            for src in domain
            for tgt in domain
            if rng.random() < density
        ]
        for r in role_names
    }
    return make_interpretation(domain, concept_ext, role_ext)


def random_mineable_interpretation(
    rng: random.Random,
    max_elements=4,
    atom_names=("A", "B"),
    role_names=("r", "s"),
    density=0.18,
    max_concept_nodes=400,
    max_attempts=200,
) -> Interpretation:
    """Random interpretation whose MMSCs all stay desk-scale.

    MMSC size is worst-case exponential in the unravelling depth, so instances
    whose cyclic structure forces huge concepts are resampled; the acceptance
    suites need bases that are cheap to re-verify, not adversarial ones.
    """
    from .errors import ResourceCapError
    from .mmsc import adaptable_depth, mmsc_at_depth

    for _ in range(max_attempts):
        i = random_interpretation(
            rng,
            max_elements=max_elements,
            atom_names=atom_names,
            role_names=role_names,
            density=density,
        )
        elements = sorted(i.domain)
        ok = True
        for n in range(1, len(elements) + 1):
            for combo in itertools.combinations(elements, n):
                try:
                    report = adaptable_depth(i, combo, node_cap=20_000)
                    concept = mmsc_at_depth(
                        i, combo, report.chosen_depth + 5, node_cap=20_000
                    )
                except ResourceCapError:
                    ok = False
                    break
                if node_count(concept) > max_concept_nodes:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return i
    raise ResourceCapError("no desk-scale interpretation found; loosen the limits")


def random_concept(rng: random.Random, sig: Signature, depth: int) -> Concept:
    """Random (possibly non-canonical) concept tree, for property tests."""
    atoms = sorted(sig.concept_names)
    roles = sorted(sig.role_names)
    choices = ["atom", "top", "and"]
    if roles and depth > 0:
        choices.extend(["exists", "exists"])
    kind = rng.choice(choices)
    if kind == "top":
        return TOP
    if kind == "atom" or not atoms and kind == "and":
        return Atom(rng.choice(atoms)) if atoms else TOP
    if kind == "exists":
        return Exists(rng.choice(roles), random_concept(rng, sig, depth - 1))
    parts = tuple(
        random_concept(rng, sig, depth) for _ in range(rng.randint(1, 3))
    )
    return And(parts)


# ---------------------------------------------------------------------------
# Executable check suites


def claim_dsim_check(g: DescriptionGraph, v, g2: DescriptionGraph, v2) -> bool:
    """If the depth-d unravelling of (g, v) simulates into (g2, v2) for
    d = mvf(g,v)·mvf(g2,v2), the same holds at depths d+1..d+4."""
    d = mvf(g, v) * mvf(g2, v2)
    if not bounded_simulates(g, v, g2, v2, d):
        return True  # premise fails; nothing to check
    return all(bounded_simulates(g, v, g2, v2, d + extra) for extra in range(1, 5))


def fbp_witness_check(which: str, n_max: int) -> bool:
    """Validity of the unbounded-depth CI families on the two loop fixtures:
    A ⊑ ∃r^n.⊤ on fig4i ('rhs') and ∃s.∃r^n.B ⊑ A on fig4ii ('lhs')."""
    from .fixtures import builtin_fixture

    if which == "rhs":
        i = builtin_fixture("fig4i")
        memo: dict = {}
        for n in range(1, n_max + 1):
            lhs = semantic_extension(Atom("A"), i, memo)
            rhs = semantic_extension(exists_chain("r", n, TOP), i, memo)
            if not lhs <= rhs:
                return False
        return True
    if which == "lhs":
        i = builtin_fixture("fig4ii")
        memo = {}
        for n in range(1, n_max + 1):
            lhs = semantic_extension(
                Exists("s", exists_chain("r", n, Atom("B"))), i, memo
            )
            rhs = semantic_extension(Atom("A"), i, memo)
            if not lhs <= rhs:
                return False
        return True
    raise ValueError(f"which must be 'rhs' or 'lhs', got {which!r}")


def exponential_depth_check() -> bool:
    """The coprime-cycle fixture needs unravelling depth 29 = 2·3·5 − 1: the
    hubs satisfy ∃r^29.A, the bare loop never reaches A, and the depth-28 vs
    depth-29 MMSC of the hubs flips membership of the bare loop."""
    from .fixtures import builtin_fixture
    from .mmsc import mmsc_at_depth

    i = builtin_fixture("fig5")
    memo: dict = {}
    deep = semantic_extension(exists_chain("r", 29, Atom("A")), i, memo)
    if not {"x1", "x2", "x3"} <= deep:
        return False
    for d in range(0, 30):
        if "x4" in semantic_extension(exists_chain("r", d, Atom("A")), i, memo):
            return False
    hubs = {"x1", "x2", "x3"}
    at28 = semantic_extension(mmsc_at_depth(i, hubs, 28), i, memo)
    at29 = semantic_extension(mmsc_at_depth(i, hubs, 29), i, memo)
    return "x4" in at28 and "x4" not in at29
