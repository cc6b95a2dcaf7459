"""Brute-force oracles and executable counterexample suites.

Everything here is deliberately independent of the main algorithms: exhaustive
enumeration, semantic evaluation, and state-space search, used to pin golden
values and cross-check the fast paths.
"""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect_left
from operator import itemgetter

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
    exists_chain,
    make_interpretation,
    node_count,
)
from .errors import ResourceCapError, ValidationError
from .graphs import (
    DEFAULT_NODE_CAP,
    DescriptionGraph,
    DescriptionTree,
    graph_of_interpretation,
    tree_of_concept,
)
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


# ---------------------------------------------------------------------------
# Reference constructions and checks


def is_canonical(c: Concept) -> bool:
    return canonicalize(c) == c


def signature_of(c: Concept) -> Signature:
    """Concept and role names occurring in c."""
    atoms, roles = set(), set()
    stack = [c]
    while stack:
        d = stack.pop()
        if isinstance(d, Atom):
            atoms.add(d.name)
        elif isinstance(d, Exists):
            roles.add(d.role)
            stack.append(d.filler)
        elif isinstance(d, And):
            stack.extend(d.conjuncts)
    return Signature(frozenset(atoms), frozenset(roles))


def reach_count(g: DescriptionGraph, v) -> int:
    """Number of vertices reachable from v, including v itself."""
    if v not in g.vertices:
        raise ValidationError(f"{v!r} is not a vertex")
    seen = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for _, w in g.successors(u):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen)


def product_trees(trees, node_cap: int = DEFAULT_NODE_CAP) -> DescriptionTree:
    """Product of description trees, restricted to the part reachable from the
    tuple of roots.  An edge exists iff every factor has a same-role edge;
    labels are intersections.  Checks `graphs.product_reachable`, which
    builds the product of unravellings from the product graph instead."""
    trees = list(trees)
    if not trees:
        raise ValidationError("product of zero trees is undefined")
    root = tuple(t.root for t in trees)
    vertices = {root}
    labels = {}
    edges = []
    frontier = [root]
    while frontier:
        tup = frontier.pop()
        labels[tup] = frozenset.intersection(
            *(t.graph.label(v) for t, v in zip(trees, tup))
        )
        per_role = []
        shared = None
        for t, v in zip(trees, tup):
            roles = {}
            for role, child in t.children(v):
                roles.setdefault(role, []).append(child)
            per_role.append(roles)
            shared = set(roles) if shared is None else shared & set(roles)
        for role in sorted(shared):
            for combo in itertools.product(*(roles[role] for roles in per_role)):
                if len(vertices) >= node_cap:
                    raise ResourceCapError(
                        f"tree product exceeded the node cap of {node_cap}"
                    )
                vertices.add(combo)
                edges.append((tup, role, combo))
                frontier.append(combo)
    return DescriptionTree(DescriptionGraph(vertices, edges, labels), root)


def is_simulation(pairs, g1: DescriptionGraph, v1, g2: DescriptionGraph, v2) -> bool:
    """Check the three defining conditions of a simulation relation."""
    if (v1, v2) not in pairs:
        return False
    for w1, w2 in pairs:
        if not g1.label(w1) <= g2.label(w2):
            return False
        for role, u1 in g1.successors(w1):
            if not any((u1, u2) in pairs for u2 in g2.successors_by_role(w2, role)):
                return False
    return True


def functional_subsimulation(pairs, g1: DescriptionGraph, v1, g2: DescriptionGraph, v2):
    """Extract a functional sub-simulation (one partner per g1 vertex along the
    tree of matches) from a full simulation containing (v1, v2)."""
    chosen = set()
    frontier = [(v1, v2)]
    mapped = {}
    while frontier:
        w1, w2 = frontier.pop()
        if w1 in mapped:
            continue
        mapped[w1] = w2
        chosen.add((w1, w2))
        for role, u1 in g1.successors(w1):
            for u2 in g2.successors_by_role(w2, role):
                if (u1, u2) in pairs:
                    frontier.append((u1, u2))
                    break
    return chosen


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
