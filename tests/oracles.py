"""Brute-force oracles, random instance generators and executable claim checks.

Only the tests and `scripts/verify_bases.py` use these; the library does not.
Everything here is deliberately independent of the main algorithms:
exhaustive enumeration, semantic evaluation, and state-space search, used to
pin golden values and cross-check the fast paths.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
import random

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    ConceptInclusion,
    Exists,
    Interpretation,
    Signature,
    TOP,
    Top,
    active_signature,
    canonicalize,
    conjoin,
    conjuncts_of,
    make_interpretation,
    role_depth,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import (
    DEFAULT_NODE_CAP,
    DescriptionGraph,
    DescriptionTree,
    graph_of_interpretation,
    tree_of_concept,
)
from ciforge.miner import CompletenessReport
from ciforge.mmsc import adaptable_depth, mmsc_adaptive, mmsc_at_depth
from ciforge.mvf import mvf
from ciforge.oracles import enumerate_concepts
from ciforge.reasoner import Reasoner
from ciforge.simulation import semantic_extension

DEFAULT_SEED = 20260823


def harness_seed() -> int:
    """Seed for randomized suites; override with CIFORGE_SEED."""
    raw = os.environ.get("CIFORGE_SEED")
    return int(raw) if raw else DEFAULT_SEED


# ---------------------------------------------------------------------------
# Simulations between description graphs


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
# Completeness, one concept at a time


def completeness_by_concept(i: Interpretation, tbox, depth: int, size_cap: int):
    """`check_base_complete`'s report, computed concept by concept: each
    enumerated C is built, its extension evaluated and T ⊨ C ⊑ mmsc_d(C^I)
    asked, the MMSC registered when its extension first comes up; a failing
    C gives C ⊑ E per conjunct E of the MMSC that is not entailed."""
    memo: dict = {}
    targets: dict = {}
    reasoner = Reasoner(tbox)
    checked = 0
    counterexamples = []
    for c in enumerate_fragment(active_signature(i), depth, size_cap):
        ext = semantic_extension(c, i, memo)
        target = targets.get(ext)
        if target is None:
            target = targets[ext] = mmsc_at_depth(i, ext, depth)
            reasoner.register_rhs(target)
        checked += 1
        if not reasoner.entails_registered(c, target):
            for e in conjuncts_of(target):
                ci = ConceptInclusion(c, e)
                if not reasoner.entails(ci):
                    counterexamples.append(ci)
    subsumers = reasoner.subsumers
    return CompletenessReport(
        checked,
        tuple(counterexamples),
        len(subsumers),
        sum(map(len, subsumers.values())),
    )


# ---------------------------------------------------------------------------
# Walk measures by search


MVF_ORACLE_CAP = 12


def mvf_oracle(g: DescriptionGraph, v) -> int:
    """Exact mvf by searching (current vertex, visited set) states; usable up
    to 12 vertices only."""
    if len(g.vertices) > MVF_ORACLE_CAP:
        raise ResourceCapError(
            f"mvf_oracle is capped at {MVF_ORACLE_CAP} vertices"
        )
    if v not in g.vertices:
        raise ValidationError(f"{v!r} is not a vertex")
    best = 1
    seen_states = set()
    frontier = [(v, frozenset([v]))]
    while frontier:
        current, visited = frontier.pop()
        best = max(best, len(visited))
        for _, nxt in g.successors(current):
            state = (nxt, visited | {nxt})
            if state not in seen_states:
                seen_states.add(state)
                frontier.append(state)
    return best


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


# ---------------------------------------------------------------------------
# Reference constructions


def exists_chain(role: str, depth: int, filler: Concept) -> Concept:
    """Nested restriction ∃r^depth.C, written some r.some r. ... C."""
    c = filler
    for _ in range(depth):
        c = Exists(role, c)
    return c


def node_count(c: Concept) -> int:
    """Number of AST nodes; used as the size measure for enumeration caps."""
    if isinstance(c, (Top, Bottom, Atom)):
        return 1
    if isinstance(c, Exists):
        return 1 + node_count(c.filler)
    return 1 + sum(node_count(d) for d in c.conjuncts)


def fragment(sig: Signature, depth: int, size_cap: int) -> set:
    """Every canonical concept over sig of role depth at most `depth` and at
    most `size_cap` nodes, by brute force: {⊤, ⊥, atoms} closed under the
    canonical conjunction of two concepts and under restriction, keeping
    what is within the bounds.  Each round combines the concepts new in the
    last round with all found so far."""
    found = {TOP, BOTTOM, *(Atom(name) for name in sig.concept_names)}
    frontier = set(found)
    while frontier:
        grown = {Exists(role, c) for c in frontier if c is not BOTTOM for role in sig.role_names}
        grown.update(conjoin([c, d]) for c in frontier for d in found)
        frontier = {
            c for c in grown
            if c not in found and role_depth(c) <= depth and node_count(c) <= size_cap
        }
        found |= frontier
    return found


def enumerate_fragment(sig: Signature, depth: int, size_cap: int):
    """Every canonical concept over sig with role_depth <= depth and at most
    size_cap AST nodes, each exactly once, in a fixed order: Top, Bottom
    and the basic concepts as `enumerate_concepts` yields them, then the
    conjunctions in depth-first pre-order of their conjunct lists, the
    index-increasing lists of at least two basics that fit the cap with the
    And node.  So for n >= 3 the last conjunction of n - 1 conjuncts yielded
    before one of n conjuncts is its prefix, the conjunction of its
    conjuncts but the last."""
    pairs = list(enumerate_concepts(sig, depth, size_cap))
    yield from (c for c, _ in pairs)
    # The basics are in canonical conjunct order, so each conjunct list is
    # a canonical And as it stands.  `fitting[b]` lists the positions of the
    # basics of at most b nodes.
    pool = pairs[2:]
    fitting = [
        [k for k, (_, size) in enumerate(pool) if size <= budget]
        for budget in range(size_cap)
    ]

    def extend(start: int, chosen: list, used: int):
        # `used` counts the And node and the chosen conjuncts.
        candidates = fitting[size_cap - used]
        for k in candidates[bisect.bisect_left(candidates, start):]:
            c, size = pool[k]
            chosen.append(c)
            if len(chosen) > 1:
                yield And(tuple(chosen))
            if used + size < size_cap:
                yield from extend(k + 1, chosen, used + size)
            chosen.pop()

    yield from extend(0, [], 1)


def lower_approximation(c: Concept, i: Interpretation) -> Concept:
    """Replace each top-level existential filler E by the adaptive MMSC of
    E's extension; same extension as c, but built from mined vocabulary."""
    if isinstance(c, Bottom):
        return BOTTOM
    if isinstance(c, Top):
        return TOP
    parts: list[Concept] = []
    for d in conjuncts_of(c):
        if isinstance(d, Exists):
            filler = mmsc_adaptive(i, semantic_extension(d.filler, i))
            # An empty extension's MMSC is Bottom, and so is ∃r.Bottom.
            parts.append(
                BOTTOM if isinstance(filler, Bottom) else Exists(d.role, filler)
            )
        else:
            parts.append(d)
    return conjoin(parts)


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


# ---------------------------------------------------------------------------
# Instances


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


@functools.lru_cache(maxsize=None)
def seeded_instance(seed):
    return random_mineable_interpretation(random.Random(seed))


def cycle_interpretation(*lengths) -> Interpretation:
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
