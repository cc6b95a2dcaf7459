"""Description graphs and trees: interpretation graphs, concept trees,
unravellings, and (reachable) products."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .concepts import (
    Atom,
    Bottom,
    Concept,
    Exists,
    Interpretation,
    conjoin,
    conjuncts_of,
)
from .errors import ResourceCapError, ValidationError

DEFAULT_NODE_CAP = 500_000


class DescriptionGraph:
    """Vertex-labeled digraph with role-labeled edges.

    Vertices are opaque hashable ids; labels map each vertex to a frozenset of
    concept names.  Adjacency is indexed at construction time; each vertex's
    successors keep the order of `edges`, duplicates dropped, so a builder
    that passes its edges in a fixed order gets a fixed successor order.
    A graph is not changed once built, so `mvf.scc` keeps its partition in
    `_scc`.
    """

    __slots__ = ("vertices", "edges", "labels", "_succ", "_scc")

    def __init__(self, vertices, edges, labels):
        self.vertices = frozenset(vertices)
        ordered = dict.fromkeys(edges)
        self.edges = frozenset(ordered)
        self.labels = {v: frozenset(labels.get(v, ())) for v in self.vertices}
        for src, role, tgt in self.edges:
            if src not in self.vertices or tgt not in self.vertices:
                raise ValidationError(f"edge ({src!r},{role!r},{tgt!r}) leaves the vertex set")
        for v in labels:
            if v not in self.vertices:
                raise ValidationError(f"label key {v!r} is not a vertex")
        succ = {v: [] for v in self.vertices}
        for src, role, tgt in ordered:
            succ[src].append((role, tgt))
        self._succ = succ
        self._scc = None

    def successors(self, v):
        return self._succ[v]

    def successors_by_role(self, v, role):
        return [tgt for r, tgt in self._succ[v] if r == role]

    def label(self, v):
        return self.labels[v]

    def __eq__(self, other):
        return (
            isinstance(other, DescriptionGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"DescriptionGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True, eq=False)
class DescriptionTree:
    """A description graph that is a directed tree, plus its root."""

    graph: DescriptionGraph
    root: object

    def __post_init__(self):
        g = self.graph
        if self.root not in g.vertices:
            raise ValidationError("tree root is not a vertex")
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            v = frontier.pop()
            for _, child in g.successors(v):
                if child in seen:
                    raise ValidationError("tree has a reconvergent or cyclic edge")
                seen.add(child)
                frontier.append(child)
        if seen != g.vertices:
            raise ValidationError("tree has vertices unreachable from the root")

    def children(self, v):
        return self.graph.successors(v)


def graph_of_interpretation(i: Interpretation) -> DescriptionGraph:
    labels = {x: set() for x in i.domain}
    for name, ext in i.concept_ext.items():
        for x in ext:
            labels[x].add(name)
    edges = [
        (src, role, tgt)
        for role in sorted(i.role_ext)
        for src, tgt in sorted(i.role_ext[role])
    ]
    return DescriptionGraph(i.domain, edges, labels)


def tree_of_concept(c: Concept) -> DescriptionTree:
    """Description tree of a canonical concept; Bottom has none.  Vertices
    are numbered in breadth-first order from the root 0."""
    edges = []
    labels = {0: set()}
    queue = [(0, c)]  # grows as it is read
    for node, concept in queue:
        for part in conjuncts_of(concept):
            if isinstance(part, Atom):
                labels[node].add(part.name)
            elif isinstance(part, Exists):
                child = len(labels)
                labels[child] = set()
                edges.append((node, part.role, child))
                queue.append((child, part.filler))
            elif isinstance(part, Bottom):
                raise ValidationError("Bottom has no description tree")
            else:
                raise ValidationError(f"concept not canonical: {part!r}")
    return DescriptionTree(DescriptionGraph(labels, edges, labels), 0)


def concept_of_tree(t: DescriptionTree) -> Concept:
    """Canonical concept of a tree, built bottom-up with `conjoin` over the
    breadth-first order reversed, children before parents; children are
    canonical by construction."""
    successors = t.graph.successors
    label = t.graph.label
    order = [t.root]
    for v in order:
        order += [child for _, child in successors(v)]
    built = {}
    pop = built.pop
    for v in reversed(order):
        parts = [Atom(a) for a in label(v)]
        parts += [Exists(role, pop(child)) for role, child in successors(v)]
        built[v] = conjoin(parts)
    return built[t.root]


def unravel(g: DescriptionGraph, x, d: int, node_cap: int = DEFAULT_NODE_CAP) -> DescriptionTree:
    """Tree of walks from x of length <= d; node ids are ints, the walk is
    recoverable through the parent structure (kept implicitly via edges).
    A negative depth is a ValidationError."""
    if x not in g.vertices:
        raise ValidationError(f"{x!r} is not a vertex")
    if d < 0:
        raise ValidationError(f"unravelling depth must be at least 0, got {d}")
    # The frontier holds (node, last graph vertex of its walk, remaining
    # depth); nodes are numbered in creation order, so `labels` counts them.
    successors = g.successors
    label = g.label
    labels = {0: label(x)}
    edges = []
    frontier = [(0, x, d)]
    while frontier:
        node, last, budget = frontier.pop()
        if budget == 0:
            continue
        for role, tgt in successors(last):
            child = len(labels)
            if child >= node_cap:
                raise ResourceCapError(
                    f"unravelling exceeded the node cap of {node_cap}"
                )
            labels[child] = label(tgt)
            edges.append((node, role, child))
            frontier.append((child, tgt, budget - 1))
    return DescriptionTree(DescriptionGraph(labels, edges, labels), 0)


def bisimulation_classes(g: DescriptionGraph) -> dict:
    """Vertex -> index of its class under the coarsest counting
    bisimulation: vertices in one class have one label and, for each role
    and class, as many successors by that role in that class.  Found by
    partition refinement from the labels, in rounds until the class count
    stops growing.

    Counting, not only which (role, class) pairs occur, makes the
    depth-d unravellings of two vertices in one class isomorphic trees,
    so they have the same size as well as the same concept."""
    ids: dict = {}
    class_of = {v: ids.setdefault(g.label(v), len(ids)) for v in g.vertices}
    count = 0
    while len(ids) > count:
        count = len(ids)
        ids = {}
        class_of = {
            v: ids.setdefault(
                (k, tuple(sorted((role, class_of[w]) for role, w in g.successors(v)))),
                len(ids),
            )
            for v, k in class_of.items()
        }
    return class_of


def product_reachable(
    g: DescriptionGraph, start: tuple, node_cap: int = DEFAULT_NODE_CAP
) -> DescriptionGraph:
    """Sub-graph of the n-fold product of g induced by the vertices reachable
    from `start`; avoids materializing the exponential full product."""
    start = tuple(start)
    for v in start:
        if v not in g.vertices:
            raise ValidationError(f"{v!r} is not a vertex")
    vertices = {start}
    edges = []
    labels = {}
    frontier = [start]
    while frontier:
        tup = frontier.pop()
        labels[tup] = frozenset.intersection(*(g.label(v) for v in tup))
        per_vertex = []
        shared = None
        for v in tup:
            roles = {}
            for role, child in g.successors(v):
                roles.setdefault(role, []).append(child)
            per_vertex.append(roles)
            shared = set(roles) if shared is None else shared & set(roles)
        for role in sorted(shared):
            for combo in itertools.product(*(roles[role] for roles in per_vertex)):
                edges.append((tup, role, combo))
                if combo not in vertices:
                    if len(vertices) >= node_cap:
                        raise ResourceCapError(
                            f"reachable product exceeded the node cap of {node_cap}"
                        )
                    vertices.add(combo)
                    frontier.append(combo)
    return DescriptionGraph(vertices, edges, labels)
