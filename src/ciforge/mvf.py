"""MVF/MMVF graph measures via SCC condensation.

The measure of interest is the maximum number of distinct vertices a single
walk from a start vertex can visit.  On the condensation DAG this is the
maximum path weight, computed in one pass over Tarjan's component order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .graphs import DescriptionGraph


@dataclass(frozen=True)
class SccPartition:
    components: tuple  # of frozensets, in reverse topological order of discovery
    component_of: dict  # vertex -> index into components
    cyclic: tuple  # per-component flag: size > 1 or a self-loop

    def __post_init__(self):
        assert len(self.components) == len(self.cyclic)


@dataclass(frozen=True)
class Condensation:
    weights: tuple  # component index -> component size
    dag_edges: frozenset  # (component, component), no self-pairs
    succ: dict  # component -> sorted tuple of successor components
    cyclic: tuple  # carried over from SccPartition

    @property
    def node_count(self):
        return len(self.weights)


def scc(g: DescriptionGraph) -> SccPartition:
    """Tarjan's algorithm, iterative to survive deep graphs.

    Role labels are ignored; multi-edges collapse.  Components come out in
    reverse topological order (successors before predecessors).
    """
    adjacency = {v: sorted({tgt for _, tgt in g.successors(v)}, key=repr) for v in g.vertices}
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    component_of = {}
    cyclic = []
    counter = 0

    for start in sorted(g.vertices, key=repr):
        if start in index:
            continue
        work = [(start, iter(adjacency[start]))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adjacency[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comp_index = len(components)
                for w in comp:
                    component_of[w] = comp_index
                components.append(frozenset(comp))
                cyclic.append(len(comp) > 1 or any(w in adjacency[w] for w in comp))
    return SccPartition(tuple(components), component_of, tuple(cyclic))


def condensation(g: DescriptionGraph, partition: SccPartition | None = None) -> Condensation:
    if partition is None:
        partition = scc(g)
    comp_of = partition.component_of
    dag_edges = set()
    for src, _, tgt in g.edges:
        a, b = comp_of[src], comp_of[tgt]
        if a != b:
            dag_edges.add((a, b))
    succ = {i: [] for i in range(len(partition.components))}
    for a, b in dag_edges:
        succ[a].append(b)
    succ = {a: tuple(sorted(bs)) for a, bs in succ.items()}
    weights = tuple(len(c) for c in partition.components)
    return Condensation(weights, frozenset(dag_edges), succ, partition.cyclic)


def walk_weights(c: Condensation) -> list[int]:
    """Maximum path weight from each condensation node: its own weight plus
    the heaviest of its successors'.  Tarjan's algorithm numbers every
    successor below its predecessor, so one pass in index order finds each
    successor's value already there."""
    walk: list[int] = []
    for node, weight in enumerate(c.weights):
        walk.append(weight + max((walk[s] for s in c.succ[node]), default=0))
    return walk


def mvf(g: DescriptionGraph, v) -> int:
    """Maximum number of distinct vertices visitable by one walk from v."""
    if v not in g.vertices:
        raise ValidationError(f"{v!r} is not a vertex")
    partition = scc(g)
    return walk_weights(condensation(g, partition))[partition.component_of[v]]


def mmvf(g: DescriptionGraph) -> int:
    """max over all vertices of mvf."""
    return max(walk_weights(condensation(g)), default=0)
