"""MVF/MMVF graph measures, read off the strongly connected components.

The measure of interest is the maximum number of distinct vertices a single
walk from a start vertex can visit.  A walk stays in a component as long as
it likes and leaves it for good, so from a component it visits the
component's size plus the heaviest walk from one of its successor
components.  Tarjan's algorithm closes every successor component before its
predecessor, so `scc` records each component's walk as it closes it.
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
    walk: tuple  # per component: most distinct vertices one walk from it visits
    unbounded: tuple  # per component: whether it reaches a cyclic component


def scc(g: DescriptionGraph) -> SccPartition:
    """The strongly connected components of g, with their walk measures.

    Found by `_tarjan` on the first call and kept on the graph, which is
    not changed once built: `mvf`, `mmvf` and the miner's context share one
    pass per graph however often they ask.
    """
    partition = g._scc
    if partition is None:
        partition = g._scc = _tarjan(g)
    return partition


def _tarjan(g: DescriptionGraph) -> SccPartition:
    """Tarjan's algorithm, iterative to survive deep graphs.

    Role labels are ignored; multi-edges collapse.  Components come out in
    reverse topological order (successors before predecessors), so when a
    component closes, its successors' walks and verdicts are known: its walk
    is its size plus the heaviest of theirs, and it is unbounded when it is
    cyclic or one of them is unbounded.
    """
    adjacency = {v: {tgt for _, tgt in g.successors(v)} for v in g.vertices}
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    component_of = {}
    cyclic = []
    walk = []
    unbounded = []
    counter = 0

    for start in g.vertices:
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
                # Every target outside comp lies in a component closed before.
                loops = len(comp) > 1
                heaviest = 0
                reaches_cycle = False
                for w in comp:
                    for t in adjacency[w]:
                        k = component_of[t]
                        if k == comp_index:
                            loops = True
                        else:
                            heaviest = max(heaviest, walk[k])
                            reaches_cycle = reaches_cycle or unbounded[k]
                components.append(frozenset(comp))
                cyclic.append(loops)
                walk.append(len(comp) + heaviest)
                unbounded.append(loops or reaches_cycle)
    return SccPartition(
        tuple(components), component_of, tuple(cyclic), tuple(walk), tuple(unbounded)
    )


def mvf(g: DescriptionGraph, v) -> int:
    """Maximum number of distinct vertices visitable by one walk from v."""
    if v not in g.vertices:
        raise ValidationError(f"{v!r} is not a vertex")
    partition = scc(g)
    return partition.walk[partition.component_of[v]]


def mmvf(g: DescriptionGraph) -> int:
    """max over all vertices of mvf."""
    return max(scc(g).walk, default=0)
