"""Model-based most specific concepts at fixed and adaptable depths."""

from __future__ import annotations

from dataclasses import dataclass

from .concepts import (
    And,
    BOTTOM,
    Concept,
    Exists,
    Interpretation,
    _items,
    bottom_up,
    conjoin,
)
from .errors import ValidationError
from .graphs import (
    DEFAULT_NODE_CAP,
    bisimulation_classes,
    concept_of_tree,
    graph_of_interpretation,
    product_reachable,
    unravel,
)
from .mvf import mmvf, mvf, scc
from .simulation import subsumed_empty


@dataclass(frozen=True)
class DepthReport:
    x_lim: frozenset  # members of X whose walks are all bounded
    product_mvf: int
    chosen_depth: int
    branch: str  # "bounded" | "cyclic"


class _Context:
    """The facts about one interpretation: G(I), the elements with only
    bounded walks and mmvf(G(I)), which do not depend on the element set,
    and the depth report and adaptive MMSC of each element set asked for,
    per (element frozenset, node cap).  G(I)'s components are found once:
    `scc` keeps them on the graph, so `mmvf` reads them.  `homes` is the one
    product memo: it holds each element set's reachable product until the
    set's MMSC is kept.  One product serves every set of its start
    component, up to a permutation of coordinates, and keeps their MMSCs
    per bisimulation class and depth (see `product`).  Built on first use
    and kept on the interpretation (see `_context`)."""

    __slots__ = ("graph", "bounded", "mmvf", "reports", "mmscs", "homes")

    def __init__(self, i: Interpretation):
        g = graph_of_interpretation(i)
        partition = scc(g)
        self.graph = g
        self.bounded = frozenset(
            x for x in g.vertices if not partition.unbounded[partition.component_of[x]]
        )
        self.mmvf = mmvf(g)
        self.reports: dict = {}  # (elements, node_cap) -> DepthReport
        self.mmscs: dict = {}  # (elements, node_cap) -> MMSC at the report's depth
        # (elements, node_cap) -> `product`'s answer, until the MMSC is kept
        self.homes: dict = {}

    def product(self, elements: frozenset, node_cap: int) -> tuple:
        """(P, u, (class_of, built)): a reachable product P, the vertex u of
        P that stands for the element set S, a map from vertices of P's
        start component to their bisimulation classes, and a dict for the
        MMSC of each (class, depth) that `mmsc_at_depth` builds.

        Every tuple v in the start component of the product P built from S
        reaches what S reaches, and each vertex's successors are built from
        the vertex alone, so P is the product at v too.  Permuting the
        coordinates of every tuple keeps labels (intersections) and edges,
        so P started at v is the product at v's sorted form, up to that
        renaming, and has as many vertices, so the node cap fires where a
        fresh build would.  So each v with no repeated coordinate whose set
        has no MMSC kept yet, S's own among them, is entered in `homes`
        under that set; `mmsc_adaptive` takes the entry out when it keeps
        that MMSC.  So `adaptable_depth` and then `mmsc_at_depth` on the
        same set, as the miner calls them, build it once.

        The vertices of one counting-bisimulation class unravel to
        isomorphic trees, so the sets they stand for share one MMSC per
        depth.  A start component with more than one tuple finds P's
        classes once; one of one tuple serves its own set alone, and its
        class map is the trivial {u: 0}.  Only here is S sorted, into u."""
        answer = self.homes.get((elements, node_cap))
        if answer is None:
            u = tuple(sorted(elements))
            p = product_reachable(self.graph, u, node_cap=node_cap)
            partition = scc(p)
            start = partition.components[partition.component_of[u]]
            class_of = bisimulation_classes(p) if len(start) > 1 else {u: 0}
            classes = (class_of, {})
            for v in start:
                key = (frozenset(v), node_cap)
                if len(key[0]) == len(v) and key not in self.mmscs:
                    self.homes[key] = (p, v, classes)
            answer = (p, u, classes)
        return answer


def _context(i: Interpretation) -> _Context:
    # Cached in the instance's __dict__, outside its fields: equality and
    # repr are untouched, and a new interpretation gets a new context.
    ctx = i.__dict__.get("_mmsc_context")
    if ctx is None:
        ctx = _Context(i)
        object.__setattr__(i, "_mmsc_context", ctx)
    return ctx


def bounded_walks(i: Interpretation, x) -> bool:
    """True iff every walk from x in G(I) has bounded length, i.e. x cannot
    reach a cyclic component (size > 1 or self-loop)."""
    if x not in i.domain:
        raise ValidationError(f"{x!r} is not a domain element")
    return x in _context(i).bounded


def _elements(i: Interpretation, X) -> frozenset:
    """X as a frozenset of i's elements, or a ValidationError naming X's fault."""
    if isinstance(X, frozenset) and X <= i.domain:
        return X
    return frozenset(_items(X, "element set", i.domain))


def adaptable_depth(
    i: Interpretation, X, node_cap: int = DEFAULT_NODE_CAP
) -> DepthReport:
    """Unravelling depth sufficient for MMSC extension stabilization: take
    d = mvf of the |X|-fold product at the X-tuple, then d − 1 if some member
    of X has bounded walks, else d times the mmvf of G(I).  Computed once
    per element set and node cap."""
    elements = _elements(i, X)
    if not elements:
        raise ValidationError("adaptable depth needs a non-empty element set")
    ctx = _context(i)
    key = (elements, node_cap)
    report = ctx.reports.get(key)
    if report is None:
        product, start, _ = ctx.product(elements, node_cap)
        d = mvf(product, start)
        x_lim = frozenset(x for x in elements if bounded_walks(i, x))
        if x_lim:
            report = DepthReport(x_lim, d, d - 1, "bounded")
        else:
            report = DepthReport(x_lim, d, d * ctx.mmvf, "cyclic")
        ctx.reports[key] = report
    return report


def prune_subsumed_conjuncts(c: Concept) -> Concept:
    """Drop conjuncts that are consequences of a more specific sibling; keeps
    emitted MMSCs readable, preserves equivalence.  The siblings are
    compared pairwise, and each distinct one's description tree is built
    once for the whole walk."""
    trees: dict = {}  # concept -> its description tree

    def prune(node: Concept, parts: list) -> Concept:
        if isinstance(node, Exists):
            return Exists(node.role, parts[0])
        if not isinstance(node, And):
            return node
        # d goes if a sibling e entails it, unless they are equivalent and d is first.
        return conjoin([
            d for idx, d in enumerate(parts)
            if not any(
                idx != jdx
                and subsumed_empty(e, d, trees)
                and not (idx < jdx and subsumed_empty(d, e, trees))
                for jdx, e in enumerate(parts)
            )
        ])

    return bottom_up(c, prune)


def mmsc_at_depth(
    i: Interpretation,
    X,
    d: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Concept:
    """Most specific concept of role depth <= d whose extension contains X.

    The product of the depth-d unravellings of the members of X equals the
    depth-d unravelling of the reachable product started at the X-tuple, so
    the product graph (usually small) is built first and unravelled once
    per bisimulation class and depth, and the concept kept with it.  The
    sets whose vertices are bisimilar share that unravelling and its
    concept: their trees are isomorphic, so `conjoin` makes them one
    concept, and as large, so the node cap fires for all of them or for
    none.
    """
    elements = _elements(i, X)
    if not elements:
        return BOTTOM
    product, start, (class_of, built) = _context(i).product(elements, node_cap)
    key = (class_of[start], d)
    c = built.get(key)
    if c is None:
        c = built[key] = concept_of_tree(unravel(product, start, d, node_cap=node_cap))
    return c


def mmsc_adaptive(i: Interpretation, X, node_cap: int = DEFAULT_NODE_CAP) -> Concept:
    """MMSC at the adaptable depth; Bottom for the empty set.  Built once per
    element set and node cap, so the miner's attribute and axiom phases
    share it."""
    elements = _elements(i, X)
    if not elements:
        return BOTTOM
    ctx = _context(i)
    key = (elements, node_cap)
    c = ctx.mmscs.get(key)
    if c is None:
        # A kept report is read here, not asked for again, so each set's
        # report is asked for once (the benchmark traces those calls).
        report = ctx.reports.get(key) or adaptable_depth(i, elements, node_cap=node_cap)
        c = ctx.mmscs[key] = mmsc_at_depth(i, elements, report.chosen_depth, node_cap=node_cap)
        # The MMSC is kept now, so the miner will not ask for this set's
        # product again.
        ctx.homes.pop(key, None)
    return c
