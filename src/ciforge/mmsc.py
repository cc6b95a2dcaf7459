"""Model-based most specific concepts at fixed and adaptable depths."""

from __future__ import annotations

from dataclasses import dataclass

from .concepts import (
    And,
    BOTTOM,
    Concept,
    Exists,
    Interpretation,
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
    per (element tuple, node cap).  G(I)'s components are found once: `scc`
    keeps them on the graph, so `mmvf` reads them.  Reachable products are
    shared between element sets, and a shared product keeps the MMSC of
    each of its bisimulation classes at each depth asked for (see
    `product`).  Built on first use and kept on the interpretation (see
    `_context`)."""

    __slots__ = ("graph", "bounded", "mmvf", "reports", "mmscs", "homes", "_product")

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
        # (elements, node_cap) -> `product`'s answer for the set, until the
        # set's MMSC is kept
        self.homes: dict = {}
        self._product = None  # ((elements, node_cap), answer) of the last call

    def product(self, elements: tuple, node_cap: int) -> tuple:
        """(P, u, classes): a reachable product P, the vertex u of P that
        stands for the elements tuple, and P's bisimulation classes with
        the MMSCs built from them, or None.

        Every tuple v in the start component of the product P built from S
        reaches what S reaches, and each vertex's successors are built from
        the vertex alone, so P is the product at v too.  Permuting the
        coordinates of every tuple keeps labels (intersections) and edges,
        so P started at v is the product at v's sorted form, up to that
        renaming, and has as many vertices, so the node cap fires where a
        fresh build would.  So each v with no repeated coordinate whose
        sorted form is an element set's tuple with no MMSC kept yet is
        entered in `homes` under that form; `mmsc_adaptive` takes the
        entry out when it keeps that MMSC.

        A start component with more than one tuple serves several sets, so
        P's counting-bisimulation classes are found once, with a dict for
        the MMSC of each (class, depth) that `mmsc_at_depth` builds: the
        vertices of one class unravel to isomorphic trees.  A start
        component of one tuple serves its own set alone, and `classes` is
        None.  The last answer is kept too, so `adaptable_depth` and then
        `mmsc_at_depth` on the same set, as the miner calls them, build it
        once."""
        key = (elements, node_cap)
        if self._product is not None and self._product[0] == key:
            return self._product[1]
        shared = self.homes.get(key)
        if shared is not None:
            return shared
        p = product_reachable(self.graph, elements, node_cap=node_cap)
        partition = scc(p)
        start = partition.components[partition.component_of[elements]]
        if len(start) == 1:
            answer = (p, elements, None)
        else:
            classes = (bisimulation_classes(p), {})
            for v in start:
                t = _sorted_elements(v)
                if len(t) == len(v) and (t, node_cap) not in self.mmscs:
                    self.homes[(t, node_cap)] = (p, v, classes)
            answer = (p, elements, classes)
        self._product = (key, answer)
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


def _sorted_elements(X) -> tuple:
    return tuple(sorted(set(X), key=repr))


def adaptable_depth(
    i: Interpretation, X, node_cap: int = DEFAULT_NODE_CAP
) -> DepthReport:
    """Unravelling depth sufficient for MMSC extension stabilization: take
    d = mvf of the |X|-fold product at the X-tuple, then d − 1 if some member
    of X has bounded walks, else d times the mmvf of G(I).  Computed once
    per element set and node cap."""
    elements = _sorted_elements(X)
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
    emitted MMSCs readable, preserves equivalence."""
    return bottom_up(c, _prune)


def _prune(c: Concept, parts: list) -> Concept:
    if isinstance(c, Exists):
        return Exists(c.role, parts[0])
    if not isinstance(c, And):
        return c
    # d goes if a sibling e entails it, unless they are equivalent and d is first.
    return conjoin([
        d for idx, d in enumerate(parts)
        if not any(
            idx != jdx and subsumed_empty(e, d) and not (idx < jdx and subsumed_empty(d, e))
            for jdx, e in enumerate(parts)
        )
    ])


def mmsc_at_depth(
    i: Interpretation,
    X,
    d: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Concept:
    """Most specific concept of role depth <= d whose extension contains X.

    The product of the depth-d unravellings of the members of X equals the
    depth-d unravelling of the reachable product started at the X-tuple, so
    the product graph (usually small) is built first and unravelled once.
    On a product shared by several sets, the sets whose vertices are
    bisimilar share that unravelling and its concept: their trees are
    isomorphic, so `conjoin` makes them one concept, and as large, so the
    node cap fires for all of them or for none.
    """
    elements = _sorted_elements(X)
    if not elements:
        return BOTTOM
    product, start, classes = _context(i).product(elements, node_cap)
    if classes is None:
        return concept_of_tree(unravel(product, start, d, node_cap=node_cap))
    class_of, built = classes
    key = (class_of[start], d)
    c = built.get(key)
    if c is None:
        c = built[key] = concept_of_tree(unravel(product, start, d, node_cap=node_cap))
    return c


def mmsc_adaptive(i: Interpretation, X, node_cap: int = DEFAULT_NODE_CAP) -> Concept:
    """MMSC at the adaptable depth; Bottom for the empty set.  Built once per
    element set and node cap, so the miner's attribute and axiom phases
    share it."""
    elements = _sorted_elements(X)
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
