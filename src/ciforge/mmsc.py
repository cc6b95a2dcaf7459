"""Model-based most specific concepts at fixed and adaptable depths."""

from __future__ import annotations

from dataclasses import dataclass

from .concepts import (
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    Exists,
    Interpretation,
    TOP,
    Top,
    conjoin,
    conjuncts_of,
)
from .errors import ResourceCapError, ValidationError
from .graphs import (
    DEFAULT_NODE_CAP,
    DescriptionGraph,
    concept_of_tree,
    graph_of_interpretation,
    product_reachable,
    unravel,
)
from .mvf import condensation, mmvf, mvf, scc
from .simulation import semantic_extension, subsumed_empty


@dataclass(frozen=True)
class DepthReport:
    x_lim: frozenset  # members of X whose walks are all bounded
    product_mvf: int
    chosen_depth: int
    branch: str  # "bounded" | "cyclic"


class _Context:
    """The facts about one interpretation that do not depend on the element
    set: G(I), the elements with only bounded walks, and mmvf(G(I)).  Built
    on first use and kept on the interpretation (see `_context`)."""

    __slots__ = ("graph", "bounded", "mmvf", "_product")

    def __init__(self, i: Interpretation):
        g = graph_of_interpretation(i)
        partition = scc(g)
        cond = condensation(g, partition)
        # Components come out successors first, so every successor's verdict
        # is known when its predecessor is reached.
        unbounded: list[bool] = []
        for comp in range(cond.node_count):
            unbounded.append(cond.cyclic[comp] or any(unbounded[s] for s in cond.succ[comp]))
        self.graph = g
        self.bounded = frozenset(
            x for x in g.vertices if not unbounded[partition.component_of[x]]
        )
        self.mmvf = mmvf(g)
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
    of X has bounded walks, else d times the mmvf of G(I)."""
    elements = _sorted_elements(X)
    if not elements:
        raise ValidationError("adaptable depth needs a non-empty element set")
    ctx = _context(i)
    d = mvf(ctx.product(elements, node_cap), elements)
    x_lim = frozenset(x for x in elements if bounded_walks(i, x))
    if x_lim:
        return DepthReport(x_lim, d, d - 1, "bounded")
    return DepthReport(x_lim, d, d * ctx.mmvf, "cyclic")


def prune_subsumed_conjuncts(c: Concept) -> Concept:
    """Drop conjuncts that are consequences of a more specific sibling; keeps
    emitted MMSCs readable, preserves equivalence."""
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    if isinstance(c, Exists):
        return Exists(c.role, prune_subsumed_conjuncts(c.filler))
    parts = [prune_subsumed_conjuncts(d) for d in conjuncts_of(c)]
    kept: list[Concept] = []
    for idx, d in enumerate(parts):
        redundant = False
        for jdx, e in enumerate(parts):
            if idx == jdx or not subsumed_empty(e, d):
                continue
            # e entails d: keep d only if it is the earlier of two equivalent
            # conjuncts, otherwise drop it.
            if subsumed_empty(d, e) and idx < jdx:
                continue
            redundant = True
            break
        if not redundant:
            kept.append(d)
    return conjoin(kept)


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
    tree = unravel(product, elements, d, node_cap=node_cap)
    try:
        return concept_of_tree(tree)
    except RecursionError:
        raise ResourceCapError(
            f"the concept of depth {d} nests too deeply to build"
        ) from None


def mmsc_adaptive(i: Interpretation, X, node_cap: int = DEFAULT_NODE_CAP) -> Concept:
    """MMSC at the adaptable depth; Bottom for the empty set."""
    elements = _sorted_elements(X)
    if not elements:
        return BOTTOM
    report = adaptable_depth(i, elements, node_cap=node_cap)
    return mmsc_at_depth(i, elements, report.chosen_depth, node_cap=node_cap)


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
