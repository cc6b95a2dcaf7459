"""Description graphs and trees: construction, unravelling, products."""

import pytest
from hypothesis import given, strategies as st

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    Exists,
    TOP,
    canonicalize,
    make_interpretation,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import (
    DescriptionGraph,
    DescriptionTree,
    concept_of_tree,
    graph_of_interpretation,
    product_reachable,
    tree_of_concept,
    unravel,
)
from ciforge.simulation import equivalent_empty

from conftest import concepts, interpretations
from oracles import product_trees, random_graph


FIG2_CONCEPT = And(
    (
        Atom("City"),
        Exists("government", Atom("Party")),
        Exists("partof", And((Atom("Region"), Exists("capital", TOP)))),
    )
)


# -- graphs of interpretations ----------------------------------------------


def test_graph_of_two_city_fixture():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    assert ("x1", "partof", "x5") in g.edges
    assert g.label("x5") == {"Region"}
    assert len(g.vertices) == 7


def test_graph_of_bare_singleton():
    g = graph_of_interpretation(make_interpretation(["a"]))
    assert g.vertices == {"a"}
    assert not g.edges
    assert g.label("a") == frozenset()


def test_graph_of_loop_fixture():
    g = graph_of_interpretation(builtin_fixture("fig4i"))
    assert g.vertices == {"v1", "v2"}
    assert g.edges == {("v1", "r", "v2"), ("v2", "r", "v2")}
    assert g.label("v1") == {"A"}


def test_successors_keep_the_edge_order_without_duplicates():
    g = DescriptionGraph(
        ["a", "b", "c"], [("a", "s", "c"), ("a", "r", "b"), ("a", "s", "c")], {}
    )
    assert g.successors("a") == [("s", "c"), ("r", "b")]
    assert g.edges == {("a", "s", "c"), ("a", "r", "b")}
    # The interpretation graph passes its edges sorted, whatever the hash seed.
    i = make_interpretation(
        ["a", "b", "c"], {}, {"s": [("a", "c"), ("a", "b")], "r": [("a", "c")]}
    )
    assert graph_of_interpretation(i).successors("a") == [
        ("r", "c"),
        ("s", "b"),
        ("s", "c"),
    ]


def test_graph_validation():
    with pytest.raises(ValidationError):
        DescriptionGraph(["a"], [("a", "r", "b")], {})
    with pytest.raises(ValidationError):
        DescriptionGraph(["a"], [], {"b": {"A"}})


# -- concept trees ----------------------------------------------------------


def test_tree_of_top_is_single_unlabeled_node():
    t = tree_of_concept(TOP)
    assert len(t.graph.vertices) == 1
    assert t.graph.label(t.root) == frozenset()


def test_tree_of_atom_labels_the_root():
    t = tree_of_concept(Atom("A"))
    assert t.graph.label(t.root) == {"A"}


def test_tree_of_nested_restriction_is_a_chain():
    t = tree_of_concept(Exists("r", Exists("r", Atom("A"))))
    assert len(t.graph.vertices) == 3
    leaf_labels = sorted(map(sorted, t.graph.labels.values()))
    assert leaf_labels == [[], [], ["A"]]


def test_tree_of_four_node_example():
    t = tree_of_concept(canonicalize(FIG2_CONCEPT))
    assert len(t.graph.vertices) == 4
    assert t.graph.label(t.root) == {"City"}
    roles = sorted(role for _, role, _ in t.graph.edges)
    assert roles == ["capital", "government", "partof"]


def test_tree_of_bottom_is_rejected():
    with pytest.raises(ValidationError):
        tree_of_concept(BOTTOM)


def test_concept_of_single_node_is_top():
    t = DescriptionTree(DescriptionGraph([0], [], {0: set()}), 0)
    assert concept_of_tree(t) == TOP


def test_concept_of_tree_inverts_tree_of_concept():
    c = canonicalize(FIG2_CONCEPT)
    assert concept_of_tree(tree_of_concept(c)) == c


@given(concepts())
def test_tree_round_trip_preserves_equivalence(c):
    c = canonicalize(c)
    if c == BOTTOM:
        return
    assert equivalent_empty(concept_of_tree(tree_of_concept(c)), c)


def test_duplicate_sibling_subtrees_collapse():
    g = DescriptionGraph(
        [0, 1, 2],
        [(0, "r", 1), (0, "r", 2)],
        {0: set(), 1: {"A"}, 2: {"A"}},
    )
    assert concept_of_tree(DescriptionTree(g, 0)) == Exists("r", Atom("A"))


def test_tree_validation_rejects_cycles_and_orphans():
    cyclic = DescriptionGraph([0, 1], [(0, "r", 1), (1, "r", 0)], {})
    with pytest.raises(ValidationError):
        DescriptionTree(cyclic, 0)
    orphan = DescriptionGraph([0, 1], [], {})
    with pytest.raises(ValidationError):
        DescriptionTree(orphan, 0)


# -- unravelling ------------------------------------------------------------


def test_unravel_two_cycle_to_depth_one():
    g = graph_of_interpretation(builtin_fixture("fig7"))
    t = unravel(g, "a", 1)
    assert len(t.graph.vertices) == 2
    assert t.graph.label(t.root) == {"City"}
    (child,) = [c for _, c in t.children(t.root)]
    assert t.graph.label(child) == {"Region"}


def test_unravel_two_cycle_to_depth_three_is_a_path():
    g = graph_of_interpretation(builtin_fixture("fig7"))
    t = unravel(g, "a", 3)
    assert len(t.graph.vertices) == 4
    assert concept_of_tree(t) == And(
        (
            Atom("City"),
            Exists(
                "partof",
                And(
                    (
                        Atom("Region"),
                        Exists(
                            "capital",
                            And((Atom("City"), Exists("partof", Atom("Region")))),
                        ),
                    )
                ),
            ),
        )
    )


def test_unravel_depth_zero_is_the_labeled_start():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t = unravel(g, "x5", 0)
    assert len(t.graph.vertices) == 1
    assert t.graph.label(t.root) == {"Region"}


def _truncate(t: DescriptionTree, k: int) -> DescriptionTree:
    keep = {t.root: 0}
    frontier = [(t.root, 0)]
    while frontier:
        v, depth = frontier.pop()
        if depth == k:
            continue
        for _, child in t.children(v):
            keep[child] = depth + 1
            frontier.append((child, depth + 1))
    edges = [(a, r, b) for a, r, b in t.graph.edges if a in keep and b in keep]
    labels = {v: t.graph.label(v) for v in keep}
    return DescriptionTree(DescriptionGraph(keep, edges, labels), t.root)


@given(st.data())
def test_unravel_agrees_with_truncation_of_deeper_unravelling(data):
    import random

    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    g = random_graph(random.Random(seed), max_vertices=4, density=0.3)
    v = sorted(g.vertices)[0]
    d = data.draw(st.integers(min_value=0, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=d))
    deep = unravel(g, v, d, node_cap=50_000)
    assert concept_of_tree(unravel(g, v, k, node_cap=50_000)) == concept_of_tree(
        _truncate(deep, k)
    )


def test_unravel_rejects_a_negative_depth():
    g = graph_of_interpretation(builtin_fixture("fig4i"))
    with pytest.raises(ValidationError, match="got -1"):
        unravel(g, "v1", -1)


def test_unravel_honors_node_cap():
    g = graph_of_interpretation(builtin_fixture("fig4i"))
    with pytest.raises(ResourceCapError):
        unravel(g, "v1", 100, node_cap=10)


# -- products ---------------------------------------------------------------


def test_product_with_self_keeps_diagonal_labels():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t = unravel(g, "x1", 2)
    p = product_trees([t, t])
    assert p.root == (t.root, t.root)
    assert p.graph.label(p.root) == t.graph.label(t.root)


@given(interpretations(max_elements=3), st.integers(min_value=0, max_value=3))
def test_product_is_symmetric_up_to_equivalence(i, d):
    from ciforge.graphs import graph_of_interpretation as gi

    g = gi(i)
    xs = sorted(i.domain)[:2]
    if len(xs) < 2:
        return
    t1 = unravel(g, xs[0], d, node_cap=50_000)
    t2 = unravel(g, xs[1], d, node_cap=50_000)
    c12 = concept_of_tree(product_trees([t1, t2], node_cap=50_000))
    c21 = concept_of_tree(product_trees([t2, t1], node_cap=50_000))
    assert equivalent_empty(c12, c21)


def test_product_with_edgeless_factor_is_a_single_node():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t = unravel(g, "x1", 2)
    bare = DescriptionTree(DescriptionGraph([0], [], {0: set()}), 0)
    p = product_trees([t, bare])
    assert len(p.graph.vertices) == 1
    assert p.graph.label(p.root) == frozenset()


def test_depth_one_product_of_the_two_cities():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t1 = unravel(g, "x1", 1)
    t2 = unravel(g, "x2", 1)
    c = concept_of_tree(product_trees([t1, t2]))
    assert c == And(
        (
            Atom("City"),
            Exists("government", Atom("Party")),
            Exists("partof", Atom("Region")),
        )
    )


def test_reachable_product_of_the_two_cities():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    p = product_reachable(g, ("x1", "x2"))
    assert ("x1", "x2") in p.vertices
    assert ("x3", "x4") in p.vertices
    assert ("x5", "x7") in p.vertices
    assert ("x6", "x2") in p.vertices
    assert len(p.vertices) == 4


def test_reachable_product_without_shared_roles_is_a_point():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    p = product_reachable(g, ("x1", "x7"))
    assert p.vertices == {("x1", "x7")}
    assert not p.edges


def test_unary_reachable_product_is_the_reachable_subgraph():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    p = product_reachable(g, ("x1",))
    assert p.vertices == {("x1",), ("x3",), ("x5",), ("x6",)}
    assert (("x1",), "partof", ("x5",)) in p.edges


@given(interpretations(max_elements=3))
def test_product_walks_project_to_component_walks(i):
    g = graph_of_interpretation(i)
    xs = sorted(i.domain)
    start = (xs[0], xs[-1])
    p = product_reachable(g, start, node_cap=10_000)
    frontier = [(start, (start[0],), (start[-1],))]
    for _ in range(3):
        nxt = []
        for tup, w1, w2 in frontier:
            for role, child in p.successors(tup):
                assert (w1[-1], role, child[0]) in g.edges
                assert (w2[-1], role, child[1]) in g.edges
                nxt.append((child, w1 + (child[0],), w2 + (child[1],)))
        frontier = nxt


def test_product_reachable_honors_node_cap():
    vs = ["a", "b", "c"]
    g = DescriptionGraph(
        vs, [(u, "r", w) for u in vs for w in vs], {v: set() for v in vs}
    )
    with pytest.raises(ResourceCapError):
        product_reachable(g, ("a", "a", "a", "a"), node_cap=2)
