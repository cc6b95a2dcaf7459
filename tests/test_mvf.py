"""SCCs, their walks, and the walk-coverage measures."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import DescriptionGraph, graph_of_interpretation, product_reachable
from ciforge.mvf import mmvf, mvf, scc

from oracles import mvf_oracle, random_graph, reach_count


def fig3_graph():
    return graph_of_interpretation(builtin_fixture("fig3"))


def fig5_graph():
    return graph_of_interpretation(builtin_fixture("fig5"))


def _stepped(g, v) -> set:
    """The vertices a walk of at least one edge from v ends at."""
    seen = set()
    frontier = [v]
    while frontier:
        for _, w in g.successors(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_the_package_attribute_is_the_module_not_the_function():
    import ciforge
    import ciforge.mvf as m

    assert m is sys.modules["ciforge.mvf"]
    assert ciforge.mvf is m
    assert m.scc is scc and m.mvf is mvf


# -- strongly connected components ------------------------------------------


def test_scc_of_two_city_fixture():
    partition = scc(fig3_graph())
    comps = sorted(sorted(c) for c in partition.components)
    assert comps == [["x1"], ["x2", "x7"], ["x3"], ["x4"], ["x5"], ["x6"]]


def test_scc_of_edgeless_graph_is_all_singletons():
    g = DescriptionGraph(["a", "b", "c"], [], {})
    partition = scc(g)
    assert len(partition.components) == 3
    assert not any(partition.cyclic)


def test_self_loop_is_a_cyclic_singleton():
    g = DescriptionGraph(["a"], [("a", "r", "a")], {})
    partition = scc(g)
    assert partition.components == (frozenset({"a"}),)
    assert partition.cyclic == (True,)


def test_scc_components_partition_the_vertices():
    g = fig5_graph()
    partition = scc(g)
    union = frozenset().union(*partition.components)
    assert union == g.vertices
    total = sum(len(c) for c in partition.components)
    assert total == len(g.vertices)


# -- condensation: the components' walks ------------------------------------


def test_condensation_of_two_city_fixture():
    partition = scc(fig3_graph())
    of = partition.component_of
    walk = partition.walk
    # Each edge between components adds the target's walk to the source's.
    assert walk[of["x1"]] >= 1 + walk[of["x5"]]
    assert walk[of["x5"]] == 1 + walk[of["x6"]]
    assert walk[of["x1"]] >= 1 + walk[of["x3"]]
    assert walk[of["x2"]] == 2 + walk[of["x4"]]
    # The x2/x7 component counts its own vertices once.
    assert len(partition.components[of["x2"]]) == 2
    assert walk[of["x2"]] == 3


def test_condensation_of_a_dag_is_isomorphic_with_unit_weights():
    g = DescriptionGraph(
        ["a", "b", "c"], [("a", "r", "b"), ("b", "r", "c")], {}
    )
    partition = scc(g)
    assert len(partition.components) == 3
    assert {len(c) for c in partition.components} == {1}
    of = partition.component_of
    assert [partition.walk[of[v]] for v in "abc"] == [3, 2, 1]
    assert not any(partition.unbounded)


def test_condensation_of_coprime_cycles():
    partition = scc(fig5_graph())
    assert sorted(len(c) for c in partition.components) == [1, 1, 2, 3, 5]
    # No component reaches another, so each weighs its own size.
    assert partition.walk == tuple(len(c) for c in partition.components)
    assert all(partition.cyclic)
    assert all(partition.unbounded)


# -- path weights -----------------------------------------------------------


def test_max_weight_of_isolated_node_is_its_weight():
    g = DescriptionGraph(["a", "b"], [("a", "r", "b"), ("b", "r", "a")], {})
    assert scc(g).walk == (2,)


def test_max_weight_follows_the_heaviest_path():
    partition = scc(fig3_graph())
    assert partition.walk[partition.component_of["x1"]] == 3


def test_max_weight_of_a_chain_sums_the_weights():
    g = DescriptionGraph(
        ["a", "b1", "b2", "c1", "c2", "c3"],
        [
            ("a", "r", "b1"),
            ("b1", "r", "b2"),
            ("b2", "r", "b1"),
            ("b2", "r", "c1"),
            ("c1", "r", "c2"),
            ("c2", "r", "c3"),
            ("c3", "r", "c1"),
        ],
        {},
    )
    partition = scc(g)
    assert partition.walk[partition.component_of["a"]] == 6


def test_walk_coverage_of_a_long_chain():
    # Deeper than the interpreter's recursion limit: the pass is a loop.
    n = 5_000
    g = DescriptionGraph(range(n), [(k, "r", k + 1) for k in range(n - 1)], {})
    assert mvf(g, 0) == mmvf(g) == n
    with pytest.raises(ValidationError):
        mvf(g, n)


# -- walk coverage ----------------------------------------------------------


def test_walk_coverage_golden_values():
    g = fig3_graph()
    assert mvf(g, "x1") == 3
    assert mvf(g, "x2") == 3
    single = DescriptionGraph(["a"], [], {})
    assert mvf(single, "a") == 1
    assert mvf(fig5_graph(), "x1") == 2


def test_max_walk_coverage_golden_values():
    assert mmvf(fig5_graph()) == 5
    assert mmvf(DescriptionGraph(["a", "b"], [], {})) == 1
    assert mmvf(fig3_graph()) == 3


def test_reach_count_golden_values():
    g = fig3_graph()
    assert reach_count(g, "x1") == 4
    single = DescriptionGraph(["a"], [], {})
    assert reach_count(single, "a") == 1


def test_reach_count_can_be_exponentially_larger():
    # Complete binary tree of depth 4: 31 reachable, only 5 on one walk.
    vertices = list(range(31))
    edges = [(k, "r", 2 * k + 1) for k in range(15)] + [
        (k, "r", 2 * k + 2) for k in range(15)
    ]
    g = DescriptionGraph(vertices, edges, {})
    assert reach_count(g, 0) == 31
    assert mvf(g, 0) == 5


# -- brute-force oracle -----------------------------------------------------


def test_oracle_agrees_on_fixture_graphs():
    for g in (fig3_graph(), fig5_graph()):
        for v in sorted(g.vertices):
            assert mvf(g, v) == mvf_oracle(g, v)


def test_oracle_on_self_loop():
    g = DescriptionGraph(["a"], [("a", "r", "a")], {})
    assert mvf_oracle(g, "a") == 1


def test_oracle_is_capped():
    vertices = [f"v{k}" for k in range(13)]
    g = DescriptionGraph(vertices, [], {})
    with pytest.raises(ResourceCapError):
        mvf_oracle(g, "v0")


@given(st.integers(min_value=0, max_value=10_000))
def test_fast_path_agrees_with_oracle_on_random_graphs(seed):
    g = random_graph(random.Random(seed), max_vertices=8, density=0.3)
    partition = scc(g)
    for v in sorted(g.vertices):
        assert mvf(g, v) == mvf_oracle(g, v)
        # v reaches a cyclic component iff it reaches a vertex on a cycle.
        on_cycle = any(u in _stepped(g, u) for u in {v} | _stepped(g, v))
        assert partition.unbounded[partition.component_of[v]] == on_cycle


@given(st.integers(min_value=0, max_value=10_000))
def test_walk_coverage_is_bounded_by_reachability(seed):
    g = random_graph(random.Random(seed), max_vertices=8, density=0.4)
    for v in sorted(g.vertices):
        assert mvf(g, v) <= reach_count(g, v)


@given(st.integers(min_value=0, max_value=5_000))
def test_product_coverage_is_bounded_by_the_factor_product(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=5, density=0.3)
    vs = sorted(g.vertices)
    tup = tuple(rng.choice(vs) for _ in range(rng.randint(1, 3)))
    p = product_reachable(g, tup, node_cap=50_000)
    bound = 1
    for v in tup:
        bound *= mvf(g, v)
    assert mvf(p, tup) <= bound
