"""Simulations, membership, extensions, and empty-TBox subsumption."""

import pytest
from hypothesis import given, strategies as st

from ciforge.concepts import (
    Atom,
    BOTTOM,
    Exists,
    TOP,
    canonicalize,
)
from ciforge.errors import ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import graph_of_interpretation, tree_of_concept, unravel
from ciforge.simulation import (
    equivalent_empty,
    semantic_extension,
    subsumed_empty,
    tree_simulates,
)

from conftest import concepts, interpretations
from oracles import (
    bounded_simulates,
    exists_chain,
    extension,
    functional_subsimulation,
    greatest_simulation,
    is_simulation,
    member,
    simulates,
)


# -- simulations ------------------------------------------------------------


def test_identity_is_a_simulation():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    for v in g.vertices:
        assert simulates(g, v, g, v)


def test_label_mismatch_blocks_simulation():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t = tree_of_concept(Atom("City"))
    assert simulates(t.graph, t.root, g, "x1")
    assert not simulates(t.graph, t.root, g, "x5")


def test_edge_structure_blocks_simulation():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    t = tree_of_concept(Exists("capital", Atom("City")))
    assert simulates(t.graph, t.root, g, "x7")
    assert not simulates(t.graph, t.root, g, "x5")


def test_simulates_validates_vertices():
    g = graph_of_interpretation(builtin_fixture("fig7"))
    with pytest.raises(ValidationError):
        simulates(g, "nope", g, "a")


def test_greatest_simulation_is_a_simulation_where_nonempty():
    g = graph_of_interpretation(builtin_fixture("fig4ii"))
    sim = greatest_simulation(g, g)
    for v1, v2 in sim:
        assert is_simulation(sim, g, v1, g, v2)


@given(interpretations(max_elements=4), st.integers(min_value=0, max_value=3))
def test_functional_subsimulation_from_a_tree_is_still_a_simulation(i, d):
    # Extraction keyed by source vertex needs each source to occur once on
    # every matched walk, so the source side must be a tree.
    g = graph_of_interpretation(i)
    for v1 in sorted(g.vertices):
        t = unravel(g, v1, d, node_cap=20_000)
        sim = greatest_simulation(t.graph, g)
        for v2 in sorted(g.vertices):
            if (t.root, v2) not in sim:
                continue
            sub = functional_subsimulation(sim, t.graph, t.root, g, v2)
            assert is_simulation(sub, t.graph, t.root, g, v2)
            partners = {}
            for w1, w2 in sub:
                assert partners.setdefault(w1, w2) == w2  # one partner each


@given(interpretations(max_elements=4), st.integers(min_value=0, max_value=4))
def test_bounded_simulation_matches_unravelled_simulation(i, d):
    g = graph_of_interpretation(i)
    for v1 in sorted(g.vertices):
        for v2 in sorted(g.vertices):
            t = unravel(g, v1, d, node_cap=20_000)
            expected = simulates(t.graph, t.root, g, v2)
            assert bounded_simulates(g, v1, g, v2, d) == expected


def test_tree_simulation_agrees_with_graph_simulation():
    c = canonicalize(
        Exists("partof", Atom("Region"))
    )
    d = canonicalize(Exists("partof", TOP))
    tc, td = tree_of_concept(c), tree_of_concept(d)
    assert tree_simulates(td, td.root, tc, tc.root) == simulates(
        td.graph, td.root, tc.graph, tc.root
    )
    assert not tree_simulates(tc, tc.root, td, td.root)


# -- membership and extensions ----------------------------------------------


def test_membership_golden_values():
    fig3 = builtin_fixture("fig3")
    assert member("x1", Atom("City"), fig3)
    assert not member("x1", BOTTOM, fig3)
    fig5 = builtin_fixture("fig5")
    assert not member("x4", exists_chain("r", 29, Atom("A")), fig5)
    assert not member("x4", exists_chain("r", 28, Atom("A")), fig5)
    for d in (0, 1, 5, 29):
        assert member("x4", exists_chain("r", d, TOP), fig5)


def test_member_rejects_unknown_elements():
    with pytest.raises(ValidationError):
        member("zz", TOP, builtin_fixture("fig7"))


def test_extension_golden_values():
    fig3 = builtin_fixture("fig3")
    assert extension(Atom("Region"), fig3) == {"x5", "x7"}
    assert extension(TOP, fig3) == fig3.domain
    assert extension(Exists("partof", Atom("Region")), fig3) == {"x1", "x2"}
    assert extension(BOTTOM, fig3) == frozenset()


@given(concepts(), interpretations())
def test_simulation_route_agrees_with_semantic_evaluation(c, i):
    c = canonicalize(c)
    assert extension(c, i) == semantic_extension(c, i)


# -- empty-TBox subsumption -------------------------------------------------


def test_subsumption_golden_values():
    from ciforge.concepts import And

    a, b = Atom("A"), Atom("B")
    assert subsumed_empty(And((a, b)), a)
    assert subsumed_empty(Exists("r", And((a, b))), Exists("r", a))
    assert not subsumed_empty(Exists("r", a), Exists("r", And((a, b))))
    assert subsumed_empty(BOTTOM, a)
    assert not subsumed_empty(a, BOTTOM)
    assert subsumed_empty(a, TOP)


@given(concepts())
def test_subsumption_is_reflexive(c):
    c = canonicalize(c)
    assert subsumed_empty(c, c)


@given(concepts(), concepts(), concepts())
def test_subsumption_is_transitive(c, d, e):
    c, d, e = canonicalize(c), canonicalize(d), canonicalize(e)
    if subsumed_empty(c, d) and subsumed_empty(d, e):
        assert subsumed_empty(c, e)


@given(concepts(), concepts(), interpretations(max_elements=4))
def test_subsumption_implies_extension_inclusion(c, d, i):
    c, d = canonicalize(c), canonicalize(d)
    if subsumed_empty(c, d):
        assert semantic_extension(c, i) <= semantic_extension(d, i)


def test_equivalence_is_mutual_subsumption():
    from ciforge.concepts import And

    a, b = Atom("A"), Atom("B")
    assert equivalent_empty(And((a, b)), And((a, b)))
    assert not equivalent_empty(a, And((a, b)))
