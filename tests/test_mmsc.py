"""Most specific concepts at fixed and adaptively chosen depths."""

import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    Exists,
    Signature,
    TOP,
    canonicalize,
    make_interpretation,
    parse_concept,
    role_depth,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import graph_of_interpretation, unravel
from ciforge import mmsc as mmsc_module
from ciforge.miner import build_base
from ciforge.mmsc import (
    _context,
    adaptable_depth,
    bounded_walks,
    mmsc_adaptive,
    mmsc_at_depth,
    prune_subsumed_conjuncts,
)
from ciforge.mvf import scc
from ciforge.simulation import (
    equivalent_empty,
    semantic_extension,
    subsumed_empty,
)
from ciforge.storage import interpretation_to_document

from conftest import concepts
from oracles import (
    enumerate_fragment,
    lower_approximation,
    product_trees,
    random_concept,
    random_interpretation,
    random_mineable_interpretation,
    seeded_instance,
)


# -- walk boundedness -------------------------------------------------------


def test_bounded_walks_golden_values():
    fig3 = builtin_fixture("fig3")
    assert bounded_walks(fig3, "x1")
    assert not bounded_walks(fig3, "x2")
    assert not bounded_walks(builtin_fixture("fig5"), "x4")


def test_bounded_walks_validates_the_element():
    with pytest.raises(ValidationError):
        bounded_walks(builtin_fixture("fig7"), "zz")


def bounded_walks_by_search(i, x) -> bool:
    """Reference: search every element reachable from x for a cyclic SCC."""
    g = graph_of_interpretation(i)
    partition = scc(g)
    seen = {x}
    frontier = [x]
    while frontier:
        v = frontier.pop()
        if partition.cyclic[partition.component_of[v]]:
            return False
        for _, w in g.successors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return True


def test_bounded_walks_agrees_with_the_search_on_random_interpretations():
    self_loops = reconvergent = checked = 0
    for seed in range(300):
        i = random_interpretation(random.Random(seed), max_elements=6, density=0.15)
        edges = {(src, tgt) for pairs in i.role_ext.values() for src, tgt in pairs}
        self_loops += any(src == tgt for src, tgt in edges)
        # Two distinct edges into one element from different sources.
        targets = [tgt for src, tgt in edges if src != tgt]
        reconvergent += len(targets) != len(set(targets))
        for x in sorted(i.domain):
            assert bounded_walks(i, x) == bounded_walks_by_search(i, x), (seed, x)
            checked += 1
    assert self_loops and reconvergent and checked > 900


def test_bounded_walks_on_a_chain_into_a_cycle():
    # a -> b -> c <-> d, plus a reconvergent a -> c and a bounded spur b -> e.
    i = make_interpretation(
        ["a", "b", "c", "d", "e"],
        role_ext={"r": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "c"), ("a", "c")],
                  "s": [("b", "e")]},
    )
    assert [bounded_walks(i, x) for x in "abcde"] == [False] * 4 + [True]


# -- depth selection --------------------------------------------------------

def test_depth_for_cyclic_singleton_multiplies_the_graph_bound():
    report = adaptable_depth(builtin_fixture("fig5"), {"x1"})
    assert report.branch == "cyclic"
    assert report.product_mvf == 2
    assert report.chosen_depth == 10
    assert not report.x_lim


def test_depth_for_non_interacting_pair_is_zero():
    report = adaptable_depth(builtin_fixture("fig3"), {"x1", "x7"})
    assert report.product_mvf == 1
    assert report.chosen_depth == 0
    assert report.branch == "bounded"


def test_depth_report_for_the_two_cities():
    # One member has only bounded walks, so the bounded branch applies with
    # depth one below the product walk coverage (which is 3: the product
    # admits a two-step walk through three distinct product vertices).
    report = adaptable_depth(builtin_fixture("fig3"), {"x1", "x2"})
    assert report.branch == "bounded"
    assert report.x_lim == {"x1"}
    assert report.product_mvf == 3
    assert report.chosen_depth == 2


def test_depth_of_a_chain_deeper_than_the_recursion_limit():
    n = 1_200
    chain = [(f"v{k}", f"v{k + 1}") for k in range(n - 1)]
    i = make_interpretation([f"v{k}" for k in range(n)], {}, {"r": chain})
    report = adaptable_depth(i, ["v0"])
    assert report.branch == "bounded"
    assert (report.product_mvf, report.chosen_depth) == (n, n - 1)


def test_too_deep_mmsc_is_a_resource_cap_error():
    # Deeper than the recursion limit: the tree's concept is built in a loop.
    c = mmsc_at_depth(builtin_fixture("fig4i"), {"v1"}, 1500)
    assert role_depth(c) == 1500


def test_depth_rejects_the_empty_set():
    with pytest.raises(ValidationError):
        adaptable_depth(builtin_fixture("fig7"), ())


@given(st.integers(min_value=0, max_value=2_000))
def test_depth_report_internal_consistency(seed):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    elements = sorted(i.domain)
    X = rng.sample(elements, rng.randint(1, len(elements)))
    report = adaptable_depth(i, X)
    assert (report.branch == "bounded") == bool(report.x_lim)
    if report.branch == "bounded":
        assert report.chosen_depth == report.product_mvf - 1
    else:
        from ciforge.mvf import mmvf

        g = graph_of_interpretation(i)
        assert report.chosen_depth == report.product_mvf * mmvf(g)
    assert all(bounded_walks(i, x) for x in report.x_lim)


def test_depth_and_mmsc_respect_a_small_node_cap():
    hubs = {"x1", "x2", "x3"}
    with pytest.raises(ResourceCapError):
        adaptable_depth(builtin_fixture("fig5"), hubs, node_cap=5)
    with pytest.raises(ResourceCapError):
        mmsc_at_depth(builtin_fixture("fig5"), hubs, 29, node_cap=5)
    # The 30-vertex product fits a cap of 100 but its unravelling at the
    # chosen depth (a 151-node chain) does not, also right after the depth
    # report built that product.
    i = builtin_fixture("fig5")
    report = adaptable_depth(i, hubs, node_cap=100)
    assert (report.product_mvf, report.chosen_depth) == (30, 150)
    with pytest.raises(ResourceCapError):
        mmsc_at_depth(i, hubs, report.chosen_depth, node_cap=100)
    # A product, depth report or MMSC built under a larger cap is not
    # reused under a smaller one.
    adaptable_depth(i, hubs)
    with pytest.raises(ResourceCapError):
        adaptable_depth(i, hubs, node_cap=5)
    mmsc_adaptive(i, hubs)
    with pytest.raises(ResourceCapError):
        mmsc_adaptive(i, hubs, node_cap=5)


def test_random_mineable_interpretations_are_unchanged():
    # random_mineable_interpretation resamples on ResourceCapError, so a
    # change in where the caps fire would change the instances picked.
    docs = [interpretation_to_document(seeded_instance(seed)) for seed in range(40)]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "1c66cf201f70206e5f7dbd2f9743160f912980e303daaee99bff7a6c2a5aa9a9"


# -- the per-interpretation context -----------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_mining_builds_the_graph_once_and_each_product_once(monkeypatch):
    # attribute_set builds the depth report and the MMSC of each non-empty
    # subset, and the axioms of build_base reuse them: over the whole mine,
    # one product and one unravelling per subset.
    graphs = _counting(monkeypatch, mmsc_module, "graph_of_interpretation")
    products = _counting(monkeypatch, mmsc_module, "product_reachable")
    unravellings = _counting(monkeypatch, mmsc_module, "unravel")
    i = builtin_fixture("fig3")
    _, report = build_base(i)
    assert len(graphs) == 1
    assert len(report.depth_reports) == 2 ** len(i.domain) - 1 == 127
    assert len(products) == len(unravellings) == 127
    # A second mine of the same interpretation builds nothing.
    build_base(i)
    assert len(products) == len(unravellings) == 127


def test_interpretations_differing_in_roles_do_not_share_a_context():
    looped = make_interpretation(["a", "b"], {"A": ["a"]}, {"r": [("a", "b"), ("b", "b")]})
    chained = make_interpretation(["a", "b"], {"A": ["a"]}, {"r": [("a", "b")]})
    assert not bounded_walks(looped, "a")
    assert bounded_walks(chained, "a")
    assert _context(looped) is not _context(chained)
    assert adaptable_depth(looped, {"a"}).branch == "cyclic"
    assert adaptable_depth(chained, {"a"}).branch == "bounded"


# -- fixed-depth most specific concepts -------------------------------------


def test_mmsc_of_the_empty_set_is_bottom():
    assert mmsc_at_depth(builtin_fixture("fig7"), (), 3) == BOTTOM
    assert mmsc_adaptive(builtin_fixture("fig7"), ()) == BOTTOM


def test_mmsc_at_a_negative_depth_is_rejected():
    # On fig5's cycles an unbounded unravelling would run into the node cap.
    with pytest.raises(ValidationError, match="depth must be at least 0, got -1"):
        mmsc_at_depth(builtin_fixture("fig5"), ["x1"], -1)


def test_mmsc_of_the_two_cities_at_depth_one():
    c = mmsc_at_depth(builtin_fixture("fig3"), {"x1", "x2"}, 1)
    expected = And(
        (
            Atom("City"),
            Exists("government", Atom("Party")),
            Exists("partof", Atom("Region")),
        )
    )
    assert equivalent_empty(c, expected)


def test_mmsc_of_the_two_cities_at_depth_two():
    c = mmsc_at_depth(builtin_fixture("fig3"), {"x1", "x2"}, 2)
    expected = And(
        (
            Atom("City"),
            Exists("government", Atom("Party")),
            Exists("partof", Atom("Region")),
            Exists("partof", And((Atom("Region"), Exists("capital", TOP)))),
        )
    )
    assert equivalent_empty(c, expected)


def test_mmsc_matches_the_product_of_unravellings():
    for seed in range(5):
        i = seeded_instance(seed)
        rng = random.Random(seed)
        elements = sorted(i.domain)
        X = rng.sample(elements, rng.randint(1, min(3, len(elements))))
        d = rng.randint(0, 3)
        g = graph_of_interpretation(i)
        trees = [unravel(g, x, d, node_cap=100_000) for x in sorted(set(X))]
        from ciforge.graphs import concept_of_tree

        via_product = concept_of_tree(product_trees(trees, node_cap=200_000))
        assert equivalent_empty(mmsc_at_depth(i, X, d), via_product)


@given(st.integers(min_value=0, max_value=2_000), st.integers(min_value=0, max_value=4))
def test_mmsc_contains_its_generators_and_respects_the_depth(seed, d):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    c = mmsc_at_depth(i, X, d)
    assert X <= semantic_extension(c, i)
    assert role_depth(c) <= d


@functools.lru_cache(maxsize=None)
def _single_role_instance(seed):
    return random_mineable_interpretation(
        random.Random(seed), atom_names=("A", "B"), role_names=("r",)
    )


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=500))
def test_mmsc_is_most_specific_among_enumerated_concepts(seed):
    rng = random.Random(seed)
    i = _single_role_instance(seed % 10)
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    d = 2
    c = mmsc_at_depth(i, X, d)
    sig = Signature(frozenset({"A", "B"}), frozenset({"r"}))
    memo: dict = {}
    for other in enumerate_fragment(sig, d, 7):
        if X <= semantic_extension(other, i, memo):
            assert subsumed_empty(c, other)


# -- adaptive depth stabilizes the extension --------------------------------


@given(st.integers(min_value=0, max_value=2_000))
def test_extension_stabilizes_beyond_the_chosen_depth(seed):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    report = adaptable_depth(i, X)
    memo: dict = {}
    at_chosen = semantic_extension(mmsc_at_depth(i, X, report.chosen_depth), i, memo)
    deeper = semantic_extension(
        mmsc_at_depth(i, X, report.chosen_depth + 5), i, memo
    )
    assert at_chosen == deeper


def test_deep_cycle_interaction_needs_depth_29():
    i = builtin_fixture("fig5")
    hubs = {"x1", "x2", "x3"}
    memo: dict = {}
    at28 = semantic_extension(mmsc_at_depth(i, hubs, 28), i, memo)
    at29 = semantic_extension(mmsc_at_depth(i, hubs, 29), i, memo)
    assert "x4" in at28
    assert "x4" not in at29
    adaptive = semantic_extension(mmsc_adaptive(i, hubs), i, memo)
    assert "x4" not in adaptive


def test_mmsc_of_the_whole_trivial_domain_is_top():
    i = make_interpretation(["a", "b"])
    assert mmsc_adaptive(i, {"a", "b"}) == TOP


@given(st.integers(min_value=0, max_value=1_000))
def test_mmsc_of_an_extension_reproduces_the_extension(seed):
    # Applying the operator to one of its own outputs' extensions is stable.
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    memo: dict = {}
    ext = semantic_extension(mmsc_adaptive(i, X), i, memo)
    assert semantic_extension(mmsc_adaptive(i, ext), i, memo) == ext


@given(st.integers(min_value=0, max_value=1_000), st.integers(min_value=0, max_value=3))
def test_fixed_depth_mmsc_is_idempotent_up_to_equivalence(seed, k):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    first = mmsc_at_depth(i, X, k)
    again = mmsc_at_depth(i, semantic_extension(first, i), k)
    assert equivalent_empty(first, again)


@given(st.integers(min_value=0, max_value=1_000))
def test_restricting_to_an_mmsc_filler_preserves_the_extension(seed):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    sig_roles = sorted({r for r, pairs in i.role_ext.items() if pairs})
    from ciforge.concepts import Signature as Sig

    sig = Sig(frozenset({"A", "B"}), frozenset({"r", "s"}))
    c = canonicalize(random_concept(rng, sig, 2))
    memo: dict = {}
    ext_c = semantic_extension(c, i, memo)
    for role in sig_roles:
        lhs = semantic_extension(canonicalize(Exists(role, c)), i, memo)
        rhs = semantic_extension(
            canonicalize(Exists(role, mmsc_adaptive(i, ext_c))), i, memo
        )
        assert lhs == rhs


# -- rewriting helpers ------------------------------------------------------


def test_lower_approximation_golden_values():
    fig3 = builtin_fixture("fig3")
    assert lower_approximation(Atom("City"), fig3) == Atom("City")
    assert lower_approximation(BOTTOM, fig3) == BOTTOM
    assert lower_approximation(TOP, fig3) == TOP
    c = Exists("partof", Atom("Region"))
    approx = lower_approximation(c, fig3)
    assert semantic_extension(approx, fig3) == semantic_extension(c, fig3)
    # The filler's extension is empty: its MMSC is Bottom, which absorbs.
    empty_filler = parse_concept("City and some partof.(City and Region)")
    assert lower_approximation(empty_filler, fig3) == BOTTOM


@given(st.integers(min_value=0, max_value=1_000))
def test_lower_approximation_preserves_extensions(seed):
    i = seeded_instance(seed % 40)
    rng = random.Random(seed)
    from ciforge.concepts import Signature as Sig

    sig = Sig(frozenset({"A", "B"}), frozenset({"r", "s"}))
    c = canonicalize(random_concept(rng, sig, 2))
    memo: dict = {}
    assert semantic_extension(lower_approximation(c, i), i, memo) == (
        semantic_extension(c, i, memo)
    )


@given(concepts())
def test_pruning_conjuncts_preserves_equivalence(c):
    c = canonicalize(c)
    if c == BOTTOM:
        return
    assert equivalent_empty(prune_subsumed_conjuncts(c), c)
