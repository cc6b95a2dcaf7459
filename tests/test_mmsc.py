"""Most specific concepts at fixed and adaptively chosen depths."""

import collections
import functools
import hashlib
import itertools
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
    bottom_up,
    canonicalize,
    conjoin,
    make_interpretation,
    parse_concept,
    role_depth,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.graphs import (
    DEFAULT_NODE_CAP,
    concept_of_tree,
    graph_of_interpretation,
    product_reachable,
    unravel,
)
from ciforge import mmsc as mmsc_module
from ciforge import mvf as mvf_module
from ciforge import simulation as simulation_module
from ciforge.miner import build_base
from ciforge.mmsc import (
    DepthReport,
    _context,
    adaptable_depth,
    bounded_walks,
    mmsc_adaptive,
    mmsc_at_depth,
    prune_subsumed_conjuncts,
)
from ciforge.mvf import mmvf, mvf, scc
from ciforge.simulation import (
    equivalent_empty,
    semantic_extension,
    subsumed_empty,
)
from ciforge.storage import interpretation_to_document

from conftest import concepts
from oracles import (
    cycle_interpretation,
    enumerate_fragment,
    gfp_extension,
    lower_approximation,
    pendant_cycle_interpretation,
    product_trees,
    random_concept,
    random_interpretation,
    random_mineable_interpretation,
    seeded_instance,
    twin_fork_interpretation,
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


_ASKS = {
    "adaptable_depth": adaptable_depth,
    "mmsc_at_depth": lambda i, X: mmsc_at_depth(i, X, 1),
    "mmsc_adaptive": mmsc_adaptive,
}


@pytest.mark.parametrize("ask", list(_ASKS))
@pytest.mark.parametrize(
    "X, named",
    [
        ("x1", "not a collection: 'x1'"),
        (None, "not a collection: None"),
        ([["x1"]], "unknown element ['x1']"),
        ([1], "unknown element 1"),
        (["x9"], "unknown element 'x9'"),
    ],
    ids=["string", "none", "nested", "number", "unknown"],
)
def test_a_malformed_element_set_is_a_validation_error_naming_it(ask, X, named):
    with pytest.raises(ValidationError) as raised:
        _ASKS[ask](builtin_fixture("fig3"), X)
    assert named in str(raised.value)


def test_one_set_in_any_form_shares_one_report_and_one_product(monkeypatch):
    products = _counting(monkeypatch, mmsc_module, "product_reachable")
    i = builtin_fixture("fig3")
    forms = [["x2", "x1"], ("x1", "x2", "x1"), {"x1", "x2"}, frozenset({"x1", "x2"})]
    assert len({id(adaptable_depth(i, X)) for X in forms}) == 1
    assert len({id(mmsc_at_depth(i, X, 1)) for X in forms}) == 1
    assert len({id(mmsc_adaptive(i, X)) for X in forms}) == 1
    key = (frozenset({"x1", "x2"}), DEFAULT_NODE_CAP)
    assert list(_context(i).reports) == list(_context(i).mmscs) == [key]
    assert len(products) == 1


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


def _tuple_successors(g, t):
    """Successor tuples of t in the product of g with itself, |t| times."""
    per_vertex = [
        {role: [w for r, w in g.successors(v) if r == role] for role, _ in g.successors(v)}
        for v in t
    ]
    shared = set.intersection(*(set(roles) for roles in per_vertex))
    return [
        combo
        for role in shared
        for combo in itertools.product(*(roles[role] for roles in per_vertex))
    ]


def _start_components(i):
    """Each sorted element tuple of i with its start component (the tuples
    that both reach it and are reached from it in the product), up to
    coordinate permutation: the sorted forms of the component's tuples
    without repeats.  Two sets get one value exactly when one's tuple is a
    permutation of a tuple in the other's component.  Found by plain
    searches, not by Tarjan's algorithm."""
    g = graph_of_interpretation(i)

    @functools.lru_cache(maxsize=None)
    def reach(t):
        seen = {t}
        frontier = [t]
        while frontier:
            for w in _tuple_successors(g, frontier.pop()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    return {
        combo: frozenset(
            tuple(sorted(t, key=repr))
            for t in reach(combo)
            if combo in reach(t) and len(set(t)) == len(t)
        )
        for combo in _subsets(i)
    }


def _subsets(i):
    """The non-empty element sets of i as sorted tuples, in the miner's order."""
    elements = sorted(i.domain, key=repr)
    return [
        combo
        for n in range(1, len(elements) + 1)
        for combo in itertools.combinations(elements, n)
    ]


def test_mining_builds_the_graph_once_and_each_product_once(monkeypatch):
    # attribute_set builds the depth report and the MMSC of each non-empty
    # subset, and the axioms of build_base reuse them.  Sets whose tuples
    # share a start component up to a permutation of coordinates share one
    # product, so over the whole mine there is one product per such
    # component, and one unravelling per bisimulation class and depth of
    # each product.  On an acyclic interpretation every start component is
    # one tuple, so every set builds its own product and unravelling, once,
    # though adaptable_depth and mmsc_at_depth both ask for it.
    graphs = _counting(monkeypatch, mmsc_module, "graph_of_interpretation")
    products = _counting(monkeypatch, mmsc_module, "product_reachable")
    unravellings = _counting(monkeypatch, mmsc_module, "unravel")
    for name, built, unravelled in [
        ("fig3", 126, 127),
        ("cycles-2-7", 59, 79),
        ("twin-forks", 1023, 1023),
    ]:
        del graphs[:], products[:], unravellings[:]
        i = _SHARING_CASES[name]()
        components = _start_components(_SHARING_CASES[name]())
        _, report = build_base(i)
        assert len(graphs) == 1
        assert len(report.depth_reports) == len(components) == 2 ** len(i.domain) - 1
        assert len(products) == len(set(components.values())) == built, name
        assert len(unravellings) == unravelled, name
        # A second mine of the same interpretation builds nothing.
        build_base(i)
        assert len(products) == built
        assert len(unravellings) == unravelled


_SHARING_CASES = {
    **{
        name: functools.partial(builtin_fixture, name)
        for name in ("fig3", "fig4i", "fig4ii", "fig7")
    },
    **{f"cycles-2-{n}": functools.partial(cycle_interpretation, 2, n) for n in (3, 5, 7)},
    **{f"seed-{seed}": functools.partial(seeded_instance, seed) for seed in range(10)},
    **{
        f"pendants-{seed}": functools.partial(pendant_cycle_interpretation, seed)
        for seed in range(5)
    },
    "twin-forks": twin_fork_interpretation,
}


@pytest.mark.parametrize("name", ["fig3", "cycles-2-3"])
def test_mining_finds_each_graphs_components_once(monkeypatch, name):
    # scc keeps its partition on the graph: G(I) and each product run
    # Tarjan's algorithm once, though mvf, mmvf and the context all ask.
    passes = _counting(monkeypatch, mvf_module, "_tarjan")
    asked = _counting(monkeypatch, mmsc_module, "scc")
    asked_in_mvf = _counting(monkeypatch, mvf_module, "scc")
    products = _counting(monkeypatch, mmsc_module, "product_reachable")
    i = _SHARING_CASES[name]()
    build_base(i)
    graphs = [args[0] for args in passes]
    assert len({id(g) for g in graphs}) == len(graphs) == len(products) + 1
    assert _context(i).graph in graphs
    asks = collections.Counter(id(args[0]) for args in asked + asked_in_mvf)
    assert all(asks[id(g)] >= 2 for g in graphs)
    build_base(i)
    assert len(passes) == len(graphs)


@pytest.mark.parametrize("name", list(_SHARING_CASES))
def test_shared_products_give_what_fresh_ones_do(monkeypatch, name):
    # Asked in the miner's order, so later sets meet the products that
    # earlier ones shared, some through a permutation of coordinates, and
    # the MMSCs built for bisimilar vertices; each answer must equal one
    # worked out on a fresh graph, with a fresh product and unravelling of
    # its own.
    shared = _counting(monkeypatch, mmsc_module, "product_reachable")
    unravellings = _counting(monkeypatch, mmsc_module, "unravel")
    i = _SHARING_CASES[name]()
    g = graph_of_interpretation(i)
    partition = scc(g)
    graph_bound = mmvf(g)
    sets = _subsets(i)
    permuted = 0
    for combo in sets:
        home = _context(i).homes.get((frozenset(combo), DEFAULT_NODE_CAP))
        permuted += home is not None and home[1] != combo
        report = adaptable_depth(i, combo)
        c = mmsc_adaptive(i, combo)
        product = product_reachable(g, combo)
        d = mvf(product, combo)
        x_lim = frozenset(
            x for x in combo if not partition.unbounded[partition.component_of[x]]
        )
        if x_lim:
            expected = DepthReport(x_lim, d, d - 1, "bounded")
        else:
            expected = DepthReport(x_lim, d, d * graph_bound, "cyclic")
        assert report == expected, combo
        assert c is concept_of_tree(unravel(product, combo, expected.chosen_depth)), combo
        # Its MMSC is kept, so no product is held for it.
        assert (frozenset(combo), DEFAULT_NODE_CAP) not in _context(i).homes
    if name.startswith(("fig3", "cycles", "pendants")):
        assert len(shared) < len(sets)  # products were shared
    if name.startswith(("cycles", "pendants")):
        assert permuted  # some through a permutation
        assert len(unravellings) < len(sets)  # and so were unravellings


def _hubs_first(i):
    """i with its hubs h0, h1 renamed a0, a1, so that they sort before the
    cycle members c..., not after them."""
    def rename(x):
        return "a" + x[1:] if x.startswith("h") else x

    return make_interpretation(
        [rename(x) for x in i.domain],
        {a: [rename(x) for x in ext] for a, ext in i.concept_ext.items()},
        {r: [(rename(s), rename(t)) for s, t in pairs] for r, pairs in i.role_ext.items()},
    )


@pytest.mark.parametrize("n, built, unravelled", [(3, 11, 19), (5, 23, 37), (7, 59, 79)])
def test_sharing_does_not_depend_on_how_the_elements_sort(monkeypatch, n, built, unravelled):
    # Which tuples of a start component are sorted depends on the names;
    # which sets are permutations of its tuples does not.
    products = _counting(monkeypatch, mmsc_module, "product_reachable")
    unravellings = _counting(monkeypatch, mmsc_module, "unravel")
    for i in (cycle_interpretation(2, n), _hubs_first(cycle_interpretation(2, n))):
        del products[:], unravellings[:]
        build_base(i)
        assert (len(products), len(unravellings)) == (built, unravelled)


def test_a_set_served_through_a_permutation_meets_the_node_cap_of_a_fresh_build(monkeypatch):
    # Find, in the miner's order, the first set whose product is one built
    # for another set and entered under it through a permutation.
    built = []

    def build(g, start, node_cap):
        p = product_reachable(g, start, node_cap=node_cap)
        built.append((p, start))
        return p

    monkeypatch.setattr(mmsc_module, "product_reachable", build)
    i = cycle_interpretation(2, 3)
    for combo in _subsets(i):
        home = _context(i).homes.get((frozenset(combo), DEFAULT_NODE_CAP))
        if home is not None and home[1] != combo:
            break
        mmsc_adaptive(i, combo)
    else:
        pytest.fail("no set was served through a permutation")
    product = home[0]
    builder = next(start for p, start in built if p is product)
    size = len(product.vertices)
    g = graph_of_interpretation(i)
    assert builder != combo
    # One below the product's size: a fresh build at either tuple stops, so
    # nothing is entered, and the set stops too.
    small = cycle_interpretation(2, 3)
    for X in (builder, combo):
        with pytest.raises(ResourceCapError):
            product_reachable(g, X, node_cap=size - 1)
        with pytest.raises(ResourceCapError):
            adaptable_depth(small, X, node_cap=size - 1)
    # At the product's size both builds pass, and the set is served the
    # builder's product through a permutation.
    exact = cycle_interpretation(2, 3)
    adaptable_depth(exact, builder, node_cap=size)
    served = _context(exact).homes[(frozenset(combo), size)]
    assert served[1] != combo
    fresh = product_reachable(g, combo, node_cap=size)
    assert len(fresh.vertices) == size
    count = len(built)
    report = adaptable_depth(exact, combo, node_cap=size)
    assert report.product_mvf == mvf(fresh, combo)
    assert len(built) == count
    # Its unravelling at the chosen depth is larger than the product, so
    # the MMSC stops at that cap, served or fresh.
    with pytest.raises(ResourceCapError):
        unravel(fresh, combo, report.chosen_depth, node_cap=size)
    with pytest.raises(ResourceCapError):
        mmsc_adaptive(exact, combo, node_cap=size)


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


_GFP_CASES = {
    **{
        name: functools.partial(builtin_fixture, name)
        for name in ("fig3", "fig4i", "fig4ii", "fig7")
    },
    **{f"cycles-2-{n}": functools.partial(cycle_interpretation, 2, n) for n in (3, 5)},
    "twin-forks": twin_fork_interpretation,
    **{f"seed-{seed}": functools.partial(seeded_instance, seed) for seed in range(40)},
}


@pytest.mark.parametrize("name", list(_GFP_CASES))
def test_adaptive_mmsc_reaches_the_gfp_extension(name):
    # The greatest-fixpoint MSC has no depth, so its extension is what the
    # adaptive depth must reach, for every non-empty element set.
    i = _GFP_CASES[name]()
    memo: dict = {}
    for X in _subsets(i):
        assert semantic_extension(mmsc_adaptive(i, X), i, memo) == gfp_extension(i, X), X


def _settle_depth(i, X) -> int:
    """The least depth whose MMSC's extension is the gfp extension."""
    target = gfp_extension(i, X)
    memo: dict = {}
    d = 0
    while semantic_extension(mmsc_at_depth(i, X, d), i, memo) != target:
        d += 1
    return d


@pytest.mark.parametrize(
    "make, X, settled, chosen",
    [
        (functools.partial(builtin_fixture, "fig3"), {"x1"}, 1, 2),
        (functools.partial(builtin_fixture, "fig3"), {"x2"}, 1, 9),
        (functools.partial(cycle_interpretation, 2, 3), {"c1_1"}, 4, 9),
        (functools.partial(cycle_interpretation, 2, 5), {"c1_1"}, 8, 25),
        (functools.partial(builtin_fixture, "fig5"), {"x1", "x2", "x3"}, 29, 150),
    ],
    ids=["fig3-x1", "fig3-x2", "cycles-2-3-c1_1", "cycles-2-5-c1_1", "fig5-hubs"],
)
def test_settle_depths_against_the_chosen_depths(make, X, settled, chosen):
    # The chosen depth is sufficient, not least: the extension settles at or
    # below it.
    i = make()
    assert (_settle_depth(i, X), adaptable_depth(i, X).chosen_depth) == (settled, chosen)


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


@pytest.mark.parametrize("k", [2, 6, 12])
def test_pruning_builds_one_tree_per_distinct_subconcept(monkeypatch, k):
    # Siblings ∃r.(A1 ⊓ … ⊓ Aj) for j = 1..k, ∃s.A1, ∃s.(A1 ⊓ A2) and B:
    # ∃s.A1 and each r-sibling but ∃r.(A1 ⊓ … ⊓ Ak) follow from another
    # sibling, so they go.
    atoms = [Atom(f"A{j}") for j in range(1, k + 1)]
    siblings = [Exists("r", conjoin(atoms[:j])) for j in range(1, k + 1)]
    siblings += [Exists("s", atoms[0]), Exists("s", conjoin(atoms[:2])), Atom("B")]
    c = conjoin(siblings)
    subconcepts = set()
    bottom_up(c, lambda d, parts: subconcepts.add(d) or d)
    built = _counting(monkeypatch, simulation_module, "tree_of_concept")
    pruned = prune_subsumed_conjuncts(c)
    assert pruned == conjoin([siblings[k - 1], siblings[k + 1], Atom("B")])
    assert len(built) == len(set(built)) <= len(subconcepts)
