"""Exhaustive enumerators, random instance generators, and check suites."""

import ast
import hashlib
import itertools
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ciforge
import ciforge.concepts as concepts_module
from ciforge import miner as miner_module, mmsc as mmsc_module
from ciforge.concepts import (
    And,
    BOTTOM,
    Signature,
    TOP,
    active_signature,
    Exists,
    canonicalize,
    render_concept,
    conjuncts_of,
    make_interpretation,
    role_depth,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.miner import _conjunction_count
from ciforge.oracles import _fitting_sets, enumerate_concepts

from oracles import (
    DEFAULT_SEED,
    claim_dsim_check,
    closed_extents,
    enumerate_fragment,
    exponential_depth_check,
    fbp_witness_check,
    fragment,
    gfp_extension,
    harness_seed,
    node_count,
    random_concept,
    random_graph,
    random_interpretation,
    random_mineable_interpretation,
)

SIG_1A1R = Signature(frozenset({"A"}), frozenset({"r"}))
SIG_2A1R = Signature(frozenset({"A", "B"}), frozenset({"r"}))
SIG_2A2R = Signature(frozenset({"A", "B"}), frozenset({"r", "s"}))
SIG_1A2R = Signature(frozenset({"A"}), frozenset({"r", "s"}))


# -- closed extents -----------------------------------------------------------


def test_closed_extents_are_all_intersections():
    domain = {"a", "b", "c"}
    extents = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
    assert closed_extents(domain, extents) == {
        frozenset(x) for x in ({"a", "b", "c"}, {"a", "b"}, {"b", "c"},
                               {"a", "c"}, {"a"}, {"b"}, {"c"}, set())
    }
    assert closed_extents(domain, []) == {frozenset(domain)}


def test_closed_extents_reach_intersections_of_many_sets():
    # Every subset of the domain is the intersection of the complements of
    # its missing points, and the empty set needs all six of them.
    domain = set(range(6))
    extents = [domain - {k} for k in range(6)]
    closed = closed_extents(domain, extents)
    assert len(closed) == 2 ** 6
    assert frozenset() in closed


# -- concept enumeration -----------------------------------------------------


def test_enumeration_counts_are_stable():
    assert len(list(enumerate_fragment(SIG_2A1R, 1, 5))) == 21
    assert len(list(enumerate_fragment(SIG_1A1R, 2, 9))) == 51
    assert len(list(enumerate_fragment(SIG_2A2R, 2, 9))) == 3681


def test_enumeration_stops_at_the_deepest_level_the_size_cap_allows():
    # A concept of role depth k has at least k + 1 nodes, so a size cap of 3
    # admits role depth 2 at most, and depth 400 is walked as depth 2.
    sig = active_signature(builtin_fixture("fig3"))
    at_10 = list(enumerate_fragment(sig, 10, 3))
    assert len(at_10) == 89
    assert list(enumerate_fragment(sig, 400, 3)) == at_10 == list(enumerate_fragment(sig, 2, 3))


def test_enumeration_smallest_fragment():
    empty_sig = Signature(frozenset(), frozenset())
    assert list(enumerate_fragment(empty_sig, 3, 9)) == [TOP, BOTTOM]


def test_enumerated_concepts_are_canonical_unique_and_in_bounds():
    seen = set()
    for c in enumerate_fragment(SIG_2A1R, 2, 7):
        assert c not in seen
        seen.add(c)
        assert canonicalize(c) == c
        assert role_depth(c) <= 2
        assert node_count(c) <= 7


@pytest.mark.parametrize(
    "sig, depth, size_cap",
    [(SIG_2A2R, 2, 9), (active_signature(builtin_fixture("fig3")), 2, 6)],
    ids=["2A2R", "fig3"],
)
def test_enumeration_order_is_prefix_first_and_yields_nothing_twice(sig, depth, size_cap):
    produced = list(enumerate_fragment(sig, depth, size_cap))
    assert len(set(produced)) == len(produced)
    assert produced[:2] == [TOP, BOTTOM]
    basics = [c for c in produced[2:] if not isinstance(c, And)]
    # Basic concepts first, in canonical conjunct order; then conjunctions.
    assert produced[2:2 + len(basics)] == basics
    assert basics == sorted(basics, key=render_concept)
    # Every conjunct, of a conjunction or of a restriction's filler, is the
    # basic concept yielded earlier, as one object.
    basic_ids = {id(c) for c in basics}
    for c in basics:
        if isinstance(c, Exists) and c.filler not in (TOP, BOTTOM):
            assert all(id(d) in basic_ids for d in conjuncts_of(c.filler)), c
    last = {}  # conjunct count -> conjuncts of the last conjunction yielded
    for c in produced[2 + len(basics):]:
        parts = c.conjuncts
        assert all(id(d) in basic_ids for d in parts)
        if len(parts) >= 3:
            assert last[len(parts) - 1] == parts[:-1], c
        last[len(parts)] = parts
    assert max(last) >= 3


@pytest.mark.parametrize(
    "sig", [SIG_2A1R, SIG_1A1R, SIG_2A2R, Signature(frozenset(), frozenset())],
    ids=["2A1R", "1A1R", "2A2R", "empty"],
)
def test_basics_and_a_knapsack_count_give_the_enumeration_size(sig):
    # The library yields only Top, Bottom and the basic concepts, and the
    # completeness check counts the conjunctions: the sets of at least two
    # basics whose node counts, with the And node, fit the cap.
    for depth in range(4):
        for size_cap in range(1, 10):
            basics = list(enumerate_concepts(sig, depth, size_cap))
            sizes = [size for _, size in basics[2:]]
            counted = len(basics) + _conjunction_count(sizes, size_cap - 1)
            assert counted == len(list(enumerate_fragment(sig, depth, size_cap))), (
                depth, size_cap
            )


@pytest.mark.parametrize(
    "sig, depth, size_cap",
    [(SIG_2A2R, 2, 9), (active_signature(builtin_fixture("fig3")), 2, 8)],
    ids=["2A2R", "fig3"],
)
def test_the_library_yields_the_basic_concepts_with_their_node_counts(sig, depth, size_cap):
    # No conjunction, and each count is the concept's own: the fragment's
    # first concepts, up to its first conjunction, with node_count's.
    pairs = list(enumerate_concepts(sig, depth, size_cap))
    assert not any(isinstance(c, And) for c, _ in pairs)
    assert all(size == node_count(c) for c, size in pairs)
    stream = enumerate_fragment(sig, depth, size_cap)
    assert [c for c, _ in pairs] == list(itertools.islice(stream, len(pairs)))
    assert isinstance(next(stream), And)


@pytest.mark.parametrize("depth, size_cap, message", [
    (-1, 3, "role depth must be at least 0, got -1"),
    (1, 0, "size cap must be at least 1, got 0"),
])
def test_enumeration_rejects_an_empty_fragment(depth, size_cap, message):
    with pytest.raises(ValidationError, match=message):
        list(enumerate_concepts(SIG_2A2R, depth, size_cap))


def test_enumeration_is_exhaustive_within_the_fragment():
    # The brute-force closure under conjunction and restriction, within the
    # bounds, is exactly what the enumeration yields, each concept once.
    for sig in (SIG_2A1R, SIG_1A2R):
        for depth in (2, 3):
            for size_cap in range(1, 8):
                produced = list(enumerate_fragment(sig, depth, size_cap))
                assert len(set(produced)) == len(produced)
                assert set(produced) == fragment(sig, depth, size_cap), (sig, depth, size_cap)


@pytest.mark.parametrize("size_cap, digest", [
    (6, "ec844eff6a781d9b676bcbef06cc9916c70de6ea2e8e85d739452a5d73e6501c"),
    (7, "8df47387704dba07ec3680a46a297aa1999790019cdd05ef265ca8dab4180fe3"),
])
def test_enumeration_of_fig3s_signature_is_pinned(size_cap, digest):
    # Order and content of the enumeration, one rendered concept a line.
    sig = active_signature(builtin_fixture("fig3"))
    texts: dict = {}
    rendered = "\n".join(render_concept(c, texts) for c in enumerate_fragment(sig, 2, size_cap))
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
    st.integers(min_value=0, max_value=8),
    st.none() | st.frozensets(st.integers(min_value=0, max_value=28)),
)
def test_fitting_sets_are_the_sets_within_the_budget(sizes, budget, settling):
    # Items in any order: every set whose sizes sum to at most the budget,
    # once, with its key folded in ascending position (each item's key is
    # its own position), and no set above one whose key settles.
    items = [((k,), size) for k, size in enumerate(sizes)]
    settles = None if settling is None else (lambda key: sum(key) in settling)
    expected = [
        (chosen, chosen, total)
        for n in range(1, len(items) + 1)
        for chosen in itertools.combinations(range(len(items)), n)
        if (total := sum(sizes[k] for k in chosen)) <= budget
        and not (settles and any(settles(chosen[:m]) for m in range(1, n)))
    ]
    yielded = list(_fitting_sets(items, budget, tuple.__add__, settles=settles))
    assert sorted(yielded) == sorted(expected)


class _Recorded(type):
    """A stand-in for And, to the module that uses it: its instances are
    the And nodes, and each node it builds is recorded."""

    def __instancecheck__(cls, obj):
        return isinstance(obj, And)


def test_lower_levels_stop_at_the_size_a_filler_can_have(monkeypatch):
    # The enumeration builds the conjunctions of each level k below the top
    # once, and only those of at most size_cap - k nodes: the conjunctions
    # of the fragment at role depth depth - k and size cap size_cap - k.  It
    # builds no conjunction of the top level.
    import ciforge.oracles as oracles_module

    sig = active_signature(builtin_fixture("fig3"))
    depth, size_cap = 2, 6
    expected = Counter(
        c
        for k in range(1, depth + 1)
        for c in enumerate_fragment(sig, depth - k, size_cap - k)
        if isinstance(c, And)
    )
    built = []

    class Recording(metaclass=_Recorded):
        def __new__(cls, conjuncts):
            built.append(And(conjuncts))
            return built[-1]

    monkeypatch.setattr(oracles_module, "And", Recording)
    assert list(enumerate_concepts(sig, depth, size_cap))
    assert max(map(node_count, built)) == size_cap - 1
    assert Counter(built) == expected


# -- random generators -------------------------------------------------------


def test_default_seed_is_fixed_and_env_overridable(monkeypatch):
    monkeypatch.delenv("CIFORGE_SEED", raising=False)
    assert harness_seed() == DEFAULT_SEED
    monkeypatch.setenv("CIFORGE_SEED", "12345")
    assert harness_seed() == 12345


def test_random_generators_are_deterministic_per_seed():
    g1 = random_graph(random.Random(7))
    g2 = random_graph(random.Random(7))
    assert g1 == g2
    i1 = random_interpretation(random.Random(7))
    i2 = random_interpretation(random.Random(7))
    assert i1 == i2
    m1 = random_mineable_interpretation(random.Random(7))
    m2 = random_mineable_interpretation(random.Random(7))
    assert m1 == m2


@given(st.integers(min_value=0, max_value=10_000))
def test_random_graphs_are_well_formed(seed):
    g = random_graph(random.Random(seed))
    assert 1 <= len(g.vertices) <= 8
    for src, role, tgt in g.edges:
        assert src in g.vertices and tgt in g.vertices
        assert role in ("r", "s")


@given(st.integers(min_value=0, max_value=10_000))
def test_random_concepts_respect_their_depth_bound(seed):
    rng = random.Random(seed)
    c = random_concept(rng, SIG_2A2R, 2)
    assert role_depth(canonicalize(c)) <= 2


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=200))
def test_mineable_instances_have_desk_scale_concepts(seed):
    import itertools

    from ciforge.mmsc import mmsc_adaptive

    i = random_mineable_interpretation(random.Random(seed))
    elements = sorted(i.domain)
    assert 1 <= len(elements) <= 4
    for n in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, n):
            assert node_count(mmsc_adaptive(i, combo)) <= 400


def test_mineable_sampler_reports_exhaustion():
    with pytest.raises(ResourceCapError):
        # Density 1.0 forces complete digraphs whose adaptive-depth concepts
        # blow past the cap, so every attempt is rejected.
        random_mineable_interpretation(
            random.Random(0), max_elements=4, density=1.0, max_attempts=3
        )


# -- executable check suites --------------------------------------------------


def test_unbounded_family_checks_pass_on_the_loop_fixtures():
    assert fbp_witness_check("rhs", 20)
    assert fbp_witness_check("lhs", 20)


def test_unbounded_family_check_rejects_unknown_selector():
    with pytest.raises(ValueError):
        fbp_witness_check("both", 5)


def test_coprime_cycle_depth_check_passes():
    assert exponential_depth_check()


def test_gfp_extension_follows_labels_around_cycles():
    # a is A on an r-self-loop; b is A on an r-two-cycle with the unlabelled
    # c.  a's walk is A forever, which only a covers; b's alternates A and
    # nothing, which a and b cover; c's, a step behind, a and c.  A pair's
    # product walks both, labelled by what both members hold.
    i = make_interpretation(
        ["a", "b", "c"], {"A": ["a", "b"]}, {"r": [("a", "a"), ("b", "c"), ("c", "b")]}
    )
    assert gfp_extension(i, {"a"}) == {"a"}
    assert gfp_extension(i, {"b"}) == {"a", "b"}
    assert gfp_extension(i, {"c"}) == {"a", "c"}
    assert gfp_extension(i, ["b", "a"]) == {"a", "b"}
    assert gfp_extension(i, {"a", "c"}) == {"a", "c"}


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_depth_bounded_simulation_stability_claim(seed):
    rng = random.Random(seed)
    g1 = random_graph(rng, max_vertices=5)
    g2 = random_graph(rng, max_vertices=5)
    v1 = sorted(g1.vertices)[0]
    v2 = sorted(g2.vertices)[0]
    assert claim_dsim_check(g1, v1, g2, v2)


# -- library surface ----------------------------------------------------------


def test_library_holds_only_pipeline_code():
    # Test-only oracles and generators belong in tests/oracles.py.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "ciforge"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in {"os", "random"}, (path.name, module)
        if path.name == "oracles.py":
            public = [
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
            ]
            assert public == ["enumerate_concepts"]
    # Helpers only the tests call live in tests/oracles.py.
    for module, name in (
        (concepts_module, "node_count"),
        (concepts_module, "exists_chain"),
        (mmsc_module, "lower_approximation"),
        (ciforge, "node_count"),
        (ciforge, "exists_chain"),
        (ciforge, "lower_approximation"),
        (miner_module, "intent_closure"),
        (ciforge, "intent_closure"),
    ):
        assert not hasattr(module, name), (module.__name__, name)


# Functions that may call themselves, each with why its depth is bounded.
RECURSION_ALLOWED: set = set()


def test_no_library_function_recurses():
    # Concepts and trees may be deeper than the recursion limit, so library
    # code walks them in loops: no function calls its own name, and no
    # method calls self.<its name>.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "ciforge"
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if isinstance(child, ast.Call) and function is not None:
                f = child.func
                if isinstance(f, ast.Name):
                    called = f.id
                elif (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                ):
                    called = f.attr
                else:
                    called = None
                if called == function.name:
                    found.add((path.name, function.name))
            visit(child, function)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert found == RECURSION_ALLOWED


def test_no_module_has_an_unused_import():
    # The package's __init__ imports to re-export, so it is left out.
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("src/ciforge/*.py")) + sorted(root.glob("tests/*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert unused == []
