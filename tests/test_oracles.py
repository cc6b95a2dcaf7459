"""Exhaustive enumerators, random instance generators, and check suites."""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    node_count,
    role_depth,
)
from ciforge.errors import ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.oracles import enumerate_concepts

from oracles import (
    DEFAULT_SEED,
    claim_dsim_check,
    closed_extents,
    exponential_depth_check,
    fbp_witness_check,
    harness_seed,
    random_concept,
    random_graph,
    random_interpretation,
    random_mineable_interpretation,
)

SIG_1A1R = Signature(frozenset({"A"}), frozenset({"r"}))
SIG_2A1R = Signature(frozenset({"A", "B"}), frozenset({"r"}))
SIG_2A2R = Signature(frozenset({"A", "B"}), frozenset({"r", "s"}))


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
    assert len(list(enumerate_concepts(SIG_2A1R, 1, 5))) == 21
    assert len(list(enumerate_concepts(SIG_1A1R, 2, 9))) == 51
    assert len(list(enumerate_concepts(SIG_2A2R, 2, 9))) == 3681


def test_enumeration_smallest_fragment():
    empty_sig = Signature(frozenset(), frozenset())
    assert list(enumerate_concepts(empty_sig, 3, 9)) == [TOP, BOTTOM]


def test_enumerated_concepts_are_canonical_unique_and_in_bounds():
    seen = set()
    for c in enumerate_concepts(SIG_2A1R, 2, 7):
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
    produced = list(enumerate_concepts(sig, depth, size_cap))
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


@pytest.mark.parametrize("depth, size_cap, message", [
    (-1, 3, "role depth must be at least 0, got -1"),
    (1, 0, "size cap must be at least 1, got 0"),
])
def test_enumeration_rejects_an_empty_fragment(depth, size_cap, message):
    with pytest.raises(ValidationError, match=message):
        list(enumerate_concepts(SIG_2A2R, depth, size_cap))


def test_enumeration_is_exhaustive_within_the_fragment():
    # Depth-1, five-node fragment over one atom/one role, checked against a
    # hand-built closure: every canonical concept reachable by conjunction
    # and restriction must appear.
    produced = set(enumerate_concepts(SIG_1A1R, 1, 5))
    from ciforge.concepts import Atom, Exists

    a = Atom("A")
    layer0 = {TOP, BOTTOM, a}
    expected = set(layer0)
    fillers = [TOP, a]
    exists = [Exists("r", f) for f in fillers]
    expected.update(exists)
    for e in exists:
        expected.add(canonicalize(And((a, e))))
    expected.add(canonicalize(And((a, *exists))))
    expected.add(canonicalize(And(tuple(exists))))
    expected = {c for c in expected if node_count(c) <= 5}
    assert expected <= produced


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

    from ciforge.concepts import node_count as nodes
    from ciforge.mmsc import mmsc_adaptive

    i = random_mineable_interpretation(random.Random(seed))
    elements = sorted(i.domain)
    assert 1 <= len(elements) <= 4
    for n in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, n):
            assert nodes(mmsc_adaptive(i, combo)) <= 400


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
