"""End-to-end acceptance gates: golden values, soundness/completeness of the
mined bases, oracle cross-checks, and the stability property suites, each with
its wall-clock budget."""

import itertools
import random
import time
import zlib

import pytest

from ciforge.concepts import (
    And,
    Atom,
    ConceptInclusion,
    Exists,
    TOP,
    canonicalize,
    exists_chain,
    make_interpretation,
)
from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.graphs import graph_of_interpretation, product_reachable, unravel
from ciforge.miner import build_base, check_base_complete, check_base_sound
from ciforge.mmsc import (
    adaptable_depth,
    lower_approximation,
    mmsc_adaptive,
    mmsc_at_depth,
)
from ciforge.mvf import mvf
from ciforge.reasoner import Reasoner
from ciforge.simulation import (
    equivalent_empty,
    semantic_extension,
    subsumed_empty,
)

from oracles import (
    claim_dsim_check,
    functional_subsimulation,
    greatest_simulation,
    is_simulation,
    mvf_oracle,
    random_graph,
    random_mineable_interpretation,
)


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


# -- 1. walk-coverage golden values ------------------------------------------


def test_acceptance_01_walk_coverage_golden_values():
    g = graph_of_interpretation(builtin_fixture("fig3"))

    def run():
        return mvf(g, "x1"), mvf(g, "x2")

    (v1, v2), best = _best_of(5, run)
    assert v1 == 3
    assert v2 == 3
    assert best < 0.001


# -- 2. product walk-coverage golden values ----------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated golden value 2 for the pair (x1,x2) counts the edges of the "
        "longest product walk, not the vertices it visits; the definition "
        "used everywhere else gives 3 (see the companion test below)"
    ),
)
def test_acceptance_02_product_walk_coverage_stated_values():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    p12 = product_reachable(g, ("x1", "x2"))
    p17 = product_reachable(g, ("x1", "x7"))
    assert mvf(p12, ("x1", "x2")) == 2
    assert mvf(p17, ("x1", "x7")) == 1


def test_acceptance_02_product_walk_coverage_definitional_values():
    g = graph_of_interpretation(builtin_fixture("fig3"))
    p12 = product_reachable(g, ("x1", "x2"))
    p17 = product_reachable(g, ("x1", "x7"))

    def run():
        return mvf(p12, ("x1", "x2")), mvf(p17, ("x1", "x7"))

    (v12, v17), best = _best_of(5, run)
    assert v12 == 3
    assert v12 == mvf_oracle(p12, ("x1", "x2"))
    assert v17 == 1
    assert v17 == mvf_oracle(p17, ("x1", "x7"))
    assert best < 0.001


# -- 3. coprime-cycle fixpoint boundary --------------------------------------


def test_acceptance_03_deep_cycle_membership_boundary():
    i = builtin_fixture("fig5")
    hubs = {"x1", "x2", "x3"}
    t0 = time.perf_counter()
    memo: dict = {}
    at28 = semantic_extension(mmsc_at_depth(i, hubs, 28), i, memo)
    at29 = semantic_extension(mmsc_at_depth(i, hubs, 29), i, memo)
    elapsed = time.perf_counter() - t0
    assert "x4" in at28
    assert "x4" not in at29
    assert elapsed < 1.0


# -- 4. adaptively chosen depth golden value ---------------------------------


def test_acceptance_04_adaptive_depth_golden_value():
    i = builtin_fixture("fig5")
    report, best = _best_of(5, lambda: adaptable_depth(i, {"x1"}))
    assert report.chosen_depth == 10
    assert best < 0.01


# -- 5. most-specific-concept golden concepts --------------------------------


def test_acceptance_05_most_specific_concept_goldens():
    i = builtin_fixture("fig3")
    depth1_expected = And(
        (
            Atom("City"),
            Exists("government", Atom("Party")),
            Exists("partof", Atom("Region")),
        )
    )
    depth2_expected = And(
        (
            Atom("City"),
            Exists("government", Atom("Party")),
            Exists("partof", Atom("Region")),
            Exists("partof", And((Atom("Region"), Exists("capital", TOP)))),
        )
    )

    def run():
        c1 = mmsc_at_depth(i, {"x1", "x2"}, 1)
        c2 = mmsc_at_depth(i, {"x1", "x2"}, 2)
        return (
            equivalent_empty(c1, depth1_expected),
            equivalent_empty(c2, depth2_expected),
        )

    (ok1, ok2), best = _best_of(3, run)
    assert ok1
    assert ok2
    assert best < 0.01


# -- 6. unbounded-depth axiom families ---------------------------------------


def test_acceptance_06_unbounded_depth_families():
    t0 = time.perf_counter()
    memo1: dict = {}
    memo2: dict = {}
    i1 = builtin_fixture("fig4i")
    i2 = builtin_fixture("fig4ii")
    for n in range(1, 21):
        assert semantic_extension(Atom("A"), i1, memo1) <= semantic_extension(
            canonicalize(exists_chain("r", n, TOP)), i1, memo1
        )
        assert semantic_extension(
            canonicalize(Exists("s", exists_chain("r", n, Atom("B")))), i2, memo2
        ) <= semantic_extension(Atom("A"), i2, memo2)

    tbox, _ = build_base(i1)
    targets = [canonicalize(exists_chain("r", n, TOP)) for n in range(1, 21)]
    reasoner = Reasoner(tbox, rhs_concepts=targets)
    for target in targets:
        assert reasoner.entails_registered(Atom("A"), target)
    assert time.perf_counter() - t0 < 5.0


# -- 7. soundness of every mined base ----------------------------------------


def test_acceptance_07_base_soundness_everywhere():
    t0 = time.perf_counter()
    for name in FIXTURE_NAMES:
        i = builtin_fixture(name)
        tbox, _ = build_base(i)
        assert check_base_sound(i, tbox), name
    for seed in range(50):
        i = random_mineable_interpretation(random.Random(seed))
        tbox, _ = build_base(i)
        assert check_base_sound(i, tbox), seed
    assert time.perf_counter() - t0 < 60.0


# -- 8. desk-scale completeness of every mined base --------------------------


def test_acceptance_08_base_completeness_at_desk_scale():
    t0 = time.perf_counter()
    for name in ("fig3", "fig4i", "fig4ii", "fig7"):
        i = builtin_fixture(name)
        tbox, _ = build_base(i)
        report = check_base_complete(i, tbox, depth=2, size_cap=9)
        assert report.complete, (name, report.counterexamples[:3])
    assert time.perf_counter() - t0 < 300.0


# -- 9. walk-coverage oracle equivalence -------------------------------------


def test_acceptance_09_walk_coverage_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, max_vertices=8)
        for v in sorted(g.vertices):
            assert mvf(g, v) == mvf_oracle(g, v), (seed, v)
    assert time.perf_counter() - t0 < 30.0


# -- 10. extension stabilization beyond the chosen depth ---------------------


def test_acceptance_10_extension_stabilization():
    t0 = time.perf_counter()

    def stable(i, X):
        report = adaptable_depth(i, X)
        memo: dict = {}
        at = semantic_extension(mmsc_at_depth(i, X, report.chosen_depth), i, memo)
        beyond = semantic_extension(
            mmsc_at_depth(i, X, report.chosen_depth + 5), i, memo
        )
        return at == beyond

    for name in ("fig3", "fig7"):
        i = builtin_fixture(name)
        elements = sorted(i.domain)
        for n in range(1, len(elements) + 1):
            for combo in itertools.combinations(elements, n):
                assert stable(i, combo), (name, combo)
    for seed in range(100):
        rng = random.Random(seed)
        i = random_mineable_interpretation(rng)
        elements = sorted(i.domain)
        X = rng.sample(elements, rng.randint(1, len(elements)))
        assert stable(i, X), seed
    assert time.perf_counter() - t0 < 120.0


# -- 11. supporting-property suite -------------------------------------------


def _check_filler_monotonicity(i, memo):
    roles = sorted(r for r, pairs in i.role_ext.items() if pairs)
    for name in sorted(i.concept_ext):
        c = Atom(name)
        ext_c = semantic_extension(c, i, memo)
        if not ext_c:
            continue
        replaced = mmsc_adaptive(i, ext_c)
        for role in roles:
            assert semantic_extension(
                canonicalize(Exists(role, replaced)), i, memo
            ) == semantic_extension(canonicalize(Exists(role, c)), i, memo)


def _check_fixed_depth_idempotence(i, rng, memo):
    elements = sorted(i.domain)
    X = frozenset(rng.sample(elements, rng.randint(1, len(elements))))
    k = rng.randint(0, 3)
    first = mmsc_at_depth(i, X, k)
    again = mmsc_at_depth(i, semantic_extension(first, i, memo), k)
    assert subsumed_empty(first, again) and subsumed_empty(again, first)


def _check_lower_approximation(i, memo):
    for name in sorted(i.concept_ext):
        for role in sorted(i.role_ext):
            c = canonicalize(And((Atom(name), Exists(role, TOP))))
            approx = lower_approximation(c, i)
            assert semantic_extension(approx, i, memo) == (
                semantic_extension(c, i, memo)
            )


def _check_functional_extraction(g, rng):
    vs = sorted(g.vertices)
    v1, v2 = rng.choice(vs), rng.choice(vs)
    t = unravel(g, v1, 3, node_cap=200_000)
    sim = greatest_simulation(t.graph, g)
    if (t.root, v2) not in sim:
        return
    func = functional_subsimulation(sim, t.graph, t.root, g, v2)
    assert is_simulation(func, t.graph, t.root, g, v2)
    sources = [a for a, _ in func]
    assert len(sources) == len(set(sources))  # at most one partner each


def _check_product_projection(g, rng):
    vs = sorted(g.vertices)
    start = (rng.choice(vs), rng.choice(vs))
    p = product_reachable(g, start, node_cap=100_000)
    # every product walk of length <= 4 projects to component walks
    frontier = [(start, (start,))]
    count = 0
    while frontier and count < 2_000:
        tup, walk = frontier.pop()
        count += 1
        for role, nxt in p.successors(tup):
            for k in range(len(start)):
                assert nxt[k] in g.successors_by_role(walk[-1][k], role)
            if len(walk) <= 4:
                frontier.append((nxt, walk + (nxt,)))


def _check_depth_bounded_simulation(g, g2, rng):
    v = rng.choice(sorted(g.vertices))
    v2 = rng.choice(sorted(g2.vertices))
    assert claim_dsim_check(g, v, g2, v2)


def test_acceptance_11_supporting_property_suite():
    t0 = time.perf_counter()
    for name in FIXTURE_NAMES:
        i = builtin_fixture(name)
        # crc32, not hash(): str hashes are salted per process.
        rng = random.Random(zlib.crc32(name.encode()))
        memo: dict = {}
        _check_filler_monotonicity(i, memo)
        _check_fixed_depth_idempotence(i, rng, memo)
        _check_lower_approximation(i, memo)
        g = graph_of_interpretation(i)
        _check_functional_extraction(g, rng)
        if name != "fig5":  # its deep products exceed desk scale by design
            _check_product_projection(g, rng)
        _check_depth_bounded_simulation(g, g, rng)
    for seed in range(100):
        rng = random.Random(seed)
        i = random_mineable_interpretation(rng)
        memo = {}
        _check_filler_monotonicity(i, memo)
        _check_fixed_depth_idempotence(i, rng, memo)
        _check_lower_approximation(i, memo)
        g = graph_of_interpretation(i)
        g2 = graph_of_interpretation(random_mineable_interpretation(rng))
        _check_functional_extraction(g, rng)
        _check_product_projection(g, rng)
        _check_depth_bounded_simulation(g, g2, rng)
    assert time.perf_counter() - t0 < 120.0
