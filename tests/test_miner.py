"""Attribute mining, closed-set enumeration, and base construction."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    ConceptInclusion,
    Exists,
    Interpretation,
    TOP,
    active_signature,
    canonicalize,
    conjuncts_of,
    make_interpretation,
)
from ciforge.errors import CiforgeError, ResourceCapError, ValidationError
from ciforge.fixtures import builtin_fixture
from ciforge.miner import (
    attribute_set,
    build_base,
    check_base_complete,
    check_base_sound,
    enumerate_intents,
    intent_closure,
)
from ciforge.oracles import enumerate_concepts
from ciforge.reasoner import Reasoner, entails
from ciforge.simulation import equivalent_empty, semantic_extension
from ciforge.storage import tbox_lines

from oracles import (
    closed_extents,
    completeness_by_concept,
    cycle_interpretation,
    enumerate_fragment,
    exists_chain,
    seeded_instance,
)


@functools.lru_cache(maxsize=None)
def fixture_base(name):
    return build_base(builtin_fixture(name))


@functools.lru_cache(maxsize=None)
def seeded_base(seed):
    return build_base(seeded_instance(seed))


# -- attribute sets ---------------------------------------------------------


def test_attributes_of_the_loop_fixture():
    attrs = attribute_set(builtin_fixture("fig4i"))
    assert len(attrs.attributes) == 5
    assert BOTTOM in attrs.attributes
    assert Atom("A") in attrs.attributes


def test_attributes_of_a_bare_singleton_are_just_bottom():
    attrs = attribute_set(make_interpretation(["a"]))
    assert attrs.attributes == (BOTTOM,)


def test_attributes_of_the_two_city_fixture():
    attrs = attribute_set(builtin_fixture("fig3"))
    assert len(attrs.attributes) == 33
    for name in ("City", "Party", "Liberal", "Organization", "Region"):
        assert Atom(name) in attrs.attributes
    roles_used = {
        c.role for c in attrs.attributes if isinstance(c, Exists)
    }
    assert roles_used == {"government", "partof", "capital"}


def test_attribute_extensions_are_precomputed_correctly():
    i = builtin_fixture("fig4ii")
    attrs = attribute_set(i)
    memo: dict = {}
    for c, ext in zip(attrs.attributes, attrs.ext):
        assert semantic_extension(c, i, memo) == ext


def test_no_attribute_duplicates_up_to_extension_and_equivalence():
    i = builtin_fixture("fig4ii")
    attrs = attribute_set(i)
    n = len(attrs.attributes)
    for a in range(n):
        for b in range(a + 1, n):
            assert not (
                attrs.ext[a] == attrs.ext[b]
                and equivalent_empty(attrs.attributes[a], attrs.attributes[b])
            )


def test_attribute_mining_is_capped_by_domain_size():
    i = make_interpretation([f"e{k}" for k in range(13)])
    with pytest.raises(ResourceCapError):
        attribute_set(i)


# -- closure and closed sets ------------------------------------------------


def test_closure_of_the_empty_set_is_what_everything_satisfies():
    i = builtin_fixture("fig4i")
    attrs = attribute_set(i)
    closed = intent_closure(attrs, frozenset(), i)
    assert closed == {
        idx for idx in range(len(attrs.attributes))
        if attrs.ext[idx] == i.domain
    }


def test_closure_of_bottom_is_everything():
    i = builtin_fixture("fig4i")
    attrs = attribute_set(i)
    bot = attrs.attributes.index(BOTTOM)
    assert intent_closure(attrs, {bot}, i) == set(range(len(attrs.attributes)))


def test_closure_collects_attributes_of_the_common_extension():
    i = builtin_fixture("fig3")
    attrs = attribute_set(i)
    city = attrs.attributes.index(Atom("City"))
    closed = intent_closure(attrs, {city}, i)
    for idx in closed:
        assert attrs.ext[idx] >= attrs.ext[city]


@given(st.integers(min_value=0, max_value=500))
def test_closure_is_extensive_monotone_idempotent(seed):
    i = seeded_instance(seed % 20)
    rng = random.Random(seed)
    attrs = attribute_set(i)
    n = len(attrs.attributes)
    u = frozenset(rng.sample(range(n), rng.randint(0, n)))
    v = frozenset(x for x in u if rng.random() < 0.5)
    cu = intent_closure(attrs, u, i)
    assert u <= cu
    assert intent_closure(attrs, v, i) <= cu
    assert intent_closure(attrs, cu, i) == cu


def test_closed_set_counts_are_stable():
    i4 = builtin_fixture("fig4i")
    assert len(enumerate_intents(attribute_set(i4), i4).intents) == 3
    i3 = builtin_fixture("fig3")
    assert len(enumerate_intents(attribute_set(i3), i3).intents) == 10


def test_two_disjoint_attributes_span_four_closed_sets():
    i = make_interpretation(
        ["a", "b"], concept_ext={"A": ["a"], "B": ["b"]}
    )
    attrs = attribute_set(i)
    assert len(attrs.attributes) == 3  # Bottom, A, B
    lattice = enumerate_intents(attrs, i)
    assert len(lattice.intents) == 4


def test_closed_sets_are_closed_and_unique():
    i = builtin_fixture("fig4ii")
    attrs = attribute_set(i)
    lattice = enumerate_intents(attrs, i)
    seen = set()
    for indices, ext in lattice.intents:
        assert indices not in seen
        seen.add(indices)
        assert intent_closure(attrs, indices, i) == indices
        common = i.domain
        for idx in indices:
            common = common & attrs.ext[idx]
        assert common == ext


def _assert_lattice_matches_the_oracle(i, label):
    attrs = attribute_set(i)
    lattice = enumerate_intents(attrs, i)
    extents = [ext for _, ext in lattice.intents]
    assert len(set(extents)) == len(extents), label
    assert set(extents) == closed_extents(i.domain, attrs.ext), label


def test_closed_extents_match_the_brute_force_oracle_on_fixtures():
    for name in ("fig3", "fig4i", "fig4ii", "fig7"):
        _assert_lattice_matches_the_oracle(builtin_fixture(name), name)


def test_closed_extents_match_the_brute_force_oracle_on_random_seeds():
    for seed in range(50):
        _assert_lattice_matches_the_oracle(seeded_instance(seed), seed)


# -- base construction ------------------------------------------------------


def test_axiom_counts_are_stable():
    expected = {"fig4i": 11, "fig4ii": 45, "fig7": 17}
    for name, count in expected.items():
        tbox, report = fixture_base(name)
        assert report.axiom_count == count, name
        assert len(tbox) == count, name


def test_mined_text_is_pinned():
    # The saved text of these bases, byte for byte: a change to the order
    # of conjuncts, to the choice of MMSCs or to the axioms shows here.
    # tbox_lines sorts its lines, so the digest is the same under every
    # hash seed.
    digest = hashlib.sha256()
    bases = [fixture_base(name) for name in ("fig3", "fig4i", "fig4ii", "fig7")]
    bases += [seeded_base(seed) for seed in range(30)]
    for tbox, _ in bases:
        for line in tbox_lines(tbox):
            digest.update(line.encode() + b"\n")
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "51da7590907b9fd91661b4792f8a6ad58d6a8490693a0969ec76c4de46b37fec"
    )


@pytest.mark.parametrize("name", ["fig3", "fig4ii"])
def test_plain_collections_mine_the_same_base(name):
    # An interpretation built from sets or lists, not frozensets, is frozen
    # when it is made, and mines the same text.
    i = builtin_fixture(name)
    shapes = [
        Interpretation(i.domain, i.concept_ext, i.role_ext),
        Interpretation(
            set(i.domain),
            {n: set(ext) for n, ext in i.concept_ext.items()},
            {r: set(pairs) for r, pairs in i.role_ext.items()},
        ),
        make_interpretation(
            sorted(i.domain),
            {n: sorted(ext) for n, ext in i.concept_ext.items()},
            {r: [list(p) for p in sorted(pairs)] for r, pairs in i.role_ext.items()},
        ),
    ]
    texts = [tbox_lines(build_base(shape)[0]) for shape in shapes]
    assert all(shape == i for shape in shapes)
    assert texts[0] and texts[1:] == [texts[0]] * 2


def _valid_by_form(ci):
    return ci.lhs == BOTTOM or set(conjuncts_of(ci.rhs)) <= set(conjuncts_of(ci.lhs))


def test_no_mined_axiom_holds_by_its_form_alone():
    # ⊥ ⊑ D, and C ⊑ D with every conjunct of D among C's, hold in every
    # interpretation, so a base gains nothing from them.
    for name in ("fig3", "fig4i", "fig4ii", "fig7"):
        tbox, _ = fixture_base(name)
        assert not [ci for ci in tbox if _valid_by_form(ci)], name
    for seed in range(50):
        tbox, _ = seeded_base(seed)
        assert not [ci for ci in tbox if _valid_by_form(ci)], seed


def test_summary_has_a_depth_histogram_not_a_line_per_subset():
    tbox, report = fixture_base("fig3")
    assert len(report.depth_reports) == 127
    assert list(report.summary_lines()) == [
        "attributes: 33",
        "intents: 10",
        "axioms: 65",
        "max role depth: 10",
        "depth branch=bounded chosen=0 subsets=120",
        "depth branch=bounded chosen=1 subsets=2",
        "depth branch=bounded chosen=2 subsets=2",
        "depth branch=cyclic chosen=3 subsets=1",
        "depth branch=cyclic chosen=9 subsets=2",
        "max chosen depth: 9",
    ]


def test_mined_bases_are_sound_on_their_interpretation():
    for name in ("fig4i", "fig4ii", "fig7"):
        tbox, _ = fixture_base(name)
        assert check_base_sound(builtin_fixture(name), tbox)


def test_equivalence_axioms_are_extension_faithful():
    i = builtin_fixture("fig4ii")
    tbox, _ = fixture_base("fig4ii")
    memo: dict = {}
    for ci in tbox:
        reverse = ConceptInclusion(ci.rhs, ci.lhs)
        if reverse in tbox:
            assert semantic_extension(ci.lhs, i, memo) == (
                semantic_extension(ci.rhs, i, memo)
            )


def test_base_entails_an_unbounded_depth_family():
    tbox, _ = fixture_base("fig4i")
    family = [
        ConceptInclusion(Atom("A"), canonicalize(exists_chain("r", n, TOP)))
        for n in range(1, 21)
    ]
    reasoner = Reasoner(tbox, rhs_concepts=[ci.rhs for ci in family])
    for ci in family:
        assert reasoner.entails_registered(ci.lhs, ci.rhs)


def test_base_entails_valid_fixture_inclusions():
    tbox, _ = fixture_base("fig3")
    from ciforge.reasoner import entails

    assert entails(
        tbox,
        ConceptInclusion(Atom("City"), Exists("partof", Atom("Region"))),
    )
    assert not entails(
        tbox,
        ConceptInclusion(Atom("Region"), Atom("City")),
    )


def test_disjoint_attribute_meet_is_entailed_to_be_empty():
    tbox, _ = fixture_base("fig4ii")
    from ciforge.reasoner import entails

    assert entails(
        tbox,
        ConceptInclusion(canonicalize(And((Atom("A"), Atom("B")))), BOTTOM),
    )


def test_trivial_interpretation_base_entails_nothing_substantial():
    i = make_interpretation(["a"])
    tbox, report = build_base(i)
    memo: dict = {}
    for ci in tbox:
        lhs_ext = semantic_extension(ci.lhs, i, memo)
        rhs_ext = semantic_extension(ci.rhs, i, memo)
        assert lhs_ext <= rhs_ext
        assert not lhs_ext or rhs_ext == i.domain


def test_unknown_mode_is_rejected():
    for mode in ("fancy", "naive"):
        with pytest.raises(CiforgeError, match="mining mode"):
            build_base(builtin_fixture("fig7"), mode=mode)


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=500))
def test_random_bases_are_sound(seed):
    i = seeded_instance(seed % 15)
    tbox, _ = build_base(i)
    assert check_base_sound(i, tbox)


# -- verification helpers ---------------------------------------------------


def test_soundness_checker_golden_values():
    i = builtin_fixture("fig7")
    assert check_base_sound(i, frozenset())
    bad = frozenset({ConceptInclusion(TOP, BOTTOM)})
    assert not check_base_sound(i, bad)


def test_empty_tbox_is_incomplete_for_structured_data():
    i = builtin_fixture("fig3")
    report = check_base_complete(i, frozenset(), depth=1, size_cap=5)
    assert not report.complete
    missing = {str(ci) for ci in report.counterexamples}
    assert any("City" in m and "partof" in m for m in missing)


def test_completeness_check_does_not_depend_on_the_basic_concept_order(monkeypatch):
    # The conjunctions are built from the basic concepts, in the order they
    # are read.  With the basics shuffled, and the enumeration a plain list,
    # the check must count the same concepts and report the same
    # counterexamples.
    import ciforge.miner as miner_module

    i = builtin_fixture("fig3")
    tbox = _fig3_base_with_every_third_axiom_dropped()
    in_order = check_base_complete(i, tbox, depth=2, size_cap=5)
    enumerate_concepts = miner_module.enumerate_concepts

    def basics_shuffled(*args):
        produced = list(enumerate_concepts(*args))
        basics = produced[2:]
        random.Random(7).shuffle(basics)
        return produced[:2] + basics

    monkeypatch.setattr(miner_module, "enumerate_concepts", basics_shuffled)
    shuffled = check_base_complete(i, tbox, depth=2, size_cap=5)
    assert shuffled.checked == in_order.checked
    assert set(shuffled.counterexamples) == set(in_order.counterexamples)
    assert len(shuffled.counterexamples) == len(in_order.counterexamples)
    assert any(isinstance(ci.lhs, And) for ci in in_order.counterexamples)


def test_a_complete_base_is_checked_from_the_basic_concepts_alone(monkeypatch):
    # The check reads no conjunction from the enumeration, and on a complete
    # base the only conjunctions it asks the reasoner about are the fillers
    # of the restrictions it read.
    import ciforge.miner as miner_module

    i = builtin_fixture("fig3")
    tbox, _ = fixture_base("fig3")
    read = []
    enumerate_concepts = miner_module.enumerate_concepts

    def recorded(*args):
        for c, size in enumerate_concepts(*args):
            read.append(c)
            yield c, size

    left_sides = []
    for name in ("completion", "entails_registered", "entails"):
        method = getattr(Reasoner, name)

        def recording(self, lhs, *rest, _method=method):
            left_sides.append(lhs.lhs if isinstance(lhs, ConceptInclusion) else lhs)
            return _method(self, lhs, *rest)

        monkeypatch.setattr(Reasoner, name, recording)
    monkeypatch.setattr(miner_module, "enumerate_concepts", recorded)
    report = check_base_complete(i, tbox, depth=2, size_cap=6)
    assert report.complete and report.checked == 4_929
    assert read and not any(isinstance(c, And) for c in read)
    fillers = {c.filler for c in read if isinstance(c, Exists)}
    asked = {c for c in left_sides if isinstance(c, And)}
    assert left_sides and asked <= fillers


def test_the_check_walks_each_filler_and_leaf_once(monkeypatch):
    # A restriction ∃r.F takes its extension and completion from F's: the
    # check evaluates and completes each distinct filler or leaf (Top,
    # Bottom, an atom) at most once, and nothing else.
    import ciforge.miner as miner_module

    i = builtin_fixture("fig3")
    tbox, _ = fixture_base("fig3")
    read = [c for c, _ in enumerate_concepts(active_signature(i), 2, 6)]
    allowed = {c.filler if isinstance(c, Exists) else c for c in read}
    walked = {"extension": [], "completion": []}
    extension, complete_tree = miner_module.semantic_extension, Reasoner._complete_tree

    def recorded_extension(c, *rest):
        walked["extension"].append(c)
        return extension(c, *rest)

    def recorded_completion(self, c):
        walked["completion"].append(c)
        return complete_tree(self, c)

    monkeypatch.setattr(miner_module, "semantic_extension", recorded_extension)
    monkeypatch.setattr(Reasoner, "_complete_tree", recorded_completion)
    report = check_base_complete(i, tbox, depth=2, size_cap=6)
    assert report.complete and report.checked == 4_929
    for name, concepts in walked.items():
        assert concepts and set(concepts) <= allowed, name
        assert len(set(concepts)) == len(concepts), name


def test_the_check_stops_at_every_completion_that_holds_bottom(monkeypatch):
    # A completion that holds ⊥ entails every target, and so do its joins and
    # every ∃r.F over it.  The class search starts from classes without ⊥ and
    # extends no set whose join holds ⊥; the target search extends no set
    # whose extensions meet in nothing; and the check completes no ∃r.F over
    # a filler that holds ⊥.  The reasoner's own walk of a filler may still
    # complete a restriction inside it over ⊥: it keeps exact completions.
    import ciforge.miner as miner_module

    i = builtin_fixture("fig3")
    tbox, _ = fixture_base("fig3")
    searches = {"targets": [], "classes": []}
    fitting_sets = miner_module._fitting_sets

    def recorded(items, budget, combine, **settles):
        if combine is tuple.__add__:  # a failing set spread into conjunctions
            yield from fitting_sets(items, budget, combine, **settles)
            return
        yielded = {}
        kind = "targets" if combine is frozenset.__and__ else "classes"
        searches[kind].append((items, yielded))
        for chosen, key, size in fitting_sets(items, budget, combine, **settles):
            yielded[chosen] = key
            yield chosen, key, size

    reasoners, walking, told = set(), [0], []
    completion, restriction = Reasoner.completion, Reasoner.restriction

    def recorded_completion(self, c):
        walking[0] += 1
        try:
            return completion(self, c)
        finally:
            walking[0] -= 1

    def recorded_restriction(self, role, filler):
        reasoners.add(self)
        if not walking[0]:
            told.append(filler)
        return restriction(self, role, filler)

    monkeypatch.setattr(miner_module, "_fitting_sets", recorded)
    monkeypatch.setattr(Reasoner, "completion", recorded_completion)
    monkeypatch.setattr(Reasoner, "restriction", recorded_restriction)
    report = check_base_complete(i, tbox, depth=2, size_cap=6)
    assert report.complete and report.checked == 4_929
    [reasoner] = reasoners

    def settled(s):
        return reasoner.completion_entails(s, BOTTOM)

    assert told and not any(map(settled, told))
    [(items, yielded)] = searches["classes"]
    assert items and not any(settled(s) for (_, s), *_ in items)
    assert any(settled(s) for _, s in yielded.values())
    for chosen in yielded:
        assert len(chosen) == 1 or not settled(yielded[chosen[:-1]][1]), chosen
    [(items, yielded)] = searches["targets"]
    assert any(not ext for ext in yielded.values())
    for chosen in yielded:
        assert len(chosen) == 1 or yielded[chosen[:-1]], chosen


@pytest.mark.parametrize("name", ["fig3", "fig4i", "fig4ii", "fig7"])
def test_completeness_check_of_a_base_that_never_derives_bottom(name):
    # Without its ⊥ axioms a mined base completes no concept but ⊥ to a set
    # that holds ⊥, though many concepts still have an empty extension: the
    # check must settle on ⊥ in a completion, not on an empty extension.
    i, (tbox, _) = builtin_fixture(name), fixture_base(name)
    base = frozenset(ci for ci in tbox if ci.rhs != BOTTOM)
    assert len(base) < len(tbox) and not any("Bottom" in str(ci) for ci in base)
    failures = 0
    for depth in range(3):
        for size_cap in range(1, 7):
            report = check_base_complete(i, base, depth, size_cap)
            assert report == completeness_by_concept(i, base, depth, size_cap), (
                depth, size_cap
            )
            failures += len(report.counterexamples)
    assert failures


@pytest.mark.parametrize(
    "name", ["fig3", "fig4i", "fig4ii", "fig7", *(f"seed{k}" for k in range(10))]
)
def test_completeness_check_matches_the_concept_by_concept_check(name):
    # The whole report: count, counterexamples in order, and the reasoner's
    # saturation size, on the mined base, the empty TBox and the mined base
    # with every third axiom dropped.
    if name.startswith("seed"):
        i, (tbox, _) = seeded_instance(int(name[4:])), seeded_base(int(name[4:]))
    else:
        i, (tbox, _) = builtin_fixture(name), fixture_base(name)
    dropped = frozenset(ci for k, ci in enumerate(sorted(tbox, key=str)) if k % 3)
    failures = 0
    for base in (tbox, frozenset(), dropped):
        for depth in range(3):
            for size_cap in range(1, 7):
                report = check_base_complete(i, base, depth, size_cap)
                assert report == completeness_by_concept(i, base, depth, size_cap), (
                    depth, size_cap
                )
                failures += len(report.counterexamples)
    assert failures


def _fig3_base_with_every_third_axiom_dropped():
    tbox, _ = fixture_base("fig3")
    return frozenset(ci for k, ci in enumerate(sorted(tbox, key=str)) if k % 3)


def _left_sides_of_literal_pairs(i, tbox, depth, size_cap):
    """Brute-force reference: every fragment concept C for which some
    fragment concept D has C's extension inside its own and T ⊭ C ⊑ D."""
    concepts = list(enumerate_fragment(active_signature(i), depth, size_cap))
    memo: dict = {}
    ext = {c: semantic_extension(c, i, memo) for c in concepts}
    reasoner = Reasoner(tbox, rhs_concepts=concepts)
    return {
        c
        for c in concepts
        if any(
            ext[c] <= ext[d] and not reasoner.entails_registered(c, d)
            for d in concepts
        )
    }


@pytest.mark.parametrize("dropped", [False, True], ids=["empty", "dropped"])
@pytest.mark.parametrize("size_cap", [4, 5])
def test_completeness_counterexamples_against_the_literal_pair_scan(
    dropped, size_cap
):
    i = builtin_fixture("fig3")
    tbox = _fig3_base_with_every_third_axiom_dropped() if dropped else frozenset()
    report = check_base_complete(i, tbox, depth=1, size_cap=size_cap)
    assert not report.complete
    memo: dict = {}
    for ci in report.counterexamples:
        assert semantic_extension(ci.lhs, i, memo) <= semantic_extension(
            ci.rhs, i, memo
        ), ci
        assert not entails(tbox, ci), ci
    reported = {ci.lhs for ci in report.counterexamples}
    assert _left_sides_of_literal_pairs(i, tbox, 1, size_cap) <= reported


def test_completeness_counterexamples_of_a_base_missing_a_third_of_its_axioms():
    i = builtin_fixture("fig3")
    tbox = _fig3_base_with_every_third_axiom_dropped()
    report = check_base_complete(i, tbox, depth=2, size_cap=6)
    assert report.checked == 4_929
    assert len(report.counterexamples) == 1_039
    assert str(report.counterexamples[0]) == "City SubClassOf some government.Party"


def test_depth_zero_completeness_of_a_mined_base():
    i = builtin_fixture("fig4ii")
    tbox, _ = fixture_base("fig4ii")
    report = check_base_complete(i, tbox, depth=0, size_cap=5)
    assert report.complete
    # The check's reasoner saturates the TBox and its registered targets.
    bare = Reasoner(tbox).subsumers
    assert report.reasoner_atoms >= len(bare) > 0
    assert report.reasoner_pairs >= sum(map(len, bare.values()))


@pytest.mark.parametrize(
    "depth, size_cap, message",
    [(-1, 3, "role depth must be at least 0, got -1"),
     (2, 0, "size cap must be at least 1, got 0")],
)
def test_completeness_check_rejects_an_empty_fragment(depth, size_cap, message):
    i = builtin_fixture("fig3")
    tbox, _ = fixture_base("fig3")
    with pytest.raises(ValidationError, match=message):
        check_base_complete(i, tbox, depth=depth, size_cap=size_cap)


def test_mined_bases_are_complete_at_desk_scale():
    for name in ("fig4i", "fig4ii", "fig7"):
        i = builtin_fixture(name)
        tbox, _ = fixture_base(name)
        report = check_base_complete(i, tbox, depth=2, size_cap=9)
        assert report.complete, (name, report.counterexamples[:3])
    # The cycle bases hold deep ∃-chains; their saturation sizes are pinned.
    for lengths, atoms, pairs in [((2, 3), 276, 19_939), ((2, 5), 944, 169_976)]:
        i = cycle_interpretation(*lengths)
        tbox, _ = build_base(i)
        report = check_base_complete(i, tbox, depth=2, size_cap=9)
        assert report.complete, (lengths, report.counterexamples[:3])
        assert (report.reasoner_atoms, report.reasoner_pairs) == (atoms, pairs)


def test_random_bases_are_complete_at_desk_scale():
    for seed in range(50):
        tbox, _ = seeded_base(seed)
        report = check_base_complete(seeded_instance(seed), tbox, depth=2, size_cap=9)
        assert report.complete, (seed, report.counterexamples[:3])
