"""TBox entailment by completion-rule saturation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ciforge.concepts import (
    And,
    Atom,
    BOTTOM,
    ConceptInclusion,
    Exists,
    Signature,
    TOP,
    active_signature,
    canonicalize,
    make_interpretation,
)
from ciforge.errors import CiforgeError
from ciforge.fixtures import builtin_fixture
from ciforge.miner import build_base
from ciforge.oracles import enumerate_concepts
from ciforge.reasoner import Reasoner, entails
from ciforge.simulation import semantic_extension, subsumed_empty

from conftest import concepts
from oracles import random_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")


def ci(lhs, rhs):
    return ConceptInclusion(canonicalize(lhs), canonicalize(rhs))


# -- golden entailments -----------------------------------------------------


def test_conjunction_elimination_needs_no_axioms():
    assert entails(frozenset(), ci(And((A, B)), A))


def test_existential_monotonicity_through_an_axiom():
    tbox = frozenset({ci(A, Exists("r", B)), ci(B, C)})
    assert entails(tbox, ci(A, Exists("r", C)))


def test_inclusions_do_not_reverse():
    tbox = frozenset({ci(A, B)})
    assert entails(tbox, ci(A, B))
    assert not entails(tbox, ci(B, A))


def test_nested_lhs_structure_is_used():
    tbox = frozenset({ci(Exists("r", B), C)})
    assert entails(tbox, ci(Exists("r", And((A, B))), C))
    assert not entails(tbox, ci(Exists("r", A), C))


def test_chained_existentials_on_both_sides():
    tbox = frozenset(
        {
            ci(A, Exists("r", And((B, Exists("r", B))))),
        }
    )
    assert entails(tbox, ci(A, Exists("r", Exists("r", B))))
    assert not entails(tbox, ci(A, Exists("r", Exists("r", Exists("r", B)))))


def test_unsatisfiable_atoms_are_below_everything():
    tbox = frozenset({ci(A, BOTTOM)})
    assert entails(tbox, ci(A, C))
    assert entails(tbox, ci(And((A, B)), Exists("r", C)))
    assert entails(tbox, ci(Exists("r", A), BOTTOM))


def test_bottom_propagates_through_fillers():
    tbox = frozenset({ci(And((A, B)), BOTTOM)})
    assert entails(tbox, ci(Exists("r", And((A, B))), BOTTOM))
    assert not entails(tbox, ci(Exists("r", A), BOTTOM))


def test_top_and_bottom_edge_cases():
    assert entails(frozenset(), ci(A, TOP))
    assert entails(frozenset(), ci(BOTTOM, A))
    assert not entails(frozenset(), ci(TOP, A))


def test_axioms_with_conjunction_left_hand_sides():
    tbox = frozenset({ci(And((A, B)), C)})
    assert entails(tbox, ci(And((A, B)), C))
    assert entails(tbox, ci(And((A, B, Exists("r", TOP))), C))
    assert not entails(tbox, ci(A, C))


def test_successor_that_is_its_own_canonical_element():
    # The r-successor of C is again a C, so saturation meets a self-edge
    # whose target's subsumers grow while they are read.
    tbox = frozenset(
        {
            ci(C, Exists("r", And((C, Exists("s", B), Exists("s", TOP))))),
            ci(And((C, Exists("r", TOP), Exists("s", TOP))), A),
        }
    )
    assert entails(tbox, ci(C, Exists("r", And((A, C)))))
    assert not entails(tbox, ci(C, A))


def test_batch_reasoner_matches_single_queries():
    tbox = frozenset({ci(A, Exists("r", B)), ci(B, C)})
    targets = [Exists("r", C), Exists("r", B), C]
    r = Reasoner(tbox, rhs_concepts=targets)
    for target in targets:
        assert r.entails_registered(A, canonicalize(target)) == entails(
            tbox, ci(A, target)
        )


def test_new_rhs_after_a_query_is_not_answered_from_a_stale_completion():
    # Registering ∃r.⊤ adds the axiom ∃r.⊤ ⊑ N; a completion of A ⊓ C
    # memoized before that registration lacks N.
    tbox = frozenset({ci(A, Exists("r", B))})
    r = Reasoner(tbox)
    assert r.entails(ci(And((A, C)), C))
    assert r.entails(ci(And((A, C)), Exists("r", TOP)))
    assert not r.entails(ci(And((A, C)), Exists("s", TOP)))


def test_shared_reasoner_answers_like_fresh_ones_in_any_order():
    # A conjunction is completed by a fold of memoized joins over its
    # conjuncts; the pool holds every prefix of its conjunctions, shuffled,
    # so some joins are met again in another order.
    sig = Signature(frozenset({"A", "B", "C"}), frozenset({"r", "s"}))
    pool = list(enumerate_concepts(sig, 1, 6))
    verdicts = set()
    for seed in range(10):
        rng = random.Random(seed)
        axioms = [
            ci(random_concept(rng, sig, 2), random_concept(rng, sig, 2))
            for _ in range(4)
        ]
        if seed % 3 == 0:
            axioms.append(ci(random_concept(rng, sig, 1), BOTTOM))
        tbox = frozenset(axioms)
        queries = [ci(lhs, random_concept(rng, sig, 1)) for lhs in pool]
        rng.shuffle(queries)
        shared = Reasoner(tbox, rhs_concepts=[q.rhs for q in queries])
        for q in queries:
            verdict = shared.entails_registered(q.lhs, q.rhs)
            assert verdict == entails(tbox, q), f"seed {seed}: {q}"
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_unregistered_right_hand_side_is_a_clear_error():
    r = Reasoner(frozenset({ci(A, B)}), rhs_concepts=[B])
    assert r.entails_registered(A, B)
    with pytest.raises(CiforgeError, match=r"some r\.\(A and C\)"):
        r.entails_registered(A, canonicalize(Exists("r", And((A, C)))))


@pytest.mark.parametrize(
    "lhs", [BOTTOM, Exists("r", BOTTOM)], ids=["bottom", "some-r-bottom"]
)
def test_an_unregistered_right_hand_side_is_an_error_whatever_the_left_side(lhs):
    r = Reasoner(frozenset({ci(A, B)}), rhs_concepts=[B])
    assert r.entails_registered(lhs, B)
    with pytest.raises(CiforgeError, match=r"some r\.C"):
        r.entails_registered(lhs, canonicalize(Exists("r", C)))
    # ⊤ needs no registration.
    assert r.entails_registered(lhs, TOP)
    assert r.entails_registered(A, TOP)


def test_every_atom_names_a_concept_or_a_subconcept():
    # A conjunction is one n-ary axiom: no atom names a prefix of one.
    i = builtin_fixture("fig3")
    tbox, _ = build_base(i)
    r = Reasoner(tbox)
    named = set(r.norm.names.values())
    assert r.norm.counter == len(named)
    assert set(r.subsumers) <= {"⊤", "⊥"} | set(i.concept_ext) | named
    assert any(
        isinstance(c, And) and len(c.conjuncts) >= 3 for c in r.norm.names
    )


# -- concepts taken as given ------------------------------------------------


@settings(max_examples=150)
@given(st.lists(st.tuples(concepts(), concepts()), max_size=4), concepts(), concepts())
def test_non_canonical_concepts_are_taken_as_given(axioms, lhs, rhs):
    # The trees are unsorted, nested, one-conjunct, with ⊤ and ⊥ anywhere.
    canonical = Reasoner([ci(c, d) for c, d in axioms]).entails(ci(lhs, rhs))
    r = Reasoner([ConceptInclusion(c, d) for c, d in axioms])
    assert r.entails(ConceptInclusion(lhs, rhs)) == canonical
    assert r.entails_registered(lhs, canonicalize(rhs)) == canonical


ODD_FORMS = [
    And(()),
    And((A,)),
    And((And((C, B)), A, And((A,)))),
    Exists("r", And((A, BOTTOM))),
]


@pytest.mark.parametrize(
    "odd", ODD_FORMS, ids=["empty", "one-conjunct", "nested", "bottom-filler"]
)
def test_odd_forms_on_either_side_answer_like_their_canonical_forms(odd):
    others = [A, B, TOP, BOTTOM, Exists("r", A), And((B, C))]
    tboxes = [[], [(odd, C)], [(A, odd)], [(C, Exists("s", odd))], [(Exists("s", odd), C)]]
    queries = [(odd, d) for d in others] + [(c, odd) for c in others]
    queries += [(Exists("s", odd), Exists("s", And((odd, B)))), (And((odd, C)), odd)]
    for axioms in tboxes:
        r = Reasoner([ConceptInclusion(c, d) for c, d in axioms])
        canonical = Reasoner([ci(c, d) for c, d in axioms])
        for lhs, rhs in queries:
            expected = canonical.entails(ci(lhs, rhs))
            assert r.entails(ConceptInclusion(lhs, rhs)) == expected, (axioms, lhs, rhs)
            assert r.entails_registered(lhs, rhs) == expected


def test_odd_forms_mean_what_they_say():
    assert entails([ConceptInclusion(And(()), C)], ConceptInclusion(B, C))
    assert entails([], ConceptInclusion(A, And((And(()), And((A,))))))
    assert not entails([], ConceptInclusion(And(()), And((A,))))
    assert entails([], ConceptInclusion(Exists("r", And((A, BOTTOM))), C))
    assert entails([ConceptInclusion(A, Exists("r", And((B, BOTTOM))))], ci(A, BOTTOM))
    assert not entails([], ConceptInclusion(Exists("r", And((C, B))), Exists("r", A)))


# -- memoized query completion against a rule-by-rule closure -------------


def _atom_of(norm, c) -> str:
    """The normalizer's atom for a concept it has met."""
    if c == TOP:
        return "⊤"
    if c == BOTTOM:
        return "⊥"
    if isinstance(c, Atom):
        return c.name
    return norm.names[c]


def _rule_by_rule_close(r: Reasoner, start) -> frozenset:
    """Closure of `start` under the sub, conjunction and ∃ rules, one atom
    at a time; an ∃-edge to b's canonical element brings ⊥ and the ∃r.a ⊑ B
    consequences of every a in the saturated S(b).  The conjunction rule
    reads the named conjunctions, not the reasoner's index of them: a named
    C1 ⊓ … ⊓ Ck whose conjuncts' atoms are all in the set adds its name."""
    norm = r.norm
    conjunctions = [
        ({_atom_of(norm, d) for d in c.conjuncts}, name)
        for c, name in norm.names.items()
        if isinstance(c, And)
    ]

    def conseq_via(role, b):
        sb = r.subsumers[b]
        out = {"⊥"} if "⊥" in sb else set()
        for a in sb:
            out.update(norm.ax_exists_lhs.get((role, a), ()))
        return out

    s = set(start)
    queue = list(s)
    while queue:
        a = queue.pop()
        derived = list(norm.ax_sub.get(a, ()))
        derived += [b for parts, b in conjunctions if a in parts and parts <= s]
        for role, b in norm.ax_exists_rhs.get(a, ()):
            derived += conseq_via(role, b)
        for b in derived:
            if b not in s:
                s.add(b)
                queue.append(b)
    return frozenset(s)


def _told_start(r: Reasoner, role, child) -> set:
    """Atoms forced on an element with a role-edge to a child completed to
    `child`, before closing."""
    start = {"⊤", "⊥"} if "⊥" in child else {"⊤"}
    for a in child:
        start.update(r.norm.ax_exists_lhs.get((role, a), ()))
    return start


def _oracle_completion(r: Reasoner, c) -> frozenset:
    if isinstance(c, And):
        start = set().union(*(_oracle_completion(r, d) for d in c.conjuncts))
    elif isinstance(c, Exists):
        start = _told_start(r, c.role, _oracle_completion(r, c.filler))
    elif isinstance(c, Atom):
        start = {"⊤", c.name}
    else:
        start = {"⊤", "⊥"} if c == BOTTOM else {"⊤"}
    return _rule_by_rule_close(r, start)


def _memos_match_the_oracle(r: Reasoner) -> int:
    """Every memoized completion, join, told child and closed told set
    equals the rule-by-rule closure of its start set, and a told child is
    the closed told set of its start; returns how many memo entries were
    checked."""
    for c, s in r._completions.items():
        assert s == _oracle_completion(r, c), c
    for (left, right), s in r._joins.items():
        assert s == _rule_by_rule_close(r, left | right)
    for (role, child), s in r._told.items():
        start = _told_start(r, role, child)
        assert s == _rule_by_rule_close(r, start)
        assert r._told_sets[frozenset(start)] is s
    for told, s in r._told_sets.items():
        assert s == _rule_by_rule_close(r, told)
    return len(r._completions) + len(r._joins) + len(r._told) + len(r._told_sets)


def _exists_fillers_of(norm) -> dict:
    """The fillers of the ∃r.A ⊑ B axioms per role, read from the axioms."""
    fillers: dict = {}
    for role, a in norm.ax_exists_lhs:
        fillers.setdefault(role, set()).add(a)
    return fillers


def _count_closes(r: Reasoner) -> list:
    calls = []
    close = r._close

    def counting(s, queue):
        calls.append(1)
        return close(s, queue)

    r._close = counting
    return calls


def test_joined_completions_answer_like_the_conjunction():
    # The public steps: the join of the conjuncts' completions is the
    # conjunction's completion, and the verdict read from it is the query's.
    tbox = frozenset({ci(And((A, B)), C), ci(Exists("r", C), And((A, B)))})
    r = Reasoner(tbox, rhs_concepts=[C, Exists("r", A)])
    joined = r.join(r.completion(A), r.completion(B))
    assert joined is r.completion(And((A, B)))
    assert r.completion_entails(joined, C) and r.entails_registered(And((A, B)), C)
    assert not r.completion_entails(joined, Exists("r", A))
    assert r.completion_entails(r.completion(Exists("r", C)), C)
    assert r.completion_entails(r.completion(Exists("r", And((A, B)))), Exists("r", A))
    assert r.completion_entails(joined, TOP)
    assert r.completion_entails(r.completion(BOTTOM), Exists("r", A))
    with pytest.raises(CiforgeError, match="not registered"):
        r.completion_entails(joined, B)
    assert _memos_match_the_oracle(r)


def test_restricted_completions_answer_like_the_restriction():
    # The public told-child step: on fig3's base, ∃r.F's completion from
    # F's, for every role and every F of a small fragment, is the one a
    # second reasoner finds for ∃r.F as a whole.
    i = builtin_fixture("fig3")
    tbox, _ = build_base(i)
    sig = active_signature(i)
    fillers = list(enumerate_concepts(sig, 1, 4))
    steps, whole = (Reasoner(tbox, rhs_concepts=fillers) for _ in range(2))
    for f in fillers:
        for role in sorted(sig.role_names):
            s = steps.restriction(role, steps.completion(f))
            assert s == whole.completion(Exists(role, f)), (role, f)
    assert _memos_match_the_oracle(steps)


def test_completions_from_before_a_late_rhs_are_not_reused():
    # A ⊓ C and A ⊓ C ⊓ D are completed, and A ⊓ C's join memoized, before
    # the late right-hand side A ⊓ C names their common part.  Asked again,
    # they must gain its name, and so must A ⊓ C ⊓ E, whose first join is
    # that of A and C.
    D, E = Atom("D"), Atom("E")
    r = Reasoner(frozenset({ci(A, Exists("r", B))}), rhs_concepts=[B])
    ac, acd, ace = And((A, C)), And((A, C, D)), And((A, C, E))
    assert not r.entails_registered(ac, B)
    assert not r.entails_registered(acd, B)
    r.register_rhs(ac)
    assert r.entails_registered(ace, ac)
    assert r.entails_registered(acd, ac)
    assert r.entails_registered(ac, ac)
    assert _memos_match_the_oracle(r)


def test_a_repeated_join_is_closed_once():
    r = Reasoner(frozenset({ci(And((A, B)), C)}))
    left, right = r.completion(A), r.completion(B)
    calls = _count_closes(r)
    first = r.join(left, right)
    assert r.join(left, right) is first
    assert "C" in first and len(calls) == 1


def test_restrictions_on_equally_completed_fillers_share_one_closure():
    # C ≡ D, so ∃r.C and ∃r.D both reach ∃r.C ⊑ B through one completion.
    tbox = frozenset({ci(C, Atom("D")), ci(Atom("D"), C), ci(Exists("r", C), B)})
    r = Reasoner(tbox)
    assert r._complete_tree(C) is r._complete_tree(Atom("D"))
    calls = _count_closes(r)
    first = r._complete_tree(Exists("r", C))
    assert r._complete_tree(Exists("r", Atom("D"))) is first
    assert "B" in first and len(calls) == 1


def test_restrictions_on_fillers_with_equal_told_sets_share_one_closure():
    # A ⊓ C and A ⊓ D complete differently, but only A is read by an
    # ∃r.a ⊑ B axiom: an r-edge to either tells {⊤, B}, closed once.
    D = Atom("D")
    r = Reasoner(frozenset({ci(Exists("r", A), B)}))
    left, right = r.completion(And((A, C))), r.completion(And((A, D)))
    assert left != right
    calls = _count_closes(r)
    first = r.restriction("r", left)
    assert r.restriction("r", right) is first
    assert "B" in first and len(calls) == 1
    assert _memos_match_the_oracle(r)


def test_joins_and_told_children_from_before_a_late_rhs_are_not_reused():
    # The late right-hand sides A ⊓ C and ∃s.B leave the completions of A,
    # C and B as they were, but add axioms that fire on their join and on
    # an s-edge to B's completion.  The late D ⊓ E leaves the told set of a
    # t-edge to B's completion as it was, but its name joins the closure.
    D, E = Atom("D"), Atom("E")
    tbox = {ci(A, Exists("r", B)), ci(Exists("t", B), D), ci(Exists("t", B), E)}
    r = Reasoner(frozenset(tbox))
    assert not r.entails(ci(And((A, C)), B))
    assert r.entails(ci(And((A, C)), And((A, C))))
    assert not r.entails(ci(Exists("s", B), C))
    assert r.entails(ci(Exists("s", B), Exists("s", B)))
    assert not r.entails(ci(Exists("t", B), C))
    assert r.entails(ci(Exists("t", B), And((D, E))))
    assert r.norm.exists_fillers == _exists_fillers_of(r.norm)
    assert _memos_match_the_oracle(r)


def test_a_subsumer_from_the_saturation_meets_an_earlier_conjunct():
    # Joining D to A ⊓ C derives the name of A ⊓ D, whose saturated
    # subsumers bring X; X ⊓ C ⊑ Z must then fire with the C already there.
    D, X, Z = Atom("D"), Atom("X"), Atom("Z")
    tbox = frozenset({ci(And((A, D)), X), ci(And((C, X)), Z)})
    assert entails(tbox, ci(And((A, C, D)), Z))
    assert not entails(tbox, ci(And((A, C)), Z))


# -- incremental right-hand-side registration -------------------------------


def _same_saturation(late: Reasoner, upfront: Reasoner):
    """Subsumer sets agree; on an unsatisfiable atom only ⊥ is compared."""
    # A right-hand side registered after the last query is still pending.
    late._saturate()
    assert late.norm.names == upfront.norm.names
    assert late.subsumers.keys() == upfront.subsumers.keys()
    for atom, s in upfront.subsumers.items():
        if "⊥" in s or "⊥" in late.subsumers[atom]:
            assert ("⊥" in s) == ("⊥" in late.subsumers[atom]), atom
        else:
            assert late.subsumers[atom] == s, atom


def test_a_late_rhs_is_recognized_through_a_predecessor_edge():
    # C's element has an r-edge to D's, which gains A ⊓ B only once the
    # late right-hand side names that conjunction; C must then gain
    # ∃r.(A ⊓ B) through the edge, and F's query reads it from S(C).
    D, F = Atom("D"), Atom("F")
    tbox = frozenset(
        {ci(F, Exists("s", C)), ci(C, Exists("r", D)), ci(D, A), ci(D, B)}
    )
    r = Reasoner(tbox)
    assert r.entails(ci(F, Exists("s", Exists("r", A))))
    late = Exists("r", And((A, B)))
    assert r.entails(ci(F, Exists("s", late)))
    assert r.norm.names[canonicalize(late)] in r.subsumers["C"]
    assert not r.entails(ci(F, Exists("s", Exists("r", And((A, F))))))
    _same_saturation(r, Reasoner(tbox, rhs_concepts=list(r.rhs_names)))


def test_a_late_ternary_rhs_is_recognized_on_atoms_that_hold_its_conjuncts():
    # S(X) holds A, B and C through D before A ⊓ B ⊓ C is named; the name
    # must join S(X), and ∃r.(A ⊓ B ⊓ C) then S(Z) through Z's r-edge to X.
    D, X, Z = Atom("D"), Atom("X"), Atom("Z")
    tbox = [ci(Z, Exists("r", X)), ci(X, A), ci(X, D), ci(D, B), ci(D, C)]
    r = Reasoner(tbox)
    abc = And((A, B, C))
    assert r.entails(ci(X, abc))
    assert r.rhs_names[canonicalize(abc)] in r.subsumers["X"]
    late = Exists("r", abc)
    assert r.entails(ci(Z, late))
    assert r.rhs_names[canonicalize(late)] in r.subsumers["Z"]
    assert not r.entails(ci(D, abc))
    _same_saturation(r, Reasoner(tbox, rhs_concepts=list(r.rhs_names)))


def test_a_ternary_conjunction_completes_through_a_predecessor_edge():
    # S(X) holds A and B, and X's element has an r-edge to Y's.  Naming
    # A ⊓ B ⊓ ∃r.(P ⊓ Q) late, Y gains P ⊓ Q and X then gains its last
    # conjunct ∃r.(P ⊓ Q) through the edge.  Y's axioms come first, so the
    # late batch takes up X's A, the first conjunct, before Y's P: the
    # name must join S(X) when ∃r.(P ⊓ Q) arrives.  Z has an r-edge to an
    # element with P only, so it holds two of the three conjuncts.
    P, Q, X, Y, Z, W = (Atom(n) for n in "PQXYZW")
    tbox = [ci(Y, P), ci(Y, Q), ci(W, P)]
    tbox += [ci(a, b) for a in (X, Z) for b in (A, B)]
    tbox += [ci(X, Exists("r", Y)), ci(Z, Exists("r", W))]
    r = Reasoner(tbox)
    late = And((A, B, Exists("r", And((P, Q)))))
    assert r.entails(ci(X, late))
    assert r.rhs_names[canonicalize(late)] in r.subsumers["X"]
    assert not r.entails(ci(Z, late))
    _same_saturation(r, Reasoner(tbox, rhs_concepts=list(r.rhs_names)))


def test_bottom_reaches_a_late_rhs_through_its_successors():
    # A ⊓ B is unsatisfiable only through ∃s.C; the late right-hand side
    # ∃t.∃r.(A ⊓ B) names it, and ⊥ must climb two edges to its name.
    tbox = frozenset({ci(A, Exists("s", C)), ci(And((B, Exists("s", C))), BOTTOM)})
    r = Reasoner(tbox)
    assert not r.entails(ci(A, B))
    late = Exists("t", Exists("r", And((A, B))))
    names = [r.register_rhs(late), r.norm.names[Exists("r", And((A, B)))]]
    assert r.entails(ci(late, BOTTOM))
    assert all("⊥" in r.subsumers[n] for n in names)
    assert "⊥" not in r.subsumers["A"]
    _same_saturation(r, Reasoner(tbox, rhs_concepts=list(r.rhs_names)))


def test_late_registration_matches_fresh_reasoners():
    # Random TBoxes with ⊥ axioms and self-edges (X ⊑ ∃r.X); right-hand
    # sides arrive one at a time and in batches, with queries in between.
    sig = Signature(frozenset({"A", "B", "C"}), frozenset({"r", "s"}))
    atoms = [A, B, C]
    seen = {
        "bottom atoms": 0,
        "true": 0,
        "false": 0,
        "memo entries": 0,
        "conjunctions of 3+": 0,
    }
    for seed in range(40):
        rng = random.Random(seed)
        axioms = [
            ci(random_concept(rng, sig, 2), random_concept(rng, sig, 2))
            for _ in range(rng.randint(2, 5))
        ]
        x = rng.choice(atoms)
        axioms.append(ci(x, Exists(rng.choice("rs"), And((x, rng.choice(atoms))))))
        axioms.append(ci(x, Exists("r", x)))
        if seed % 2 == 0:
            axioms.append(ci(random_concept(rng, sig, 2), BOTTOM))
        tbox = frozenset(axioms)
        r = Reasoner(tbox)
        registered = []
        for _ in range(5):
            batch = [
                canonicalize(random_concept(rng, sig, 2))
                for _ in range(rng.choice((1, 1, 3)))
            ]
            for d in batch:
                r.register_rhs(d)
                registered.append(d)
            for _ in range(3):
                q = ci(random_concept(rng, sig, 2), rng.choice(registered))
                verdict = r.entails(q)
                assert verdict == entails(tbox, q), f"seed {seed}: {q}"
                seen["true" if verdict else "false"] += 1
            seen["memo entries"] += _memos_match_the_oracle(r)
            assert r.norm.exists_fillers == _exists_fillers_of(r.norm)
            _same_saturation(r, Reasoner(tbox, rhs_concepts=registered))
        seen["bottom atoms"] += sum("⊥" in s for s in r.subsumers.values()) > 1
        seen["conjunctions of 3+"] += sum(
            isinstance(c, And) and len(c.conjuncts) >= 3 for c in r.norm.names
        )
    assert all(seen.values()), seen


# -- saturation against a naive fixpoint ------------------------------------


def _naive_saturation(log) -> dict:
    """Subsumer sets of the atoms of the normal-form axioms in `log`, by a
    naive fixpoint: each pass fires every axiom on every atom, and the
    ∃-edges are an explicit set of (x, r, y), until nothing changes."""
    axioms = [(kind, premise, conclusion) for kind, premise, conclusion, _ in log]
    atoms = {"⊤", "⊥"}.union(*(mentioned for *_, mentioned in log))
    s = {a: {a, "⊤"} for a in atoms}
    edges = set()
    while True:
        before = (sum(map(len, s.values())), len(edges))
        for x in atoms:
            for kind, premise, conclusion in axioms:
                if kind == "ax_sub" and premise in s[x]:
                    s[x].add(conclusion)
                elif kind == "ax_conj" and premise <= s[x]:
                    s[x].add(conclusion)
                elif kind == "ax_exists_rhs" and premise in s[x]:
                    edges.add((x, *conclusion))
        for x, role, y in edges:
            for kind, premise, conclusion in axioms:
                if kind == "ax_exists_lhs" and premise[0] == role and premise[1] in s[y]:
                    s[x].add(conclusion)
            if "⊥" in s[y]:
                s[x].add("⊥")
        if (sum(map(len, s.values())), len(edges)) == before:
            return s


@settings(max_examples=200)
@given(
    st.lists(st.tuples(concepts(), concepts()), max_size=4),
    st.lists(
        st.tuples(st.lists(concepts(), min_size=1, max_size=3), concepts()),
        max_size=3,
    ),
)
def test_saturation_matches_a_naive_fixpoint(axioms, late):
    # Each late batch of right-hand sides is saturated by a query on the
    # saturation already there; S(a) must then be the naive fixpoint of all
    # axioms saturated so far, batches included.
    r = Reasoner([ConceptInclusion(c, d) for c, d in axioms])
    assert r.subsumers == _naive_saturation(r.norm.log)
    for batch, lhs in late:
        for d in batch:
            r.register_rhs(d)
        for d in batch:
            r.entails_registered(lhs, d)
        assert r.subsumers == _naive_saturation(r.norm.log[: r._saturated])


# -- agreement with the empty-TBox decision procedure -----------------------


def test_empty_tbox_agreement_with_tree_subsumption():
    sig = Signature(frozenset({"A"}), frozenset({"r"}))
    concepts = list(enumerate_concepts(sig, 2, 6))
    reasoner = Reasoner(frozenset(), rhs_concepts=concepts)
    for c in concepts:
        for d in concepts:
            assert reasoner.entails_registered(c, d) == subsumed_empty(c, d), (
                str(ConceptInclusion(c, d))
            )


# -- agreement with model checking ------------------------------------------


def _random_interpretation(rng):
    n = rng.randint(1, 3)
    domain = [f"e{k}" for k in range(n)]
    return make_interpretation(
        domain,
        {a: [x for x in domain if rng.random() < 0.5] for a in ("A", "B")},
        {
            "r": [
                (x, y) for x in domain for y in domain if rng.random() < 0.3
            ]
        },
    )


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=5_000))
def test_entailed_inclusions_hold_in_models_of_the_axioms(seed):
    rng = random.Random(seed)
    i = _random_interpretation(rng)
    sig = Signature(frozenset({"A", "B"}), frozenset({"r"}))
    memo: dict = {}
    valid = []
    for _ in range(6):
        lhs = canonicalize(random_concept(rng, sig, 2))
        rhs = canonicalize(random_concept(rng, sig, 2))
        if semantic_extension(lhs, i, memo) <= semantic_extension(rhs, i, memo):
            valid.append(ci(lhs, rhs))
    tbox = frozenset(valid)
    probe_lhs = canonicalize(random_concept(rng, sig, 2))
    probe_rhs = canonicalize(random_concept(rng, sig, 2))
    if entails(tbox, ci(probe_lhs, probe_rhs)):
        # i is a model of the axioms, so the conclusion must hold in it.
        assert semantic_extension(probe_lhs, i, memo) <= (
            semantic_extension(probe_rhs, i, memo)
        )


def _all_interpretations_up_to_two_elements():
    for n in (1, 2):
        domain = [f"e{k}" for k in range(n)]
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(domain, k) for k in range(n + 1)
            )
        )
        pairs = [(x, y) for x in domain for y in domain]
        pair_sets = list(
            itertools.chain.from_iterable(
                itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
            )
        )
        for ext_a in subsets:
            for ext_b in subsets:
                for ext_r in pair_sets:
                    yield make_interpretation(
                        domain, {"A": ext_a, "B": ext_b}, {"r": ext_r}
                    )


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=1_000))
def test_entailment_admits_no_tiny_countermodels(seed):
    rng = random.Random(seed)
    sig = Signature(frozenset({"A", "B"}), frozenset({"r"}))
    axioms = frozenset(
        ci(
            canonicalize(random_concept(rng, sig, 1)),
            canonicalize(random_concept(rng, sig, 1)),
        )
        for _ in range(2)
    )
    lhs = canonicalize(random_concept(rng, sig, 1))
    rhs = canonicalize(random_concept(rng, sig, 1))
    if not entails(axioms, ci(lhs, rhs)):
        return
    memo_cache: dict = {}
    for i in _all_interpretations_up_to_two_elements():
        memo: dict = {}
        if all(
            semantic_extension(ax.lhs, i, memo)
            <= semantic_extension(ax.rhs, i, memo)
            for ax in axioms
        ):
            assert semantic_extension(lhs, i, memo) <= (
                semantic_extension(rhs, i, memo)
            )
