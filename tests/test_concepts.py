"""Concept AST, canonical form, parsing, rendering, and validation."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given

import ciforge
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
    conjoin,
    conjuncts_of,
    exists_chain,
    make_interpretation,
    node_count,
    parse_concept,
    render_concept,
    role_depth,
)
from ciforge.errors import ConceptSyntaxError, ValidationError
from ciforge.simulation import semantic_extension

from conftest import concepts, interpretations
from oracles import is_canonical, signature_of


# -- canonical form ---------------------------------------------------------


@given(concepts())
def test_canonicalize_is_idempotent(c):
    once = canonicalize(c)
    assert canonicalize(once) == once
    assert is_canonical(once)


@given(concepts())
def test_canonicalize_returns_a_canonical_concept_itself(c):
    # Dictionaries keyed by canonical concepts then find the argument by
    # identity, without a structural comparison.
    once = canonicalize(c)
    assert canonicalize(once) is once


def test_top_and_bottom_hash_apart():
    assert hash(TOP) != hash(BOTTOM)
    assert {TOP: 1, BOTTOM: 2}[BOTTOM] == 2


def test_concept_hashes_agree_across_processes_under_one_hash_seed():
    # Set and dict orders of concepts, and so the reasoner's atom numbering,
    # must not change from one run to the next.
    code = (
        "from ciforge.concepts import And, Atom, Exists\n"
        "print(hash(And((Atom('A'), Exists('r', Atom('B'))))))\n"
        "print(hash(Exists('r', Atom('A'))))\n"
    )
    src = str(pathlib.Path(ciforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 2


@given(concepts(), interpretations())
def test_canonicalize_preserves_extensions(c, i):
    assert semantic_extension(c, i) == semantic_extension(canonicalize(c), i)


def test_canonicalize_flattens_sorts_and_dedups():
    c = And((Atom("B"), And((Atom("A"), Atom("B"))), TOP))
    assert canonicalize(c) == And((Atom("A"), Atom("B")))


def test_bottom_absorbs_through_conjunction_and_fillers():
    assert canonicalize(And((Atom("A"), BOTTOM))) == BOTTOM
    assert canonicalize(Exists("r", BOTTOM)) == BOTTOM
    assert canonicalize(Exists("r", And((Atom("A"), BOTTOM)))) == BOTTOM


def test_empty_and_singleton_conjunctions_collapse():
    assert canonicalize(And((TOP, TOP))) == TOP
    assert canonicalize(And((Atom("A"),))) == Atom("A")


def test_conjoin_applies_the_canonical_conjunction_rule():
    a, b = Atom("A"), Atom("B")
    ra = Exists("r", a)
    assert conjoin([ra, TOP, b, And((a, b)), a]) == And((a, b, ra))
    assert conjoin([a, BOTTOM]) == BOTTOM
    assert conjoin([TOP, a, a]) is a
    assert conjoin([]) == TOP


# -- rendering and parsing --------------------------------------------------


@given(concepts())
def test_parse_inverts_render_on_canonical_concepts(c):
    c = canonicalize(c)
    assert parse_concept(render_concept(c)) == c


def test_parse_examples():
    assert parse_concept("City and (some partof.Region)") == And(
        (Atom("City"), Exists("partof", Atom("Region")))
    )
    assert parse_concept("Bottom") == BOTTOM
    assert parse_concept("Top") == TOP


def test_parse_builds_the_canonical_form():
    assert parse_concept("B and Top and (A and B)") == And((Atom("A"), Atom("B")))
    assert parse_concept("A and some r.(B and Bottom)") == BOTTOM
    assert parse_concept("(Top)") == TOP


def test_render_parenthesizes_composite_fillers():
    c = Exists("r", And((Atom("A"), Atom("B"))))
    assert render_concept(c) == "some r.(A and B)"
    nested = Exists("r", Exists("s", Atom("A")))
    assert render_concept(nested) == "some r.(some s.A)"


def test_unparenthesized_filler_is_greedy():
    assert parse_concept("some r.A and B") == Exists(
        "r", And((Atom("A"), Atom("B")))
    )
    assert parse_concept("(some r.A) and B") == And(
        (Atom("B"), Exists("r", Atom("A")))
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ConceptSyntaxError) as exc:
        parse_concept("A and ⊥")
    assert exc.value.position == 6
    with pytest.raises(ConceptSyntaxError):
        parse_concept("some some.A")  # keyword cannot be a role name
    with pytest.raises(ConceptSyntaxError):
        parse_concept("A B")  # trailing input
    with pytest.raises(ConceptSyntaxError):
        parse_concept("(A")  # unclosed paren
    with pytest.raises(ConceptSyntaxError):
        parse_concept("and A")
    # Whitespace of any kind before the offending token counts in its position.
    for text, position in [
        ("A and\t⊥", 6),
        ("A and\n\n  ⊥", 9),
        ("some r.\n  A\t and ⊥", 17),
        (" \u00a0⊥", 2),
        ("A and\u3000B ;", 8),
        ("\t\nA B", 4),  # trailing input
        ("A\n\t(B)", 3),  # trailing input
        ("(A\n ", 4),  # end of input
    ]:
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(text)
        assert exc.value.position == position, text


# -- measures ---------------------------------------------------------------


def test_role_depth_and_node_count():
    c = And((Atom("A"), Exists("r", Exists("s", Atom("B")))))
    assert role_depth(c) == 2
    assert node_count(c) == 5
    assert role_depth(TOP) == 0
    assert node_count(BOTTOM) == 1


def test_exists_chain_builds_nested_restrictions():
    assert exists_chain("r", 0, Atom("A")) == Atom("A")
    assert exists_chain("r", 2, TOP) == Exists("r", Exists("r", TOP))
    assert role_depth(exists_chain("r", 7, TOP)) == 7


def test_conjuncts_of_canonical_concepts():
    assert conjuncts_of(TOP) == ()
    assert conjuncts_of(Atom("A")) == (Atom("A"),)
    c = canonicalize(And((Atom("A"), Exists("r", TOP))))
    assert len(conjuncts_of(c)) == 2


# -- signatures, inclusions, interpretations --------------------------------


def test_signature_rejects_shared_concept_and_role_names():
    with pytest.raises(ValidationError):
        Signature(frozenset({"x"}), frozenset({"x"}))


def test_signature_of_collects_atoms_and_roles():
    c = And((Atom("A"), Exists("r", Atom("B"))))
    sig = signature_of(c)
    assert sig.concept_names == {"A", "B"}
    assert sig.role_names == {"r"}


def test_inclusion_renders_as_axiom_line():
    ci = ConceptInclusion(Atom("A"), Exists("r", TOP))
    assert str(ci) == "A SubClassOf some r.Top"


def test_interpretation_validation():
    with pytest.raises(ValidationError):
        make_interpretation([])
    with pytest.raises(ValidationError):
        make_interpretation(["a"], concept_ext={"A": ["b"]})
    with pytest.raises(ValidationError):
        make_interpretation(["a"], role_ext={"r": [("a", "b")]})


def test_interpretation_rejects_non_string_element_ids():
    with pytest.raises(ValidationError, match="element id 1 is not a string"):
        make_interpretation([1, 2], concept_ext={"A": [1]})
    # Mixed ids name the non-string one.
    with pytest.raises(ValidationError, match="element id 1 is not a string"):
        make_interpretation([1, "b"], role_ext={"r": [(1, "b")]})
    with pytest.raises(ValidationError, match=r"element id \('a',\) is not a string"):
        make_interpretation(["b", ("a",)])


def test_active_signature_ignores_empty_extensions():
    i = make_interpretation(
        ["a"], concept_ext={"A": ["a"], "B": []}, role_ext={"r": [], "s": [("a", "a")]}
    )
    sig = active_signature(i)
    assert sig.concept_names == {"A"}
    assert sig.role_names == {"s"}
