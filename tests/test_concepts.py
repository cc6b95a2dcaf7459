"""Concept AST, canonical form, parsing, rendering, and validation."""

import copy
import gc
import os
import pathlib
import pickle
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import ciforge
import ciforge.concepts as concepts_module
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
    make_interpretation,
    parse_concept,
    render_concept,
    role_depth,
)
from ciforge.errors import ConceptSyntaxError, ValidationError
from ciforge.simulation import semantic_extension
from ciforge.storage import interpretation_from_document

from conftest import concepts, interpretations
from oracles import exists_chain, is_canonical, node_count, signature_of


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


# Atom names that sort around the keyword `some`, the role names and the
# punctuation of the text, and names of 63 to 69 characters.  Role names are
# prefixes of each other and of atom names.
_ORDER_NAMES = (
    "A", "B", "C", "Z", "_", "a", "r", "r_", "ro", "rob", "s", "so", "som",
    "soma", "somZ", "some_", "somea", "somf", "sp", "t", "x1", "x_1",
    "L" * 63, "L" * 64, "L" * 65, "L" * 68 + "A", "L" * 68 + "B",
)
_ORDER_ROLES = ("r", "r_", "ro", "s", "so")


def _ordered_and(parts):
    """Oracle conjunction: the distinct conjuncts sorted by full text."""
    flat = {d for part in parts for d in conjuncts_of(part)}
    if len(flat) == 1:
        return flat.pop()
    return And(tuple(sorted(flat, key=render_concept)))


def _random_canonical(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Atom(rng.choice(_ORDER_NAMES))
    if roll < 0.6:
        filler = TOP if rng.random() < 0.1 else _random_canonical(rng, depth - 1)
        return Exists(rng.choice(_ORDER_ROLES), filler)
    return _ordered_and([_random_canonical(rng, depth - 1) for _ in range(rng.randint(2, 4))])


def test_conjoin_orders_conjuncts_by_their_full_text(rng):
    # Siblings that share long texts: 20-deep chains that differ only in
    # the innermost atom or conjunction, Top among them, and fillers whose
    # conjunct list extends another's.
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    inner = [Atom(name) for name in _ORDER_NAMES] + [TOP]
    inner += [_ordered_and([a, Atom(name)]) for name in ("B", "s", "somea")]
    inner += [_ordered_and([a, b]), _ordered_and([a, b, c])]
    inner += [Exists(role, _ordered_and([a, b])) for role in _ORDER_ROLES]
    chains = [exists_chain(role, 20, d) for d in inner for role in ("r", "ro")]
    shallow = [Exists(role, d) for d in inner for role in _ORDER_ROLES]
    for _ in range(400):
        parts = [_random_canonical(rng, 3) for _ in range(rng.randint(1, 5))]
        parts += rng.sample(chains, rng.randint(0, 4))
        parts += rng.sample(shallow, rng.randint(0, 4))
        if rng.random() < 0.2:
            parts.append(TOP)
        rng.shuffle(parts)
        flat = {d for part in parts for d in conjuncts_of(part)}
        c = conjoin(parts)
        if len(flat) > 1:
            assert c.conjuncts == tuple(sorted(flat, key=render_concept))
        else:
            assert c is (flat.pop() if flat else TOP)


@given(st.lists(concepts(), min_size=2, max_size=8))
def test_order_keys_sort_as_texts_do(drawn):
    # A conjunction stands only as a filler in canonical form, so it is
    # compared under a restriction.
    found = {canonicalize(c) for c in drawn}
    found = {c for c in found if not isinstance(c, And)} | {Exists("r", c) for c in found}
    order = sorted(found, key=concepts_module._order)
    assert order == sorted(found, key=render_concept)


class _Rendered(Exception):
    pass


def _conjoin_unrendered(parts):
    """conjoin(parts), failing the test if it renders a concept.  The
    failure carries no traceback, whose arguments could have texts too long
    to write."""

    def refuse(*args):
        raise _Rendered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concepts_module, "render_concept", refuse)
        patch.setattr(concepts_module, "_render", refuse)
        try:
            return conjoin(parts)
        except _Rendered:
            pytest.fail("conjoin rendered a concept", pytrace=False)


def test_conjoin_never_renders():
    # A conjunction at every level of a deep chain.
    c = Atom("A")
    for _ in range(300):
        c = _conjoin_unrendered([Atom("A"), Exists("r", c)])
    # Siblings that tie for 20 levels, and for more levels than the
    # interpreter's recursion limit.
    for depth in (20, 3 * sys.getrecursionlimit()):
        long = [exists_chain("r", depth, Atom(name)) for name in ("A", "B")]
        c = _conjoin_unrendered([Atom("C"), *long[::-1]])
        assert c.conjuncts == (Atom("C"), *long)


def _shared_dag(levels, x):
    """`(some r.P) and (some s.P)` over P, `levels` times, over `A and x`:
    a DAG of 3·levels + 3 nodes whose text doubles with each level."""
    c = conjoin([Atom("A"), Atom(x)])
    for _ in range(levels):
        c = conjoin([Exists("r", c), Exists("s", c)])
    return c


def test_conjoin_sorts_shared_dags_without_reading_their_text():
    # The two conjuncts' texts have about 2^40 characters each, and differ
    # only at their innermost atoms.
    first, second = (Exists("r", _shared_dag(40, x)) for x in ("B", "C"))
    c = _conjoin_unrendered([second, first])
    assert c.conjuncts == (first, second)


# -- hash-consing -----------------------------------------------------------


def test_equal_concepts_built_apart_are_one_object():
    # Deeper than the recursion limit: neither building, hashing nor a dict
    # lookup compares the chains field by field.
    first = exists_chain("r", 5000, Atom("B"))
    second = exists_chain("r", 5000, Atom("B"))
    assert first is second
    assert {first: 1}[second] == 1
    assert And((Atom("A"), Exists("r", TOP))) is And((Atom("A"), Exists("r", TOP)))
    assert Atom("A") != Atom("B")


def test_repr_of_a_deep_concept_is_dataclass_style_text():
    chain = exists_chain("r", 5000, Atom("B"))
    text = repr(chain)
    assert text.startswith("Exists(role='r', filler=Exists(role='r', filler=")
    assert text.endswith("filler=Atom(name='B')" + ")" * 5000)
    assert len(text) == 5000 * len("Exists(role='r', filler=)") + len("Atom(name='B')")
    assert repr(And((Atom("A"), Exists("r", TOP)))) == (
        "And(conjuncts=(Atom(name='A'), Exists(role='r', filler=Top())))"
    )
    assert repr(And((Atom("A"),))) == "And(conjuncts=(Atom(name='A'),))"


def test_repr_of_a_shared_dag_writes_each_shared_node_once():
    # The tree text has about 2^40 nodes.  The 40 shared conjunctions are
    # written once each, tagged #k=, and as #k where they occur again.
    start = time.perf_counter()
    text = repr(Exists("r", _shared_dag(40, "B")))
    assert time.perf_counter() - start < 1.0
    assert len(text) < 30 * (3 * 40 + 4)
    assert "#40=" in text and "#41" not in text
    assert repr(Exists("r", _shared_dag(1, "B"))) == (
        "Exists(role='r', filler=And(conjuncts=("
        "Exists(role='r', filler=#1=And(conjuncts=(Atom(name='A'), Atom(name='B')))), "
        "Exists(role='s', filler=#1))))"
    )


def test_concept_functions_walk_any_depth():
    # Deeper than the recursion limit.  The first is shared: each level is
    # the filler of both conjuncts of the next, so its tree has 2**3000
    # leaves, and a walk must visit each distinct subconcept once.
    c = And((Atom("A"), Atom("B")))
    for _ in range(3000):
        c = And((Exists("r", c), Exists("s", c)))
    depth = role_depth(c)  # a failing assert must not show c's 2**3000 leaves
    assert depth == 3000
    same = canonicalize(c) is c
    assert same
    chain = exists_chain("r", 5000, And((Atom("A"), Atom("B"))))
    assert canonicalize(chain) is chain
    text = render_concept(chain)
    assert text == "some r.(" * 5000 + "A and B" + ")" * 5000
    assert parse_concept(text) is chain
    i = make_interpretation(["x"], {"A": ["x"], "B": ["x"]}, {"r": [("x", "x")]})
    assert semantic_extension(chain, i) == frozenset({"x"})


def test_top_and_bottom_are_singletons():
    assert type(TOP)() is TOP
    assert type(BOTTOM)() is BOTTOM


def test_copy_and_pickle_return_the_interned_object():
    c = And((Atom("A"), Exists("r", And((Atom("B"), Exists("s", TOP))))))
    for same in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert same is c
    assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM


def test_assigning_a_field_raises():
    c = Exists("r", Atom("A"))
    for name, value in (("role", "s"), ("filler", Atom("B")), ("_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    with pytest.raises(AttributeError):
        del Atom("A").name
    assert c.role == "r" and c.filler is Atom("A")


def test_a_dead_concept_leaves_no_table_entry():
    c = Exists("r_unused_elsewhere", And((Atom("Dead1"), Atom("Dead2"))))
    key = hash(c)
    conj_key = hash(c.filler)
    del c
    gc.collect()
    assert key not in concepts_module._EXISTS
    assert conj_key not in concepts_module._ANDS
    assert "Dead1" not in concepts_module._ATOMS


def test_concepts_with_one_hash_stay_apart(monkeypatch):
    # Every node built here hashes alike, so all but the first of a table
    # go to its overflow.
    monkeypatch.setattr(concepts_module, "hash", lambda fields: 7, raising=False)
    a, b = Atom("Collide1"), Atom("Collide2")
    built = [Exists("rc", a), Exists("rc", b), Exists("sc", a), And((a, b)), And((b, a))]
    assert len({id(c) for c in built}) == len(built)
    rebuilt = [Exists("rc", a), Exists("rc", b), Exists("sc", a), And((a, b)), And((b, a))]
    assert all(x is y for x, y in zip(built, rebuilt))
    assert built[0] != built[1] and built[1].filler is b
    assert Atom("Collide1") is a
    # Once the node under the shared key is gone, a new node takes the key
    # and the overflow keeps its own.
    del built[0], rebuilt[0]
    c = Exists("rc", Atom("Collide3"))
    assert Exists("rc", Atom("Collide3")) is c
    assert Exists("rc", b) is built[0]


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


@pytest.mark.parametrize("text, message, position", [
    ("SubClassOf and EquivalentTo", "'SubClassOf' cannot name a concept", 0),
    ("A and (B and EquivalentTo)", "'EquivalentTo' cannot name a concept", 13),
    ("some SubClassOf.A", "'SubClassOf' cannot name a role", 5),
])
def test_parse_rejects_axiom_keywords_as_names(text, message, position):
    with pytest.raises(ConceptSyntaxError, match=message) as exc:
        parse_concept(text)
    assert exc.value.position == position


def test_parse_memo_returns_one_object_per_text():
    memo = {}
    c = parse_concept("A and (some r.(B and C))", memo)
    d = parse_concept("some s.(some r.(B and C))", memo)
    assert d.filler is c.conjuncts[1]
    assert parse_concept("A and (some r.(B and C))", memo) is c
    assert parse_concept("some r.(B and C)", memo) is d.filler
    assert parse_concept("B", memo) is d.filler.filler.conjuncts[0]


def test_group_spacing_does_not_change_the_concept():
    assert parse_concept("(A and B)") == parse_concept("( A and B )")
    memo = {}
    c = parse_concept("some r.(A and B)", memo)
    assert parse_concept("some r.( A and B )", memo) == c


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


@pytest.mark.parametrize("concept_ext, role_ext, names", [
    # Non-empty on both sides.
    ({"x": ["a"]}, {"x": [("a", "a")]}, "['x']"),
    # An empty concept extension would leave mining to go ahead.
    ({"x": [], "y": ["a"], "A": ["a"]}, {"x": [("a", "a")], "y": [], "r": []}, "['x', 'y']"),
])
def test_interpretation_rejects_a_name_used_as_concept_and_role(concept_ext, role_ext, names):
    message = re.escape(f"names used as both concept and role: {names}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make_interpretation(["a"], concept_ext, role_ext)
    doc = {
        "domain": ["a"],
        "concepts": concept_ext,
        "roles": {name: [list(pair) for pair in pairs] for name, pairs in role_ext.items()},
    }
    with pytest.raises(ValidationError, match=f"^{message}$"):
        interpretation_from_document(doc)


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
    with pytest.raises(ValidationError, match="interpretation domain is not a collection: 'ab'"):
        make_interpretation("ab")
    with pytest.raises(ValidationError, match="concept extensions are not a mapping"):
        make_interpretation(["a"], [("A", ["a"])])


def test_interpretation_rejects_non_string_element_ids():
    with pytest.raises(ValidationError, match="element id 1 is not a string"):
        make_interpretation([1, 2], concept_ext={"A": [1]})
    # Mixed ids name the non-string one.
    with pytest.raises(ValidationError, match="element id 1 is not a string"):
        make_interpretation([1, "b"], role_ext={"r": [(1, "b")]})
    with pytest.raises(ValidationError, match=r"element id \('a',\) is not a string"):
        make_interpretation(["b", ("a",)])


@pytest.mark.parametrize("concept_ext, role_ext, message", [
    ({"A": 5}, {}, "concept 'A' is not a collection: 5"),
    ({"A": "a"}, {}, "concept 'A' is not a collection: 'a'"),
    ({"A": [["a"]]}, {}, r"concept 'A' mentions unknown element \['a'\]"),
    ({}, {"r": 5}, "role 'r' is not a collection: 5"),
    ({}, {"r": [5]}, "role 'r' pair is not a collection: 5"),
    ({}, {"r": [("a", "a", "a")]}, r"role 'r' pair \('a', 'a', 'a'\) is not two elements"),
    ({}, {"r": [("a", "b")]}, "role 'r' pair mentions unknown element 'b'"),
    ({}, {"r": ["aa"]}, "role 'r' pair is not a collection: 'aa'"),
    ({}, {"r": [(["a"], "a")]}, r"role 'r' pair mentions unknown element \['a'\]"),
])
def test_interpretation_names_the_key_of_a_bad_shape(concept_ext, role_ext, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make_interpretation(["a"], concept_ext, role_ext)


def test_active_signature_ignores_empty_extensions():
    i = make_interpretation(
        ["a"], concept_ext={"A": ["a"], "B": []}, role_ext={"r": [], "s": [("a", "a")]}
    )
    sig = active_signature(i)
    assert sig.concept_names == {"A"}
    assert sig.role_names == {"s"}
