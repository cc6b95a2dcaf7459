"""File formats and the command-line entry point."""

import codecs
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ciforge.cli import main
from ciforge.concepts import (
    And,
    Atom,
    ConceptInclusion,
    Exists,
    make_interpretation,
    parse_concept,
    role_depth,
)
from ciforge.errors import CiforgeError, ValidationError
from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.miner import build_base
from ciforge.storage import (
    interpretation_from_document,
    interpretation_to_document,
    load_interpretation,
    load_tbox,
    parse_inclusion,
    save_interpretation,
    save_tbox,
    tbox_lines,
)

from conftest import interpretations
from oracles import exists_chain, random_mineable_interpretation


# -- interpretation documents ------------------------------------------------


def test_interpretation_round_trip_through_files(tmp_path):
    for name in FIXTURE_NAMES:
        i = builtin_fixture(name)
        path = tmp_path / f"{name}.json"
        save_interpretation(i, path)
        assert load_interpretation(path) == i


@settings(max_examples=25)
@given(interpretations(), st.data())
def test_interpretation_round_trip_through_documents(i, data):
    assert interpretation_from_document(interpretation_to_document(i)) == i


def test_document_files_are_deterministic(tmp_path):
    i = builtin_fixture("fig3")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_interpretation(i, p1)
    save_interpretation(i, p2)
    assert p1.read_text() == p2.read_text()


def test_an_interpretation_file_may_begin_with_a_byte_order_mark(tmp_path):
    i = builtin_fixture("fig3")
    path = tmp_path / "fig3.json"
    save_interpretation(i, path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_interpretation(path) == i


def test_invalid_json_reports_the_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"domain": ["a"],\n  "concepts": }')
    with pytest.raises(CiforgeError) as err:
        load_interpretation(path)
    assert "line 2" in str(err.value)


def test_cli_mine_reports_json_too_deep_to_decode(tmp_path, capsys):
    # The JSON decoder recurses once per nested array.
    path = tmp_path / "deep.json"
    path.write_text('{"domain": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out_path = tmp_path / "out.owlish"
    assert main(["mine", "--input", str(path), "--output", str(out_path)]) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert f"{path}: JSON nests too deeply" in line
    assert not out_path.exists()


def test_missing_domain_is_rejected():
    with pytest.raises(ValidationError) as err:
        interpretation_from_document({"concepts": {}})
    assert "domain" in str(err.value)


def test_extensions_outside_the_domain_are_rejected():
    doc = {"domain": ["a"], "concepts": {"A": ["zz"]}}
    with pytest.raises(ValidationError):
        interpretation_from_document(doc)
    doc = {"domain": ["a"], "roles": {"r": [["a", "zz"]]}}
    with pytest.raises(ValidationError):
        interpretation_from_document(doc)


def test_non_object_document_is_rejected():
    with pytest.raises(ValidationError):
        interpretation_from_document(["a", "b"])


@pytest.mark.parametrize(
    "part, message",
    [
        ({"concepts": ["A"]}, "'concepts' must be an object"),
        ({"roles": [["a", "a"]]}, "'roles' must be an object"),
        ({"concepts": {"A": "ab"}}, "concept 'A' must map to a list of strings"),
        ({"concepts": {"A": ["a", 1]}}, "concept 'A' must map to a list of strings"),
        ({"roles": {"r": "ab"}}, "role 'r' must map to a list of pairs"),
        ({"roles": {"r": ["ab"]}}, "role 'r' has 'ab', not a list of two strings"),
        ({"roles": {"r": [["a", "b", "a"]]}}, "role 'r' has ['a', 'b', 'a']"),
    ],
    ids=["concepts-list", "roles-list", "concept-string", "concept-number",
         "role-string", "role-pair-string", "role-triple"],
)
def test_malformed_extensions_are_rejected_by_key(tmp_path, capsys, part, message):
    doc = {"domain": ["a", "b"], **part}
    with pytest.raises(ValidationError) as err:
        interpretation_from_document(doc)
    assert message in str(err.value)
    src = tmp_path / "i.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "base.owlish"
    assert main(["mine", "--input", str(src), "--output", str(out_path)]) == 1
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "part, name",
    [
        ({"concepts": {"and": ["a"]}}, "and"),
        ({"concepts": {"my concept": ["a", "b"]}}, "my concept"),
        ({"roles": {"Top": [["a", "b"]]}}, "Top"),
        ({"roles": {"r-1": [["a", "a"]]}}, "r-1"),
        ({"concepts": {"SubClassOf": ["a"]}}, "SubClassOf"),
        ({"roles": {"EquivalentTo": [["a", "b"]]}}, "EquivalentTo"),
    ],
    ids=["keyword-and", "space", "keyword-Top", "hyphen", "keyword-SubClassOf",
         "keyword-EquivalentTo"],
)
def test_names_the_tbox_syntax_cannot_read_are_rejected(tmp_path, capsys, part, name):
    # A base mined from such a name could not be loaded again.
    doc = {"domain": ["a", "b"], **part}
    with pytest.raises(ValidationError, match=repr(name)):
        interpretation_from_document(doc)
    with pytest.raises(ValidationError, match=repr(name)):
        make_interpretation(doc["domain"], doc.get("concepts"), doc.get("roles"))
    src = tmp_path / "i.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "base.owlish"
    assert main(["mine", "--input", str(src), "--output", str(out_path)]) == 1
    assert repr(name) in capsys.readouterr().err
    assert not out_path.exists()


# -- TBox text files ---------------------------------------------------------


def test_axiom_line_parsing():
    [only] = parse_inclusion("A SubClassOf some r.B")
    assert only == ConceptInclusion(Atom("A"), Exists("r", Atom("B")))
    both = parse_inclusion("A EquivalentTo B")
    assert set(both) == {
        ConceptInclusion(Atom("A"), Atom("B")),
        ConceptInclusion(Atom("B"), Atom("A")),
    }


def test_axiom_line_without_keyword_is_rejected():
    with pytest.raises(CiforgeError):
        parse_inclusion("A is-a B")


def test_axiom_keyword_may_be_set_off_by_any_whitespace(tmp_path):
    path = tmp_path / "t.owlish"
    path.write_text("A\tSubClassOf B\nC EquivalentTo\tsome r.D\n")
    assert load_tbox(path) == {
        ConceptInclusion(Atom("A"), Atom("B")),
        ConceptInclusion(Atom("C"), Exists("r", Atom("D"))),
        ConceptInclusion(Exists("r", Atom("D")), Atom("C")),
    }


@pytest.mark.parametrize(
    "line, message",
    [("A SubClassOf", "nothing on the right of 'SubClassOf'"),
     ("EquivalentTo B", "nothing on the left of 'EquivalentTo'")],
)
def test_axiom_line_with_an_empty_side_names_it(tmp_path, line, message):
    with pytest.raises(CiforgeError, match=message):
        parse_inclusion(line)
    path = tmp_path / "t.owlish"
    path.write_text(f"A SubClassOf B\n{line}\n")
    with pytest.raises(CiforgeError) as err:
        load_tbox(path)
    assert str(err.value).startswith(f"{path}:2: {message}")


def test_tbox_file_errors_carry_the_line_number(tmp_path):
    path = tmp_path / "t.owlish"
    path.write_text("A SubClassOf B\n\n# comment\nbroken line\n")
    with pytest.raises(CiforgeError) as err:
        load_tbox(path)
    assert ":4:" in str(err.value)


def test_tbox_file_with_a_too_deep_concept_names_the_line(tmp_path):
    # 600 levels load: more than a recursive parser reads under the default
    # recursion limit.
    path = tmp_path / "t.owlish"
    path.write_text("A SubClassOf B\n" + "some r." * 600 + "A SubClassOf B\n")
    deep = ConceptInclusion(exists_chain("r", 600, Atom("A")), Atom("B"))
    assert load_tbox(path) == {ConceptInclusion(Atom("A"), Atom("B")), deep}


def test_a_shared_group_builds_no_concept_too_deep_to_parse(tmp_path):
    # Line 2 nests line 1's group 400 levels deeper, 800 levels in all, and
    # shares it: the group is read once, and line 2 is the object its text
    # parses to alone.
    group = "some r." * 400 + "B"
    rhs = f"{'some s.' * 400}({group})"
    path = tmp_path / "t.owlish"
    path.write_text(f"A SubClassOf ({group})\nA SubClassOf {rhs}\n")
    second = parse_concept(rhs)
    assert second is exists_chain("s", 400, exists_chain("r", 400, Atom("B")))
    assert ConceptInclusion(Atom("A"), second) in load_tbox(path)


def test_a_base_of_nested_groups_round_trips(tmp_path):
    # 2,000 levels of some r.(A and (some r.(... , the shape of the deepest
    # line of the base mined from cycle_interpretation(4, 9).
    c = Atom("B")
    for _ in range(2000):
        c = And((Atom("A"), Exists("r", c)))
    tbox = frozenset({ConceptInclusion(Atom("A"), Exists("r", c))})
    path = tmp_path / "t.owlish"
    save_tbox(tbox, path)
    assert path.read_text().startswith("A SubClassOf some r.(A and (some r.(A and (")
    assert load_tbox(path) == tbox


def test_tbox_round_trip_merges_equivalences(tmp_path):
    tbox = frozenset(
        {
            ConceptInclusion(Atom("A"), Atom("B")),
            ConceptInclusion(Atom("B"), Atom("A")),
            ConceptInclusion(Atom("C"), Exists("r", Atom("A"))),
        }
    )
    lines = tbox_lines(tbox)
    assert lines == [
        "A EquivalentTo B",
        "C SubClassOf some r.A",
    ]
    path = tmp_path / "t.owlish"
    save_tbox(tbox, path)
    assert load_tbox(path) == tbox


def test_a_tbox_file_may_begin_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "t.owlish"
    path.write_bytes(codecs.BOM_UTF8 + b"A SubClassOf B\n")
    assert load_tbox(path) == frozenset({ConceptInclusion(Atom("A"), Atom("B"))})
    # Lines are still counted from the first: the mark holds no newline.
    path.write_bytes(codecs.BOM_UTF8 + b"A SubClassOf B\nB SubClassOf \xffC\n")
    with pytest.raises(CiforgeError, match=r":2: not UTF-8 text \(byte 0xff\)"):
        load_tbox(path)


def test_tbox_comments_and_blanks_are_skipped(tmp_path):
    path = tmp_path / "t.owlish"
    path.write_text("# header\n\nA SubClassOf B\n")
    assert load_tbox(path) == frozenset({ConceptInclusion(Atom("A"), Atom("B"))})


def test_mined_base_survives_a_file_round_trip(tmp_path):
    i = builtin_fixture("fig4ii")
    tbox, report = build_base(i)
    path = tmp_path / "base.owlish"
    save_tbox(tbox, path, report=report)
    text = path.read_text()
    assert text.startswith("# attributes:")
    assert load_tbox(path) == tbox


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "fig5"])
def test_load_tbox_inverts_save_tbox_on_fixtures(tmp_path, name):
    # fig5's base is a 941 MB file; the other fixtures cover its shapes.
    tbox, _ = build_base(builtin_fixture(name))
    path = tmp_path / "base.owlish"
    save_tbox(tbox, path)
    assert load_tbox(path) == tbox


def test_load_tbox_inverts_save_tbox_on_random_interpretations(tmp_path):
    path = tmp_path / "base.owlish"
    for seed in range(30):
        tbox, _ = build_base(random_mineable_interpretation(random.Random(seed)))
        save_tbox(tbox, path)
        assert load_tbox(path) == tbox, seed


def _subconcepts(tbox) -> list:
    """Every concept object reachable from the axioms, each object once."""
    seen = {}
    stack = [c for ci in tbox for c in (ci.lhs, ci.rhs)]
    while stack:
        c = stack.pop()
        if id(c) in seen:
            continue
        seen[id(c)] = c
        if isinstance(c, Exists):
            stack.append(c.filler)
        elif isinstance(c, And):
            stack.extend(c.conjuncts)
    return list(seen.values())


def test_loaded_base_holds_each_distinct_subconcept_once(tmp_path):
    tbox, _ = build_base(builtin_fixture("fig3"))
    path = tmp_path / "base.owlish"
    save_tbox(tbox, path)
    objects = _subconcepts(load_tbox(path))
    assert len(objects) == len(set(objects)) > 100


def test_two_loads_share_every_object(tmp_path):
    tbox, _ = build_base(builtin_fixture("fig4ii"))
    path = tmp_path / "base.owlish"
    save_tbox(tbox, path)
    first, second = load_tbox(path), load_tbox(path)
    assert first == second
    # Concepts are interned: both loads, and the mined base, hold the same
    # objects.
    ids = [{id(c) for c in _subconcepts(t)} for t in (tbox, first, second)]
    assert len(ids[0]) > 10 and ids[0] == ids[1] == ids[2]


@pytest.mark.parametrize("second, message", [
    ("A SubClassOf some r.(B and (some s.C)", "unexpected end of input (at position 24)"),
    ("A SubClassOf some r.(B and (some s.C)))", "trailing input ')' (at position 25)"),
    ("A SubClassOf (some r.(B and (some s.C)) D)", "expected ')' (at position 27)"),
    ("A SubClassOf some r.(B and (some s.C)) and", "unexpected end of input (at position 29)"),
    ("A SubClassOf some r.(B and (some s.C) D)", "expected ')' (at position 25)"),
    ("A SubClassOf some r.((B and (some s.C))", "unexpected end of input (at position 26)"),
])
def test_a_malformed_group_seen_before_keeps_its_error(tmp_path, second, message):
    # Line 1 parses the groups that line 2 repeats; the error on line 2 is the
    # one a parse without them gives.
    path = tmp_path / "t.owlish"
    path.write_text("A SubClassOf some r.(B and (some s.C))\n" + second + "\n")
    with pytest.raises(CiforgeError) as err:
        load_tbox(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_axiom_line_with_two_keywords_names_the_second():
    with pytest.raises(CiforgeError, match=r"'SubClassOf' \(at position 17\)"):
        parse_inclusion("A and SubClassOf SubClassOf B")
    with pytest.raises(CiforgeError, match=r"'EquivalentTo' \(at position 16\)"):
        parse_inclusion("A SubClassOf B  EquivalentTo C")


def test_tbox_lines_render_each_axiom_once(monkeypatch):
    import ciforge.concepts as concepts_module
    import ciforge.storage as storage_module

    original = concepts_module.render_concept
    outermost = []
    depth = [0]

    def counted(c, *args):
        if not depth[0]:
            outermost.append(c)
        depth[0] += 1
        try:
            return original(c, *args)
        finally:
            depth[0] -= 1

    tbox, _ = build_base(builtin_fixture("fig4ii"))
    expected = tbox_lines(tbox)
    monkeypatch.setattr(concepts_module, "render_concept", counted)
    monkeypatch.setattr(storage_module, "render_concept", counted)
    assert tbox_lines(tbox) == expected
    # Both sides of every line, SubClassOf or EquivalentTo, once each.
    assert len(outermost) == 2 * len(expected) < 2 * len(tbox)


# -- command-line interface ---------------------------------------------------


def test_cli_mvf(capsys):
    assert main(["mvf", "--fixture", "fig3", "--vertex", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_mvf_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    n = 1_200
    path = tmp_path / "chain.json"
    doc = {
        "domain": [f"v{k}" for k in range(n)],
        "roles": {"r": [[f"v{k}", f"v{k + 1}"] for k in range(n - 1)]},
    }
    path.write_text(json.dumps(doc))
    assert main(["mvf", "--input", str(path), "--vertex", "v0"]) == 0
    assert capsys.readouterr().out.strip() == str(n)


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.mark.parametrize("flag, cap", [
    ("--max-attrs", "-1"), ("--max-attrs", "0"), ("--product-cap", "0"),
])
def test_cli_mine_rejects_a_cap_below_one(tmp_path, capsys, flag, cap):
    out_path = tmp_path / "t.owlish"
    assert main(["mine", "--fixture", "fig7", "--output", str(out_path), flag, cap]) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"error: {flag} must be at least 1, got {cap}"
    assert not out_path.exists()


def test_cli_entails_rejects_a_too_deep_concept(tmp_path, capsys):
    # 5,000 levels: parsed, named and completed in loops.
    ci = "A SubClassOf " + "some r." * 5000 + "B"
    path = tmp_path / "t.owlish"
    path.write_text(ci + "\n")
    assert main(["entails", "--tbox", str(path), "--ci", ci]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_entails_a_deep_query_equal_to_a_tbox_axiom(tmp_path, capsys):
    # The query is parsed apart from the file, yet it is the file's axiom:
    # naming it compares nothing field by field.
    ci = "A SubClassOf " + "some r." * 350 + "B"
    path = tmp_path / "t.owlish"
    path.write_text(ci + "\n")
    assert main(["entails", "--tbox", str(path), "--ci", ci]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_entails_a_query_with_a_tab_before_its_keyword(tmp_path, capsys):
    path = tmp_path / "t.owlish"
    path.write_text("A SubClassOf B\n")
    assert main(["entails", "--tbox", str(path), "--ci", "A\tSubClassOf B"]) == 0
    assert capsys.readouterr().out.strip() == "true"


@pytest.mark.parametrize("command", ["mine", "entails", "check"])
def test_cli_reports_a_file_that_is_not_utf8(tmp_path, capsys, command):
    # 0xff is never UTF-8: first in the document, on line 2 of the TBox.
    doc = tmp_path / "bad.json"
    doc.write_bytes(b'\xff{"domain": ["a"]}')
    tbox = tmp_path / "bad.owlish"
    tbox.write_bytes(b"A SubClassOf B\nB SubClassOf \xffC\n")
    out_path = tmp_path / "out.owlish"
    args, where = {
        "mine": (["--input", str(doc), "--output", str(out_path)], f"{doc}:1:"),
        "entails": (["--tbox", str(tbox), "--ci", "A SubClassOf B"], f"{tbox}:2:"),
        "check": (["--fixture", "fig4i", "--tbox", str(tbox)], f"{tbox}:2:"),
    }[command]
    assert main([command, *args]) == 1
    assert f"{where} not UTF-8 text" in _one_error_line(capsys.readouterr().err)
    assert not out_path.exists()


def test_cli_entails_names_a_reserved_word_in_a_tbox(tmp_path, capsys):
    path = tmp_path / "kw.tbox"
    path.write_text("A SubClassOf B\nA and SubClassOf SubClassOf B\n")
    assert main(["entails", "--tbox", str(path), "--ci", "A SubClassOf B"]) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert f"{path}:2:" in line and "'SubClassOf'" in line


def test_cli_mmsc_rejects_a_too_deep_concept(capsys):
    # 1,500 levels are built, pruned and rendered in loops.
    args = ["mmsc", "--fixture", "fig4i", "--elements", "v1", "--depth", "1500"]
    assert main(args) == 0
    concept, depth = capsys.readouterr().out.splitlines()
    assert role_depth(parse_concept(concept)) == 1500
    assert depth == "depth: fixed 1500"


def test_cli_mvf_unknown_vertex(capsys):
    assert main(["mvf", "--fixture", "fig3", "--vertex", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_mmsc_adaptive(capsys):
    assert main(["mmsc", "--fixture", "fig3", "--elements", "x1,x2"]) == 0
    out = capsys.readouterr().out
    assert "City" in out
    assert "chosen=2" in out


def test_cli_mmsc_fixed_depth(capsys):
    assert main(["mmsc", "--fixture", "fig3", "--elements", "x1,x2", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "some government.Party" in out
    assert "fixed 1" in out


def test_cli_mmsc_unknown_element(capsys):
    assert main(["mmsc", "--fixture", "fig3", "--elements", "x1,bogus"]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [[], ["--depth", "2"]], ids=["adaptive", "fixed"])
def test_cli_mmsc_rejects_an_empty_element_list(capsys, depth):
    assert main(["mmsc", "--fixture", "fig3", "--elements", ",", *depth]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.splitlines() == ["error: --elements names no element: ','"]


def test_cli_mmsc_rejects_a_negative_depth(capsys):
    args = ["mmsc", "--fixture", "fig5", "--elements", "x1", "--depth", "-1"]
    assert main(args) == 1
    assert "unravelling depth must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [("--depth", "-1", "role depth must be at least 0, got -1"),
     ("--size-cap", "0", "size cap must be at least 1, got 0")],
)
def test_cli_check_rejects_an_empty_fragment(tmp_path, capsys, option, value, message):
    # Rejected before the TBox is read: no soundness verdict is printed, and
    # a TBox path that does not exist is never opened.
    path = tmp_path / "empty.owlish"
    path.write_text("")
    assert main(["check", "--fixture", "fig4i", "--tbox", str(path), option, value]) == 1
    out, err = capsys.readouterr()
    assert message in err and "sound:" not in out
    missing = str(tmp_path / "missing.owlish")
    assert main(["check", "--fixture", "fig4i", "--tbox", missing, option, value]) == 1
    out, err = capsys.readouterr()
    assert message in err and "sound:" not in out


def test_cli_mine_entails_check_pipeline(tmp_path, capsys):
    out_path = tmp_path / "base.owlish"
    assert main(
        [
            "mine",
            "--fixture",
            "fig4i",
            "--output",
            str(out_path),
            "--stats",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "attributes: 5" in out
    assert "wrote" in out

    assert main(
        ["entails", "--tbox", str(out_path), "--ci", "A SubClassOf some r.some r.Top"]
    ) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(
        ["entails", "--tbox", str(out_path), "--ci", "Top SubClassOf A"]
    ) == 0
    assert capsys.readouterr().out.strip() == "false"

    assert main(
        ["check", "--fixture", "fig4i", "--tbox", str(out_path), "--depth", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "sound: yes" in out
    assert "complete within fragment" in out


@pytest.mark.parametrize(
    "query, expected",
    [
        ("A EquivalentTo A and B", "true"),
        # A ⊑ B holds, B ⊑ A does not: both directions must be asked.
        ("A EquivalentTo B", "false"),
    ],
)
def test_cli_entails_equivalence_saturates_once(
    tmp_path, capsys, monkeypatch, query, expected
):
    from ciforge.reasoner import Reasoner

    path = tmp_path / "base.owlish"
    path.write_text("A SubClassOf B\nC SubClassOf some r.A\n")
    saturations = []
    original = Reasoner._saturate

    def counted(self):
        saturations.append(self)
        return original(self)

    monkeypatch.setattr(Reasoner, "_saturate", counted)
    assert main(["entails", "--tbox", str(path), "--ci", query]) == 0
    assert capsys.readouterr().out.strip() == expected
    assert len(saturations) == 1


def test_cli_check_enumerates_no_deeper_than_the_size_cap(tmp_path, capsys):
    # A concept of role depth k has at least k + 1 nodes, so depth 600 with
    # size cap 3 enumerates what depth 2 does.  The walks here are short, so
    # the completeness targets, which keep depth 600, stay small.
    doc = {
        "domain": ["a", "b", "c"],
        "concepts": {"A": ["a"], "B": ["b", "c"]},
        "roles": {"r": [["a", "b"], ["b", "c"]], "s": [["a", "c"]]},
    }
    src, base = tmp_path / "i.json", tmp_path / "base.owlish"
    src.write_text(json.dumps(doc))
    assert main(["mine", "--input", str(src), "--output", str(base)]) == 0
    capsys.readouterr()
    args = ["check", "--input", str(src), "--tbox", str(base), "--size-cap", "3"]
    assert main([*args, "--depth", "600"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == [
        "sound: yes",
        "complete within fragment (depth 600, size 3): yes (23 concepts checked)",
    ]


def test_cli_check_flags_an_unsound_incomplete_tbox(tmp_path, capsys):
    path = tmp_path / "bad.owlish"
    path.write_text("Top SubClassOf Bottom\n")
    assert main(["check", "--fixture", "fig4i", "--tbox", str(path)]) == 1
    assert "sound: NO" in capsys.readouterr().out

    empty = tmp_path / "empty.owlish"
    empty.write_text("")
    assert main(["check", "--fixture", "fig4i", "--tbox", str(empty)]) == 1
    out = capsys.readouterr().out
    assert "complete within fragment (depth 2, size 9): NO" in out
    # The count comes before the list, which stops at 20.
    assert "\n46 missing inclusions; the first 20:\n" in out
    assert out.count("  missing: ") == 20


def test_cli_mine_reads_interpretation_files(tmp_path, capsys):
    src = tmp_path / "i.json"
    json_doc = {
        "domain": ["a", "b"],
        "concepts": {"A": ["a"]},
        "roles": {"r": [["a", "b"]]},
    }
    src.write_text(json.dumps(json_doc))
    out_path = tmp_path / "base.owlish"
    assert main(["mine", "--input", str(src), "--output", str(out_path)]) == 0
    capsys.readouterr()
    from ciforge.reasoner import entails

    tbox = load_tbox(out_path)
    assert entails(
        tbox, ConceptInclusion(Atom("A"), parse_concept("some r.Top"))
    )


def test_cli_missing_file_is_a_clean_error(capsys, tmp_path):
    assert main(["entails", "--tbox", str(tmp_path / "nope.owlish"), "--ci", "A SubClassOf B"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors_exit_with_code_two():
    with pytest.raises(SystemExit) as exc:
        main(["mvf", "--fixture", "fig3"])  # missing --vertex
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--fixture", "nope", "--output", "x"])
    assert exc.value.code == 2


def test_cli_mine_has_no_mode_option(tmp_path, capsys):
    out_path = tmp_path / "base.owlish"
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--fixture", "fig7", "--mode", "naive", "--output", str(out_path)])
    assert exc.value.code != 0
    assert "--mode" in capsys.readouterr().err
    assert not out_path.exists()
