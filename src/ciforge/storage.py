"""File formats: interpretation JSON documents and TBox text files."""

from __future__ import annotations

import json
import re

from .concepts import (
    ConceptInclusion,
    Interpretation,
    make_interpretation,
    parse_concept,
    render_concept,
)
from .errors import CiforgeError, ValidationError


def _read_text(path) -> str:
    """The whole file as UTF-8 text, less a leading byte-order mark; a byte
    sequence that is not UTF-8 is a CiforgeError naming the file and the
    line it is on."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            # read() decodes the file in one piece, so exc.object is all of
            # it after any byte-order mark, which holds no newline.
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise CiforgeError(
                f"{path}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
            ) from None


def load_interpretation(path) -> Interpretation:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CiforgeError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError:
        # The decoder recurses once per nested array or object.
        raise CiforgeError(f"{path}: JSON nests too deeply to read") from None
    return interpretation_from_document(doc, origin=str(path))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def interpretation_from_document(doc, origin="<document>") -> Interpretation:
    """Reads {"domain": [...], "concepts": {name: [...]}, "roles": {name:
    [[src, tgt], ...]}}; any other shape is a ValidationError naming the
    offending key."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{origin}: expected an object at top level")
    try:
        domain = doc["domain"]
    except KeyError:
        raise ValidationError(f"{origin}: missing 'domain'") from None
    concepts = doc.get("concepts", {})
    roles = doc.get("roles", {})
    if not _strings(domain):
        raise ValidationError(f"{origin}: 'domain' must be a list of strings")
    for key, value in (("concepts", concepts), ("roles", roles)):
        if not isinstance(value, dict):
            raise ValidationError(f"{origin}: {key!r} must be an object")
    for name, ext in concepts.items():
        if not _strings(ext):
            raise ValidationError(
                f"{origin}: concept {name!r} must map to a list of strings"
            )
    for name, pairs in roles.items():
        if not isinstance(pairs, list):
            raise ValidationError(f"{origin}: role {name!r} must map to a list of pairs")
        for pair in pairs:
            if not (_strings(pair) and len(pair) == 2):
                raise ValidationError(
                    f"{origin}: role {name!r} has {pair!r}, not a list of two strings"
                )
    return make_interpretation(domain, concepts, roles)


def interpretation_to_document(i: Interpretation) -> dict:
    return {
        "domain": sorted(i.domain),
        "concepts": {name: sorted(ext) for name, ext in sorted(i.concept_ext.items())},
        "roles": {
            name: sorted([list(p) for p in pairs])
            for name, pairs in sorted(i.role_ext.items())
        },
    }


def save_interpretation(i: Interpretation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(interpretation_to_document(i), fh, indent=2, sort_keys=True)
        fh.write("\n")


_AXIOM_KEYWORD_RE = re.compile(r"\b(?:SubClassOf|EquivalentTo)\b")


def parse_inclusion(line: str, _memo=None) -> list[ConceptInclusion]:
    """One axiom line: `C SubClassOf D` or `C EquivalentTo D` (the latter
    expands to both inclusions).  The keyword is found as a whole word,
    whatever whitespace sets it off.  `_memo` is `parse_concept`'s."""
    keywords = list(_AXIOM_KEYWORD_RE.finditer(line))
    if not keywords:
        raise CiforgeError(f"axiom line needs SubClassOf or EquivalentTo: {line!r}")
    if len(keywords) > 1:
        second = keywords[1]
        raise CiforgeError(
            f"second axiom keyword {second.group()!r} (at position {second.start()})"
        )
    [keyword] = keywords
    sides = line[: keyword.start()].strip(), line[keyword.end() :].strip()
    for side, text in zip(("left", "right"), sides):
        if not text:
            raise CiforgeError(f"nothing on the {side} of {keyword.group()!r}: {line!r}")
    lhs, rhs = (parse_concept(text, _memo) for text in sides)
    if keyword.group() == "SubClassOf":
        return [ConceptInclusion(lhs, rhs)]
    return [ConceptInclusion(lhs, rhs), ConceptInclusion(rhs, lhs)]


def load_tbox(path) -> frozenset:
    """The axioms of a TBox file.  Each distinct concept text in the file is
    parsed once."""
    axioms = set()
    memo = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            axioms.update(parse_inclusion(line, memo))
        except CiforgeError as exc:
            raise CiforgeError(f"{path}:{lineno}: {exc}") from exc
    return frozenset(axioms)


def tbox_lines(tbox) -> list[str]:
    """Deterministic rendering; mutual inclusion pairs merge into a single
    EquivalentTo line."""
    axioms = set(tbox)
    lines = []
    memo = {}
    # The final sort fixes the order, so each axiom is rendered once, and
    # the memo renders each distinct subconcept once.
    for ci in list(axioms):
        if ci not in axioms:
            continue
        axioms.discard(ci)
        lhs = render_concept(ci.lhs, memo)
        rhs = render_concept(ci.rhs, memo)
        reverse = ConceptInclusion(ci.rhs, ci.lhs)
        if reverse in axioms:
            axioms.discard(reverse)
            first, second = sorted([lhs, rhs])
            lines.append(f"{first} EquivalentTo {second}")
        else:
            lines.append(f"{lhs} SubClassOf {rhs}")
    return sorted(lines)


def save_tbox(tbox, path, report=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if report is not None:
            for line in report.summary_lines():
                fh.write(f"# {line}\n")
        for line in tbox_lines(tbox):
            fh.write(line + "\n")
