"""File formats: interpretation JSON documents and TBox text files."""

from __future__ import annotations

import json

from .concepts import (
    ConceptInclusion,
    Interpretation,
    make_interpretation,
    parse_concept,
    render_concept,
)
from .errors import CiforgeError, ValidationError


def load_interpretation(path) -> Interpretation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CiforgeError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
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


def parse_inclusion(line: str) -> list[ConceptInclusion]:
    """One axiom line: `C SubClassOf D` or `C EquivalentTo D` (the latter
    expands to both inclusions)."""
    for keyword in (" SubClassOf ", " EquivalentTo "):
        if keyword in line:
            lhs_text, rhs_text = line.split(keyword, 1)
            lhs = parse_concept(lhs_text.strip())
            rhs = parse_concept(rhs_text.strip())
            if keyword == " SubClassOf ":
                return [ConceptInclusion(lhs, rhs)]
            return [ConceptInclusion(lhs, rhs), ConceptInclusion(rhs, lhs)]
    raise CiforgeError(f"axiom line needs SubClassOf or EquivalentTo: {line!r}")


def load_tbox(path) -> frozenset:
    axioms = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                axioms.update(parse_inclusion(line))
            except CiforgeError as exc:
                raise CiforgeError(f"{path}:{lineno}: {exc}") from exc
    return frozenset(axioms)


def tbox_lines(tbox) -> list[str]:
    """Deterministic rendering; mutual inclusion pairs merge into a single
    EquivalentTo line."""
    axioms = set(tbox)
    lines = []
    # The final sort fixes the order, so each axiom is rendered once.
    for ci in list(axioms):
        if ci not in axioms:
            continue
        axioms.discard(ci)
        reverse = ConceptInclusion(ci.rhs, ci.lhs)
        if reverse in axioms:
            axioms.discard(reverse)
            first, second = sorted(
                [render_concept(ci.lhs), render_concept(ci.rhs)]
            )
            lines.append(f"{first} EquivalentTo {second}")
        else:
            lines.append(str(ci))
    return sorted(lines)


def save_tbox(tbox, path, report=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if report is not None:
            for line in report.summary_lines():
                fh.write(f"# {line}\n")
        for line in tbox_lines(tbox):
            fh.write(line + "\n")
