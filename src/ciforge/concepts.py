"""Concept language: AST, canonical form, parsing/rendering, interpretations.

Concepts are built from atoms, Top, Bottom, binary-free n-ary conjunction and
existential restrictions.  `parse_concept` and the miner produce the canonical
form of `canonicalize`, building conjunctions with `conjoin`; the reasoner
takes any concept as given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ConceptSyntaxError, ValidationError


# ---------------------------------------------------------------------------
# AST


class Concept:
    """Base class; concrete nodes are Top, Bottom, Atom, And, Exists."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Concept):
    __slots__ = ()

    def __hash__(self):
        # Field-less dataclasses all hash as (); a dictionary holding both
        # Top and Bottom would compare them on every lookup of either.
        return hash("Top")


@dataclass(frozen=True)
class Bottom(Concept):
    __slots__ = ()

    def __hash__(self):
        return hash("Bottom")


@dataclass(frozen=True)
class Atom(Concept):
    name: str


@dataclass(frozen=True)
class And(Concept):
    conjuncts: tuple

    def __hash__(self):
        # Cached: wide conjunctions are hashed many times as dict/set keys.
        # The class name, not the class object (hashed by its id), keeps
        # hashes equal across processes under one PYTHONHASHSEED.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(("And", self.conjuncts))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Exists(Concept):
    role: str
    filler: Concept

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(("Exists", self.role, self.filler))
            object.__setattr__(self, "_hash", h)
        return h


TOP = Top()
BOTTOM = Bottom()


def exists_chain(role: str, depth: int, filler: Concept) -> Concept:
    """Nested restriction ∃r^depth.C, written some r.some r. ... C."""
    c = filler
    for _ in range(depth):
        c = Exists(role, c)
    return c


# ---------------------------------------------------------------------------
# Rendering

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"Top", "Bottom", "and", "some"}
# Names a TBox file cannot hold: `parse_inclusion` splits a line at its first
# axiom keyword.
_RESERVED = _KEYWORDS | {"SubClassOf", "EquivalentTo"}


def render_concept(c: Concept) -> str:
    if isinstance(c, Top):
        return "Top"
    if isinstance(c, Bottom):
        return "Bottom"
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Exists):
        filler = render_concept(c.filler)
        if isinstance(c.filler, (And, Exists)):
            filler = f"({filler})"
        return f"some {c.role}.{filler}"
    if isinstance(c, And):
        parts = []
        for d in c.conjuncts:
            text = render_concept(d)
            if isinstance(d, (And, Exists)):
                text = f"({text})"
            parts.append(text)
        return " and ".join(parts)
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# Canonical form


def conjoin(parts: list) -> Concept:
    """Canonical conjunction of a list of canonical concepts: nested
    conjunctions flattened, Top dropped, Bottom absorbing, duplicates
    removed, the rest sorted by rendering; one conjunct stands for itself,
    none for Top."""
    # Return before the sort, whose key would render a lone conjunct in
    # full at every level of a deep chain.
    if len(parts) == 1:
        return parts[0]
    flat = set()
    for d in parts:
        if isinstance(d, And):
            flat.update(d.conjuncts)
        elif isinstance(d, Bottom):
            return BOTTOM
        elif not isinstance(d, Top):
            flat.add(d)
    if len(flat) < 2:
        return flat.pop() if flat else TOP
    return And(tuple(sorted(flat, key=render_concept)))


def canonicalize(c: Concept) -> Concept:
    """Unique canonical form: conjunctions as `conjoin` builds them, and
    Bottom absorbing through fillers.  A concept already in canonical form
    is returned as it is, so that a dictionary keyed by the result finds its
    argument by identity."""
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    if isinstance(c, Exists):
        filler = canonicalize(c.filler)
        if isinstance(filler, Bottom):
            return BOTTOM
        return c if filler is c.filler else Exists(c.role, filler)
    if isinstance(c, And):
        result = conjoin([canonicalize(d) for d in c.conjuncts])
        return c if result == c else result
    raise TypeError(f"not a concept: {c!r}")


def conjuncts_of(c: Concept) -> tuple:
    """Top-level conjuncts of a canonical concept (Top has none)."""
    if isinstance(c, And):
        return c.conjuncts
    if isinstance(c, Top):
        return ()
    return (c,)


def role_depth(c: Concept) -> int:
    if isinstance(c, (Top, Bottom, Atom)):
        return 0
    if isinstance(c, Exists):
        return 1 + role_depth(c.filler)
    return max(role_depth(d) for d in c.conjuncts)


def node_count(c: Concept) -> int:
    """Number of AST nodes; used as the size measure for enumeration caps."""
    if isinstance(c, (Top, Bottom, Atom)):
        return 1
    if isinstance(c, Exists):
        return 1 + node_count(c.filler)
    return 1 + sum(node_count(d) for d in c.conjuncts)


# ---------------------------------------------------------------------------
# Parsing

# Skips whitespace; a character outside any name or punctuation is an error.
_TOKEN_RE = re.compile(rf"(?P<name>{_NAME_RE.pattern})|(?P<punct>[().])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ConceptSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ConceptSyntaxError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect_punct(self, value):
        tok = self.next()
        if tok[0] != "punct" or tok[1] != value:
            raise ConceptSyntaxError(f"expected {value!r}", tok[2])

    def parse_conjunction(self) -> Concept:
        parts = [self.parse_unit()]
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "name" and tok[1] == "and":
                self.index += 1
                parts.append(self.parse_unit())
            else:
                break
        return conjoin(parts)

    def parse_unit(self) -> Concept:
        tok = self.next()
        kind, value, pos = tok
        if kind == "punct":
            if value == "(":
                inner = self.parse_conjunction()
                self.expect_punct(")")
                return inner
            raise ConceptSyntaxError(f"unexpected {value!r}", pos)
        if value == "Top":
            return TOP
        if value == "Bottom":
            return BOTTOM
        if value == "some":
            role_tok = self.next()
            if role_tok[0] != "name" or role_tok[1] in _KEYWORDS:
                raise ConceptSyntaxError("expected role name after 'some'", role_tok[2])
            self.expect_punct(".")
            # An unparenthesized filler is greedy: it extends to the end of
            # the current scope, so "some r.A and B" means some r.(A and B).
            filler = self.parse_conjunction()
            return BOTTOM if isinstance(filler, Bottom) else Exists(role_tok[1], filler)
        if value == "and":
            raise ConceptSyntaxError("unexpected 'and'", pos)
        return Atom(value)


def parse_concept(text: str) -> Concept:
    """Canonical concept of the text, built bottom-up as it is read."""
    parser = _Parser(text)
    try:
        c = parser.parse_conjunction()
    except RecursionError:
        pos = parser.tokens[parser.index - 1][2]
        raise ConceptSyntaxError("concept nests too deeply", pos) from None
    tok = parser.peek()
    if tok is not None:
        raise ConceptSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return c


# ---------------------------------------------------------------------------
# Signatures, inclusions, TBoxes


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset
    role_names: frozenset

    def __post_init__(self):
        overlap = self.concept_names & self.role_names
        if overlap:
            raise ValidationError(f"names used as both concept and role: {sorted(overlap)}")


@dataclass(frozen=True)
class ConceptInclusion:
    lhs: Concept
    rhs: Concept

    def __str__(self):
        return f"{render_concept(self.lhs)} SubClassOf {render_concept(self.rhs)}"


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class Interpretation:
    domain: frozenset
    concept_ext: Mapping[str, frozenset]
    role_ext: Mapping[str, frozenset]

    def __post_init__(self):
        if not self.domain:
            raise ValidationError("interpretation domain must be non-empty")
        for x in self.domain:
            if not isinstance(x, str):
                raise ValidationError(f"element id {x!r} is not a string")
        # Mined bases name these, and the TBox syntax must read them back.
        for kind, names in (("concept", self.concept_ext), ("role", self.role_ext)):
            for name in names:
                valid = isinstance(name, str) and _NAME_RE.fullmatch(name)
                if not valid or name in _RESERVED:
                    raise ValidationError(
                        f"{kind} name {name!r} is not an identifier other than "
                        "Top, Bottom, and, some, SubClassOf, EquivalentTo"
                    )
        for name, ext in self.concept_ext.items():
            bad = ext - self.domain
            if bad:
                raise ValidationError(
                    f"concept {name!r} mentions unknown element {sorted(bad)[0]!r}"
                )
        for name, pairs in self.role_ext.items():
            for src, tgt in pairs:
                if src not in self.domain:
                    raise ValidationError(f"role {name!r} mentions unknown element {src!r}")
                if tgt not in self.domain:
                    raise ValidationError(f"role {name!r} mentions unknown element {tgt!r}")


def make_interpretation(domain, concept_ext=None, role_ext=None) -> Interpretation:
    concept_ext = concept_ext or {}
    role_ext = role_ext or {}
    return Interpretation(
        domain=frozenset(domain),
        concept_ext={name: frozenset(ext) for name, ext in concept_ext.items()},
        role_ext={name: frozenset(tuple(p) for p in pairs) for name, pairs in role_ext.items()},
    )


def active_signature(i: Interpretation) -> Signature:
    """Names with non-empty extension in i."""
    return Signature(
        frozenset(name for name, ext in i.concept_ext.items() if ext),
        frozenset(name for name, pairs in i.role_ext.items() if pairs),
    )
