"""Concept language: AST, canonical form, parsing/rendering, interpretations.

Concepts are built from atoms, Top, Bottom, binary-free n-ary conjunction and
existential restrictions.  They are hash-consed: there is one object per
distinct concept, so equality is identity and a concept of any depth is
hashed and compared in constant time.  `parse_concept` and the miner produce
the canonical form of `canonicalize`, building conjunctions with `conjoin`;
the reasoner takes any concept as given.
"""

from __future__ import annotations

import gc
import re
import sys
import weakref
from dataclasses import dataclass
from typing import Mapping

from .errors import ConceptSyntaxError, ValidationError


# ---------------------------------------------------------------------------
# AST
#
# Concepts are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
# Hash-Consing", ML 2006): a constructor looks its fields up in a table of the
# live nodes of its class and returns the node found, so there is one object
# per distinct concept and equality is identity.  Every node stores its hash,
# computed at construction from its fields and so from its children's stored
# hashes; nothing recurses, however deep the concept.  Atoms are keyed by
# name, other nodes by that hash, and a hit is checked by comparing fields,
# which are interned, by identity.  Entries are weak references, so a concept
# nothing else holds is freed; its dead entry stays until the table has
# doubled since its last sweep, or until the next full garbage collection.
# The tables take no lock: the library builds concepts on one thread.

_new = object.__new__
_set = object.__setattr__
_MIN_LIMIT = 1024  # entries a table holds before its first sweep
_sweeping = False


class _Table(dict):
    """Key -> weak reference to the live node with that key.  `overflow`
    maps the fields of a node whose key another live node holds, so it
    stays empty unless two distinct concepts hash alike."""

    __slots__ = ("limit", "overflow")

    def __init__(self):
        super().__init__()
        self.limit = _MIN_LIMIT
        self.overflow = {}

    def add(self, key, node):
        """Enters a new node under a key that no live node holds."""
        self[key] = weakref.ref(node)
        if len(self) >= self.limit:
            self.sweep()
        return node

    def elsewhere(self, cls, key, fields, taken):
        """The node with these fields when the entry under its key, its
        hash, does not hold it: the one in `overflow`, or a new one, entered
        in `overflow` if a live node takes the key and under it otherwise."""
        ref = self.overflow.get(fields)
        node = None if ref is None else ref()
        if node is None:
            node = _new(cls)
            for name, value in zip(cls._fields, fields):
                _set(node, name, value)
            _set(node, "_hash", key)
            if taken:
                self.overflow[fields] = weakref.ref(node)
            else:
                self.add(key, node)
        return node

    def sweep(self):
        """Drops the entries of dead nodes; the next sweep comes when the
        table has doubled."""
        global _sweeping
        _sweeping = True
        try:
            for table in (self, self.overflow):
                for key in [key for key, ref in table.items() if ref() is None]:
                    del table[key]
            self.limit = max(_MIN_LIMIT, 2 * len(self))
        finally:
            _sweeping = False


_ATOMS = _Table()
_ANDS = _Table()
_EXISTS = _Table()


def _sweep_after_full_collection(phase, info):
    if phase == "stop" and info["generation"] == 2 and not _sweeping:
        for table in (_ATOMS, _ANDS, _EXISTS):
            table.sweep()


gc.callbacks.append(_sweep_after_full_collection)


class Concept:
    """Base class; concrete nodes are Top, Bottom, Atom, And, Exists.

    Nodes are immutable and interned: equal concepts are one object, and
    `==` is `is`.  The hash is stored; its formula, on class names and
    fields, gives every process the same hashes under one PYTHONHASHSEED.
    Pickling and copying rebuild a node through its constructor, which
    returns the interned one."""

    __slots__ = ()
    _fields: tuple = ()

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Top(Concept):
    __slots__ = ()
    _hash = hash("Top")

    def __new__(cls):
        return TOP


class Bottom(Concept):
    __slots__ = ()
    _hash = hash("Bottom")

    def __new__(cls):
        return BOTTOM


TOP = _new(Top)
BOTTOM = _new(Bottom)


class Atom(Concept):
    __slots__ = ("name", "_hash", "__weakref__")
    _fields = ("name",)

    def __new__(cls, name: str):
        ref = _ATOMS.get(name)
        node = None if ref is None else ref()
        if node is None:
            node = _new(cls)
            _set(node, "name", name)
            _set(node, "_hash", hash((name,)))
            _ATOMS.add(name, node)
        return node


class And(Concept):
    __slots__ = ("conjuncts", "_hash", "__weakref__")
    _fields = ("conjuncts",)

    def __new__(cls, conjuncts: tuple):
        h = hash(("And", conjuncts))
        ref = _ANDS.get(h)
        node = None if ref is None else ref()
        if node is not None and node.conjuncts == conjuncts:
            return node
        if node is not None or _ANDS.overflow:
            return _ANDS.elsewhere(cls, h, (conjuncts,), node is not None)
        node = _new(cls)
        _set_conjuncts(node, conjuncts)
        _set_and_hash(node, h)
        return _ANDS.add(h, node)


class Exists(Concept):
    __slots__ = ("role", "filler", "_hash", "__weakref__")
    _fields = ("role", "filler")

    def __new__(cls, role: str, filler: Concept):
        h = hash(("Exists", role, filler))
        ref = _EXISTS.get(h)
        node = None if ref is None else ref()
        if node is not None and node.filler is filler and node.role == role:
            return node
        if node is not None or _EXISTS.overflow:
            return _EXISTS.elsewhere(cls, h, (role, filler), node is not None)
        node = _new(cls)
        _set_role(node, role)
        _set_filler(node, filler)
        _set_exists_hash(node, h)
        return _EXISTS.add(h, node)


# Slot setters for the constructors, which the classes' own __setattr__
# refuses; a slot's setter is faster than object.__setattr__.
_set_conjuncts = And.conjuncts.__set__
_set_and_hash = And._hash.__set__
_set_role = Exists.role.__set__
_set_filler = Exists.filler.__set__
_set_exists_hash = Exists._hash.__set__


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
# Names a TBox file cannot hold: `parse_inclusion` splits a line at its axiom
# keyword.
_AXIOM_KEYWORDS = {"SubClassOf", "EquivalentTo"}
_RESERVED = _KEYWORDS | _AXIOM_KEYWORDS


def render_concept(c: Concept, _memo=None) -> str:
    """Text of c.  A memo from concept to text renders each distinct
    subconcept once; Top, Bottom and atoms return before it is touched."""
    if isinstance(c, Top):
        return "Top"
    if isinstance(c, Bottom):
        return "Bottom"
    if isinstance(c, Atom):
        return c.name
    if _memo is not None:
        hit = _memo.get(c)
        if hit is not None:
            return hit
    if isinstance(c, Exists):
        filler = render_concept(c.filler, _memo)
        if isinstance(c.filler, (And, Exists)):
            filler = f"({filler})"
        text = f"some {c.role}.{filler}"
    elif isinstance(c, And):
        parts = []
        for d in c.conjuncts:
            part = render_concept(d, _memo)
            if isinstance(d, (And, Exists)):
                part = f"({part})"
            parts.append(part)
        text = " and ".join(parts)
    else:
        raise TypeError(f"not a concept: {c!r}")
    if _memo is not None:
        _memo[c] = text
    return text


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
    Bottom absorbing through fillers.  Concepts are interned, so the result
    is the one object of that form, and a concept already in canonical form
    is returned as itself."""
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    if isinstance(c, Exists):
        filler = canonicalize(c.filler)
        return BOTTOM if isinstance(filler, Bottom) else Exists(c.role, filler)
    if isinstance(c, And):
        return conjoin([canonicalize(d) for d in c.conjuncts])
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


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], dict[int, int]]:
    """Tokens as (kind, value, position), and the index of each '(' token's
    matching ')' token."""
    tokens = []
    closes = {}
    opens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ConceptSyntaxError(f"unexpected character {m.group()!r}", m.start())
        value = m.group()
        if value == "(":
            opens.append(len(tokens))
        elif value == ")" and opens:
            closes[opens.pop()] = len(tokens)
        tokens.append((kind, value, m.start()))
    return tokens, closes


class _Parser:
    def __init__(self, text: str, memo: dict):
        self.text = text
        self.tokens, self.closes = _tokenize(text)
        self.index = 0
        # Concept text -> (canonical concept, nesting), for texts that
        # parsed: whole texts, parenthesized groups and names.  A group is a
        # self-contained conjunction, so equal text means an equal concept,
        # and a hit is the same object.  Nesting counts the scopes ('some'
        # fillers and groups) the text opens inside one another.
        self.memo = memo
        self.depth = 0  # scopes open at the current token
        self.reach = 0  # deepest scope opened so far
        # Deeper than this a group is parsed again, not shared, so that a
        # file builds no concept deeper than one parse can read.  A parse
        # takes two frames per scope (rendering sort keys at most one more
        # per scope below), which leaves a third of the limit to its caller.
        self.max_shared = sys.getrecursionlimit() // 3

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
            if value != "(":
                raise ConceptSyntaxError(f"unexpected {value!r}", pos)
            # The text up to the matching ')' is the group's key.  An
            # unclosed group has none: its parse fails, and says where.
            close = self.closes.get(self.index - 1)
            key = None if close is None else self.text[pos + 1:self.tokens[close][2]]
            hit = self.memo.get(key)
            if hit is not None and self.depth + hit[1] <= self.max_shared:
                self.index = close + 1
                self.reach = max(self.reach, self.depth + hit[1])
                return hit[0]
            outer_reach = self.reach
            self.depth += 1
            self.reach = self.depth
            inner = self.parse_conjunction()
            self.expect_punct(")")
            # A group that parses ends at its own ')', so key is its text.
            self.memo[key] = (inner, self.reach - self.depth + 1)
            self.depth -= 1
            self.reach = max(outer_reach, self.reach)
            return inner
        if value == "Top":
            return TOP
        if value == "Bottom":
            return BOTTOM
        if value == "some":
            role_tok = self.next()
            if role_tok[0] != "name" or role_tok[1] in _KEYWORDS:
                raise ConceptSyntaxError("expected role name after 'some'", role_tok[2])
            if role_tok[1] in _AXIOM_KEYWORDS:
                raise ConceptSyntaxError(
                    f"reserved word {role_tok[1]!r} cannot name a role", role_tok[2]
                )
            self.expect_punct(".")
            # An unparenthesized filler is greedy: it extends to the end of
            # the current scope, so "some r.A and B" means some r.(A and B).
            self.depth += 1
            self.reach = max(self.reach, self.depth)
            filler = self.parse_conjunction()
            self.depth -= 1
            return BOTTOM if isinstance(filler, Bottom) else Exists(role_tok[1], filler)
        if value == "and":
            raise ConceptSyntaxError("unexpected 'and'", pos)
        if value in _AXIOM_KEYWORDS:
            raise ConceptSyntaxError(f"reserved word {value!r} cannot name a concept", pos)
        hit = self.memo.get(value)
        if hit is None:
            hit = self.memo[value] = (Atom(value), 0)
        return hit[0]


def parse_concept(text: str, _memo=None) -> Concept:
    """Canonical concept of the text, built bottom-up as it is read.  A memo
    shared across calls (text -> (concept, nesting)) returns the same object
    for a text, or a parenthesized group's text, that parsed before."""
    if _memo is None:
        _memo = {}
    hit = _memo.get(text)
    if hit is not None:
        return hit[0]
    parser = _Parser(text, _memo)
    try:
        c = parser.parse_conjunction()
    except RecursionError:
        pos = parser.tokens[parser.index - 1][2]
        raise ConceptSyntaxError("concept nests too deeply", pos) from None
    tok = parser.peek()
    if tok is not None:
        raise ConceptSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    _memo[text] = (c, parser.reach)
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
