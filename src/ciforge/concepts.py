"""Concept language: AST, canonical form, parsing/rendering, interpretations.

Concepts are built from atoms, Top, Bottom, binary-free n-ary conjunction and
existential restrictions.  They are hash-consed: there is one object per
distinct concept, so equality is identity and a concept of any depth is
hashed and compared in constant time.  Every function of a concept's
structure runs on `bottom_up`, one loop over its distinct subconcepts, so no
depth is too deep.  `parse_concept` and the miner produce the canonical form
of `canonicalize`, building conjunctions with `conjoin`; the reasoner takes
any concept as given.
"""

from __future__ import annotations

import gc
import re
import weakref
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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
        """Dataclass-style text, written in pre-order from an explicit stack."""
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            todo = [f"{type(item).__name__}("]
            for k, field in enumerate(item._fields):
                value = getattr(item, field)
                todo.append(f"{', ' if k else ''}{field}=")
                if isinstance(value, tuple):  # conjuncts, written as a tuple
                    parts = [x for part in value for x in (", ", part)][1:]
                    todo += ["(", *parts, ",)" if len(value) == 1 else ")"]
                else:
                    todo.append(value if isinstance(value, Concept) else repr(value))
            stack += reversed([*todo, ")"])
        return "".join(pieces)


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


def bottom_up(c: Concept, build, memo=None):
    """build(d, values of d's children) for each distinct subconcept d of c,
    children (a conjunction's conjuncts, a restriction's filler) first, and
    c's value.  One loop over an explicit stack, so any depth is walked.
    Interning makes a distinct subconcept one object, built once and kept
    under its id (the root keeps every node alive, so no id is reused).  A
    conjunction or restriction in `memo` is not descended into, and each one
    built is entered in it; leaves are built once a walk."""
    kind = type(c)
    if kind is not And and kind is not Exists:
        return build(c, ())
    if memo is not None and (hit := memo.get(c)) is not None:
        return hit
    done = {}  # id of a node -> its value
    stack = [c]
    while stack:
        node = stack[-1]
        if id(node) in done:  # built already, under another parent
            stack.pop()
            continue
        kids = node.conjuncts if type(node) is And else (node.filler,)
        values = []
        for kid in kids:
            value = done.get(id(kid))
            if value is None:
                kind = type(kid)
                if kind is not And and kind is not Exists:
                    value = done[id(kid)] = build(kid, ())
                elif memo is not None and (value := memo.get(kid)) is not None:
                    done[id(kid)] = value
                else:  # built before the node is looked at again
                    stack.append(kid)
                    continue
            values.append(value)
        if len(values) == len(kids):
            stack.pop()
            value = done[id(node)] = build(node, values)
            if memo is not None:
                memo[node] = value
    return done[id(c)]


# ---------------------------------------------------------------------------
# Rendering

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"Top", "Bottom", "and", "some"}
# Names a TBox file cannot hold: `parse_inclusion` splits a line at its axiom
# keyword.
_AXIOM_KEYWORDS = {"SubClassOf", "EquivalentTo"}
_RESERVED = _KEYWORDS | _AXIOM_KEYWORDS


def render_concept(c: Concept, _memo=None) -> str:
    """Text of c.  A memo from concept to text, shared across calls, renders
    each distinct conjunction and restriction once."""
    return bottom_up(c, _render, _memo)


def _render(c: Concept, texts: list) -> str:
    if isinstance(c, Exists):
        filler = texts[0]
        if isinstance(c.filler, (And, Exists)):
            filler = f"({filler})"
        return f"some {c.role}.{filler}"
    if isinstance(c, And):
        return " and ".join(
            f"({text})" if isinstance(d, (And, Exists)) else text
            for d, text in zip(c.conjuncts, texts)
        )
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, (Top, Bottom)):
        return type(c).__name__
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# Canonical form


# Characters of a conjunct's text that `conjoin` sorts by.  Siblings almost
# always differ within them, so building a conjunction at every level of an
# n-deep concept costs O(n) characters, not the O(n²) of full texts.
_SORT_PREFIX = 64


def _text_prefix(c: Concept) -> str:
    """The first _SORT_PREFIX characters of c's text (all of it if shorter),
    written in pre-order from an explicit stack that stops once they are
    there."""
    pieces = []
    size = 0
    stack = [c]
    while stack and size < _SORT_PREFIX:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            piece = item
        elif kind is Exists:
            filler = item.filler
            if type(filler) is And or type(filler) is Exists:
                piece = f"some {item.role}.("
                stack += (")", filler)
            else:
                piece = f"some {item.role}."
                stack.append(filler)
        elif kind is And:
            todo = []
            for d in item.conjuncts:
                if todo:
                    todo.append(" and ")
                if type(d) is And or type(d) is Exists:
                    todo += ("(", d, ")")
                else:
                    todo.append(d)
            stack += reversed(todo)
            continue
        elif kind is Atom:
            piece = item.name
        elif kind is Top or kind is Bottom:
            piece = kind.__name__
        else:
            raise TypeError(f"not a concept: {item!r}")
        pieces.append(piece)
        size += len(piece)
    return "".join(pieces)[:_SORT_PREFIX]


def conjoin(parts: list) -> Concept:
    """Canonical conjunction of a list of canonical concepts: nested
    conjunctions flattened, Top dropped, Bottom absorbing, duplicates
    removed, the rest sorted by rendering; one conjunct stands for itself,
    none for Top.

    The sort reads the first _SORT_PREFIX characters of each text.  Prefixes
    that differ order their texts the same way, so only conjuncts whose
    prefixes tie are rendered in full, and the order is that of the full
    texts."""
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
    key = {d: _text_prefix(d) for d in flat}
    if len(set(key.values())) < len(key):
        ties = Counter(key.values())
        key = {d: (p, render_concept(d) if ties[p] > 1 else "") for d, p in key.items()}
    return And(tuple(sorted(flat, key=key.__getitem__)))


def canonicalize(c: Concept) -> Concept:
    """Unique canonical form: conjunctions as `conjoin` builds them, and
    Bottom absorbing through fillers.  Concepts are interned, so the result
    is the one object of that form, and a concept already in canonical form
    is returned as itself."""
    return bottom_up(c, _canonical)


def _canonical(c: Concept, parts: list) -> Concept:
    if isinstance(c, Exists):
        return BOTTOM if parts[0] is BOTTOM else Exists(c.role, parts[0])
    if isinstance(c, And):
        return conjoin(parts)
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    raise TypeError(f"not a concept: {c!r}")


def conjuncts_of(c: Concept) -> tuple:
    """Top-level conjuncts of a canonical concept (Top has none)."""
    if isinstance(c, And):
        return c.conjuncts
    if isinstance(c, Top):
        return ()
    return (c,)


def role_depth(c: Concept) -> int:
    return bottom_up(c, _role_depth)


def _role_depth(c: Concept, depths: list) -> int:
    if isinstance(c, Exists):
        return 1 + depths[0]
    return max(depths, default=0)


# ---------------------------------------------------------------------------
# Parsing

# Skips whitespace; a character outside any name or punctuation is an error.
_TOKEN_RE = re.compile(rf"(?P<name>{_NAME_RE.pattern})|(?P<punct>[().])|(?P<bad>\S)")


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], dict[int, int]]:
    """Tokens as (kind, value, position), ended by an "end" token at the end
    of the text, and the index of each '(' token's matching ')' token."""
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
    tokens.append(("end", "", len(text)))
    return tokens, closes


def _expected(token, message) -> ConceptSyntaxError:
    kind, _, pos = token
    return ConceptSyntaxError("unexpected end of input" if kind == "end" else message, pos)


def parse_concept(text: str, _memo=None) -> Concept:
    """Canonical concept of the text, built bottom-up as it is read, in one
    loop over the tokens.  A memo shared across calls, from text to concept,
    returns the same object for a text, or a parenthesized group's text, that
    parsed before: a group is a self-contained conjunction, so equal text
    means an equal concept."""
    if _memo is None:
        _memo = {}
    hit = _memo.get(text)
    if hit is not None:
        return hit
    tokens, closes = _tokenize(text)
    # The open scopes, innermost last, as (kind, conjuncts read so far, key):
    # the whole text, keyed by itself; a group, keyed by its text; and a
    # 'some' filler, keyed by its role.  A filler is greedy: it extends to
    # the end of the scope around it, so "some r.A and B" means some r.(A and B).
    scopes = [("text", [], text)]
    index = 0
    while True:
        # A unit is due.
        kind, value, pos = token = tokens[index]
        index += 1
        if value == "(":
            # The text up to the matching ')' is the group's key.  An
            # unclosed group has none: its parse fails, and says where.
            close = closes.get(index - 1)
            key = None if close is None else text[pos + 1:tokens[close][2]]
            unit = _memo.get(key)
            if unit is None:
                scopes.append(("group", [], key))
                continue
            index = close + 1
        elif kind != "name":
            raise _expected(token, f"unexpected {value!r}")
        elif value in ("Top", "Bottom"):
            unit = TOP if value == "Top" else BOTTOM
        elif value == "some":
            role_kind, role, role_pos = tokens[index]
            if role_kind != "name" or role in _KEYWORDS:
                raise _expected(tokens[index], "expected role name after 'some'")
            if role in _AXIOM_KEYWORDS:
                raise ConceptSyntaxError(f"reserved word {role!r} cannot name a role", role_pos)
            if tokens[index + 1][1] != ".":
                raise _expected(tokens[index + 1], "expected '.'")
            index += 2
            scopes.append(("some", [], role))
            continue
        elif value == "and":
            raise ConceptSyntaxError("unexpected 'and'", pos)
        elif value in _AXIOM_KEYWORDS:
            raise ConceptSyntaxError(f"reserved word {value!r} cannot name a concept", pos)
        else:
            unit = _memo.get(value)
            if unit is None:
                unit = _memo[value] = Atom(value)
        # The unit joins the innermost scope.  Unless 'and' follows, that
        # scope ends here, and its concept joins the scope around it.
        while tokens[index][1] != "and":
            scope, parts, key = scopes.pop()
            parts.append(unit)
            unit = conjoin(parts)
            if scope == "some":
                unit = BOTTOM if unit is BOTTOM else Exists(key, unit)
            elif scope == "group":
                if tokens[index][1] != ")":
                    raise _expected(tokens[index], "expected ')'")
                index += 1
                _memo[key] = unit
            elif tokens[index][0] != "end":
                raise ConceptSyntaxError(f"trailing input {tokens[index][1]!r}", tokens[index][2])
            else:
                _memo[text] = unit
                return unit
        scopes[-1][1].append(unit)
        index += 1


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


def check_fragment(depth: int, size_cap: int):
    """Rejects the bounds of an empty fragment, concepts of role depth at
    most `depth` and at most `size_cap` nodes, with a ValidationError: a
    negative depth or a size cap below 1."""
    if depth < 0:
        raise ValidationError(f"role depth must be at least 0, got {depth}")
    if size_cap < 1:
        raise ValidationError(f"size cap must be at least 1, got {size_cap}")


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class Interpretation:
    domain: frozenset
    concept_ext: Mapping[str, frozenset]
    role_ext: Mapping[str, frozenset]

    def __post_init__(self):
        # Any collections will do: each is checked, then frozen.
        domain = _items(self.domain, "interpretation domain")
        if not domain:
            raise ValidationError("interpretation domain must be non-empty")
        for x in domain:
            if not isinstance(x, str):
                raise ValidationError(f"element id {x!r} is not a string")
        domain = frozenset(domain)
        # Mined bases name these, and the TBox syntax must read them back.
        for kind, names in (("concept", self.concept_ext), ("role", self.role_ext)):
            if not isinstance(names, Mapping):
                raise ValidationError(f"{kind} extensions are not a mapping: {names!r}")
            for name in names:
                valid = isinstance(name, str) and _NAME_RE.fullmatch(name)
                if not valid or name in _RESERVED:
                    raise ValidationError(
                        f"{kind} name {name!r} is not an identifier other than "
                        "Top, Bottom, and, some, SubClassOf, EquivalentTo"
                    )
        # A name is a concept or a role, even where its extension is empty.
        both = sorted(set(self.concept_ext) & set(self.role_ext))
        if both:
            raise ValidationError(f"names used as both concept and role: {both}")
        concept_ext = {
            name: frozenset(_items(ext, f"concept {name!r}", domain))
            for name, ext in self.concept_ext.items()
        }
        role_ext = {}
        for name, pairs in self.role_ext.items():
            what = f"role {name!r}"
            pairs = [_items(pair, f"{what} pair", domain) for pair in _items(pairs, what)]
            for pair in pairs:
                if len(pair) != 2:
                    raise ValidationError(f"{what} pair {pair!r} is not two elements")
            role_ext[name] = frozenset(pairs)
        _set(self, "domain", domain)
        _set(self, "concept_ext", concept_ext)
        _set(self, "role_ext", role_ext)


def _items(value, what: str, domain=None) -> tuple:
    """The items of `value`, a collection other than a string, each one an
    element of `domain` if it is given; a ValidationError names `what`
    otherwise."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValidationError(f"{what} is not a collection: {value!r}")
    items = tuple(value)
    bad = [x for x in items if domain is not None and not (isinstance(x, str) and x in domain)]
    if bad:
        raise ValidationError(f"{what} mentions unknown element {min(bad, key=str)!r}")
    return items


def make_interpretation(domain, concept_ext=None, role_ext=None) -> Interpretation:
    return Interpretation(domain, concept_ext or {}, role_ext or {})


def active_signature(i: Interpretation) -> Signature:
    """Names with non-empty extension in i."""
    return Signature(
        frozenset(name for name, ext in i.concept_ext.items() if ext),
        frozenset(name for name, pairs in i.role_ext.items() if pairs),
    )
