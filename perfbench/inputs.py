"""Seeded inputs for the benchmark, built without calling the code under test.

Every workload starts from a fixed structure (a fixture-like template) and the
seed relabels it: element, concept and role names are drawn from
`random.Random(seed)` with the template's name lengths.  Independent random
structures of the sizes used here differ by more than 50 % in mining time
(quartile spread over ten seeds), far wider than a regression bound can be, so
the seed varies names, and with them every sort and hash order, while the
amount of work stays put.  Entailment queries are drawn on the template with
a fixed generator and renamed the same way.

Interpretations are plain documents (`{"domain", "concepts", "roles"}`) until
a round turns them into `ciforge` objects; concepts for queries are built
from the `ciforge.concepts` AST classes.
"""

from __future__ import annotations

import random
import string

from ciforge.concepts import And, Atom, Bottom, ConceptInclusion, Exists, Top

_KEYWORDS = {"Top", "Bottom", "and", "some"}


# ---------------------------------------------------------------------------
# Structure templates


def cyclic_template(cycles) -> dict:
    """fig5 without its two self-loop elements: one B-hub per r-cycle with A
    on the hub's predecessor.  Every element lies on a cycle, and coprime
    cycle lengths make the adaptable depth grow multiplicatively."""
    domain, edges, a_ext, b_ext = [], [], [], []
    for k, length in enumerate(cycles):
        nodes = [f"h{k}"] + [f"c{k}_{j}" for j in range(1, length)]
        domain += nodes
        b_ext.append(nodes[0])
        a_ext.append(nodes[-1])
        edges += list(zip(nodes, nodes[1:] + nodes[:1]))
    return {"domain": domain, "concepts": {"A": a_ext, "B": b_ext}, "roles": {"r": edges}}


def acyclic_template(structure_seed: int, n: int, p: float = 0.25) -> dict:
    """Edges only go forward in element order (each with probability p per
    role), three concept names each holding with probability 1/2."""
    rng = random.Random(structure_seed)
    domain = [f"e{k}" for k in range(n)]
    concepts = {a: [x for x in domain if rng.random() < 0.5] for a in ("A", "B", "C")}
    roles = {
        r: [(domain[s], domain[t]) for s in range(n) for t in range(s + 1, n) if rng.random() < p]
        for r in ("r", "s")
    }
    return {"domain": domain, "concepts": concepts, "roles": roles}


def document_of(i) -> dict:
    """Plain document of a `ciforge` interpretation (used for fixture fig3)."""
    return {
        "domain": sorted(i.domain),
        "concepts": {a: sorted(ext) for a, ext in i.concept_ext.items()},
        "roles": {r: sorted(pairs) for r, pairs in i.role_ext.items()},
    }


# ---------------------------------------------------------------------------
# Seeded relabelling


def _fresh_name(rng, length, first_upper, taken):
    while True:
        first = rng.choice(string.ascii_uppercase if first_upper else string.ascii_lowercase)
        name = first + "".join(rng.choice(string.ascii_lowercase) for _ in range(length - 1))
        if name not in taken and name not in _KEYWORDS:
            taken.add(name)
            return name


def relabel(doc: dict, rng: random.Random):
    """Same structure, new names of the same lengths: concepts start upper
    case and roles lower case, so the two never clash.  New element names
    sort in the template's element order, so the miner visits element
    subsets in the same order and keeps the same representatives whatever
    the seed.  Returns the new document and the map of concept and role
    names, for `rename`."""
    taken: set = set()
    fresh = sorted(_fresh_name(rng, 5, False, taken) for _ in doc["domain"])
    elements = dict(zip(doc["domain"], fresh))
    names = {a: _fresh_name(rng, len(a), True, taken) for a in sorted(doc["concepts"])}
    names.update((r, _fresh_name(rng, len(r), False, taken)) for r in sorted(doc["roles"]))
    relabelled = {
        "domain": [elements[x] for x in doc["domain"]],
        "concepts": {names[a]: [elements[x] for x in ext] for a, ext in doc["concepts"].items()},
        "roles": {
            names[r]: [(elements[s], elements[t]) for s, t in pairs]
            for r, pairs in doc["roles"].items()
        },
    }
    return relabelled, names


def rename(c, names: dict):
    """Concept c with its concept and role names mapped through `names`."""
    if isinstance(c, Atom):
        return Atom(names[c.name])
    if isinstance(c, Exists):
        return Exists(names[c.role], rename(c.filler, names))
    if isinstance(c, And):
        return And(tuple(rename(d, names) for d in c.conjuncts))
    return c


# ---------------------------------------------------------------------------
# Independent semantics and entailment queries


def extension(c, doc: dict, memo: dict) -> frozenset:
    """C^I evaluated straight from the semantics over a plain document."""
    hit = memo.get(c)
    if hit is not None:
        return hit
    if isinstance(c, Top):
        result = frozenset(doc["domain"])
    elif isinstance(c, Bottom):
        result = frozenset()
    elif isinstance(c, Atom):
        result = frozenset(doc["concepts"].get(c.name, ()))
    elif isinstance(c, And):
        result = frozenset(doc["domain"])
        for d in c.conjuncts:
            result &= extension(d, doc, memo)
    else:
        filler = extension(c.filler, doc, memo)
        result = frozenset(s for s, t in doc["roles"].get(c.role, ()) if t in filler)
    memo[c] = result
    return result


def _key(c) -> str:
    """Order- and duplicate-insensitive identity of a generated concept."""
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Exists):
        return f"{c.role}.({_key(c.filler)})"
    return "&(" + ",".join(sorted({_key(d) for d in c.conjuncts})) + ")"


def _random_concept(rng, atoms, roles, depth):
    parts = []
    for _ in range(rng.randint(1, 3)):
        if depth > 0 and rng.random() < 0.5:
            parts.append(Exists(rng.choice(roles), _random_concept(rng, atoms, roles, depth - 1)))
        else:
            parts.append(Atom(rng.choice(atoms)))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def valid(ci, doc: dict, memo: dict) -> bool:
    """Whether the inclusion holds in the interpretation."""
    return extension(ci.lhs, doc, memo) <= extension(ci.rhs, doc, memo)


def entailment_queries(doc: dict, rng: random.Random, count: int, depth: int = 2):
    """`count` inclusions with pairwise distinct right-hand sides, alternating
    valid and invalid ones in the interpretation, each with a non-empty
    left-hand side."""
    atoms = sorted(a for a, ext in doc["concepts"].items() if ext)
    roles = sorted(r for r, pairs in doc["roles"].items() if pairs)
    memo: dict = {}
    pool = {}
    for _ in range(4000):
        c = _random_concept(rng, atoms, roles, depth)
        pool.setdefault(_key(c), c)
    candidates = [pool[k] for k in sorted(pool)]
    lhs_pool = [c for c in candidates if extension(c, doc, memo)]
    used: set = set()
    queries = []
    for _ in range(100 * count):
        if len(queries) == count:
            break
        want_valid = len(queries) % 2 == 0
        ci = ConceptInclusion(rng.choice(lhs_pool), rng.choice(candidates))
        if _key(ci.rhs) in used or _key(ci.rhs) == _key(ci.lhs):
            continue
        if valid(ci, doc, memo) != want_valid:
            continue
        used.add(_key(ci.rhs))
        queries.append(ci)
    if len(queries) < count:
        raise RuntimeError(f"only {len(queries)} of {count} queries could be generated")
    return queries


# ---------------------------------------------------------------------------
# Size of a base in the TBox file format


def render_length(c, memo: dict) -> int:
    """len(render_concept(c)), memoized by node identity so shared subterms
    of the concept DAG are measured once."""
    key = id(c)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(c, Top):
        n = 3
    elif isinstance(c, Bottom):
        n = 6
    elif isinstance(c, Atom):
        n = len(c.name.encode())
    elif isinstance(c, Exists):
        # "some " + role + "." + filler, composite fillers parenthesized
        n = 6 + len(c.role.encode()) + render_length(c.filler, memo)
        n += 2 if isinstance(c.filler, (And, Exists)) else 0
    else:
        n = 5 * (len(c.conjuncts) - 1)  # " and " separators
        for d in c.conjuncts:
            n += render_length(d, memo) + (2 if isinstance(d, (And, Exists)) else 0)
    memo[key] = n
    return n


def base_bytes(tbox) -> int:
    """Bytes of the axiom lines `tbox_lines` would write: mutual inclusion
    pairs merge into one `C EquivalentTo D` line, the rest are
    `C SubClassOf D`; every line ends in a newline."""
    memo: dict = {}
    single = 0
    paired_twice = 0
    for ci in tbox:
        size = render_length(ci.lhs, memo) + render_length(ci.rhs, memo)
        reverse = ConceptInclusion(ci.rhs, ci.lhs)
        if reverse != ci and reverse in tbox:
            paired_twice += size + len(" EquivalentTo \n")
        else:
            single += size + len(" SubClassOf \n")
    return single + paired_twice // 2
