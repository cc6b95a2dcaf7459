"""Mining a sound and complete TBox ("base") from a finite interpretation.

Attributes are ⊥, the active concept names, and one existential ∃r.mmsc(X)
per active role and non-empty X ⊆ Δ (deduplicated).  The closed attribute
sets of the induced formal context are enumerated with NextClosure (Ganter
1984); each one's conjunction is tied to the MMSC of its extension.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .concepts import (
    And,
    Atom,
    BOTTOM,
    Concept,
    ConceptInclusion,
    Exists,
    Interpretation,
    TOP,
    active_signature,
    conjuncts_of,
    render_concept,
    role_depth,
)
from .errors import CiforgeError, ResourceCapError
from .graphs import DEFAULT_NODE_CAP
from .mmsc import adaptable_depth, mmsc_adaptive, mmsc_at_depth
from .oracles import enumerate_concepts
from .reasoner import Reasoner
from .simulation import equivalent_empty, semantic_extension

DEFAULT_DOMAIN_CAP = 12


@dataclass(frozen=True)
class AttributeSet:
    attributes: tuple  # of Concept, deduplicated, deterministic order
    ext: tuple  # attribute index -> frozenset of elements
    depth_reports: tuple  # of (X tuple, DepthReport) summaries

    def __len__(self):
        return len(self.attributes)


@dataclass(frozen=True)
class IntentLattice:
    intents: tuple  # of (frozenset of attribute indices, extension), lectic order


@dataclass(frozen=True)
class MiningReport:
    attribute_count: int
    intent_count: int
    axiom_count: int
    max_role_depth: int
    depth_reports: tuple  # of (X tuple, DepthReport)

    def summary_lines(self):
        yield f"attributes: {self.attribute_count}"
        yield f"intents: {self.intent_count}"
        yield f"axioms: {self.axiom_count}"
        yield f"max role depth: {self.max_role_depth}"
        histogram = Counter(
            (report.branch, report.chosen_depth) for _, report in self.depth_reports
        )
        for (branch, depth), count in sorted(histogram.items()):
            yield f"depth branch={branch} chosen={depth} subsets={count}"
        yield f"max chosen depth: {max((d for _, d in histogram), default=0)}"


def attribute_set(
    i: Interpretation,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> AttributeSet:
    if len(i.domain) > domain_cap:
        raise ResourceCapError(
            f"attribute mining enumerates 2^|domain| subsets; {len(i.domain)} "
            f"elements exceed the cap of {domain_cap}"
        )
    sig = active_signature(i)
    memo: dict = {}
    candidates: list[Concept] = [BOTTOM]
    candidates.extend(Atom(name) for name in sorted(sig.concept_names))
    depth_reports = []
    elements = sorted(i.domain)
    mmsc_by_set = {}
    for n in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, n):
            depth_reports.append((combo, adaptable_depth(i, combo, node_cap=node_cap)))
            mmsc_by_set[combo] = mmsc_adaptive(i, combo, node_cap=node_cap)
    for role in sorted(sig.role_names):
        for combo, concept in mmsc_by_set.items():
            # mmsc output is canonical and never Bottom for non-empty sets,
            # so the restriction is canonical as built.
            candidates.append(Exists(role, concept))
    # Dedup: drop an attribute only when an earlier one has both the same
    # extension and mutual empty-TBox subsumption (adaptable depths differ
    # per X, so equal extensions alone are not enough).  A candidate equal
    # to an earlier one shares its verdict, so the simulation check runs
    # once per distinct concept.
    kept: list[Concept] = []
    kept_ext: list[frozenset] = []
    seen: set = set()  # all earlier candidates
    groups: dict = {}  # extension -> kept concepts
    for c in candidates:
        c_ext = semantic_extension(c, i, memo)
        if c in seen:
            continue
        seen.add(c)
        group = groups.setdefault(c_ext, [])
        if not any(equivalent_empty(c, other) for other in group):
            group.append(c)
            kept.append(c)
            kept_ext.append(c_ext)
    order = sorted(range(len(kept)), key=lambda k: render_concept(kept[k]))
    return AttributeSet(
        attributes=tuple(kept[k] for k in order),
        ext=tuple(kept_ext[k] for k in order),
        depth_reports=tuple(depth_reports),
    )


def intent_closure(a: AttributeSet, U, i: Interpretation) -> frozenset:
    """{m | extension(⊓U) ⊆ extension(m)} over attribute indices."""
    common = i.domain
    for idx in U:
        common = common & a.ext[idx]
    return frozenset(idx for idx in range(len(a)) if common <= a.ext[idx])


def enumerate_intents(a: AttributeSet, i: Interpretation) -> IntentLattice:
    """All closed attribute subsets in lectic order (NextClosure)."""
    n = len(a)

    def closure(indices):
        return intent_closure(a, indices, i)

    def extent(indices):
        common = i.domain
        for idx in indices:
            common = common & a.ext[idx]
        return common

    intents = []
    current = closure(frozenset())
    while True:
        intents.append((current, extent(current)))
        nxt = None
        for m in reversed(range(n)):
            if m in current:
                continue
            candidate = closure(frozenset(idx for idx in current if idx < m) | {m})
            # lectic successor test: the closure adds nothing below m.
            if not any(idx < m and idx not in current for idx in candidate):
                nxt = candidate
                break
        if nxt is None:
            break
        current = nxt
    return IntentLattice(tuple(intents))


def _conj_of(a: AttributeSet, indices) -> Concept:
    # Attributes are stored in canonical sort order, pairwise distinct, and
    # never Top, so conjoining by ascending index is already the canonical
    # form.  `conjoin` would re-render the (possibly large) attributes to
    # sort them again.
    parts = tuple(a.attributes[idx] for idx in sorted(indices))
    if not parts:
        return TOP
    if BOTTOM in parts:
        return BOTTOM
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def build_base(
    i: Interpretation,
    mode: str = "intents",
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
):
    """Returns (TBox, MiningReport).

    Ties each attribute, the empty conjunction Top and each extension-distinct
    representative R (the conjunction of all attributes valid on R's
    extension) to the MMSC of its extension, and per pair of representatives
    R1, R2 adds R1 ⊓ R2 ⊑ R, R the representative of the meet of their
    extensions.  An inclusion c ⊑ d is emitted
    only when c is not ⊥ and d has a conjunct that c lacks: any other holds
    in every interpretation and adds nothing to a base.  There is one mining
    mode; `mode` stays so that callers passing "intents" keep working, and
    any other value is rejected.
    """
    if mode != "intents":
        raise CiforgeError(f"unknown mining mode {mode!r}")
    attrs = attribute_set(i, domain_cap=domain_cap, node_cap=node_cap)
    lattice = enumerate_intents(attrs, i)

    axioms: set[ConceptInclusion] = set()

    def emit(c: Concept, d: Concept):
        if c != BOTTOM and not set(conjuncts_of(d)) <= set(conjuncts_of(c)):
            axioms.add(ConceptInclusion(c, d))

    def emit_equiv(c: Concept, d: Concept):
        emit(c, d)
        emit(d, c)

    mmsc_cache: dict = {}

    def mmsc_of(ext: frozenset) -> Concept:
        cached = mmsc_cache.get(ext)
        if cached is None:
            cached = mmsc_adaptive(i, ext, node_cap=node_cap)
            mmsc_cache[ext] = cached
        return cached

    # (1) one equivalence per attribute (the singleton conjunctions) and for
    # the empty conjunction Top.
    for idx in range(len(attrs)):
        emit_equiv(attrs.attributes[idx], mmsc_of(attrs.ext[idx]))
    emit_equiv(TOP, mmsc_of(i.domain))

    # (2) one equivalence per closed set: representative tied to the MMSC of
    # its extension.
    reps = {}  # extension -> representative concept
    rep_indices = {}  # extension -> closed attribute index set
    for indices, ext in lattice.intents:
        rep = _conj_of(attrs, indices)
        reps[ext] = rep
        rep_indices[ext] = indices
        emit_equiv(rep, mmsc_of(ext))

    # (3) meet axioms: R1 ⊓ R2 ⊑ representative of the meet extension.  The
    # attribute equivalences route any conjunction of attributes through the
    # closed representatives, and the meets close the lattice downwards; both
    # are needed so that e.g. a pair of attributes with disjoint extensions is
    # entailed to be below Bottom.  Extents are closed under intersection, so
    # the meet has a representative, whose closed index set contains
    # ind1 | ind2; read off the index sets, the emission rule keeps the meet
    # when that set adds an index.  A side holding ⊥ has the empty extent,
    # whose index set is every attribute, so a ⊥ left side never passes.
    for (ext1, ind1), (ext2, ind2) in itertools.combinations(rep_indices.items(), 2):
        meet_ext = ext1 & ext2
        joined = ind1 | ind2
        if joined != rep_indices[meet_ext]:
            axioms.add(ConceptInclusion(_conj_of(attrs, joined), reps[meet_ext]))

    # soundness self-check before returning
    unsound = _first_unsound(i, axioms)
    if unsound is not None:
        ci, lhs_ext, rhs_ext = unsound
        raise CiforgeError(
            f"internal soundness violation: {ci} "
            f"({sorted(lhs_ext)} ⊄ {sorted(rhs_ext)})"
        )

    tbox = frozenset(axioms)
    # Every axiom side is built from the attributes and the cached MMSCs, so
    # the maximum role depth is the maximum over those building blocks.
    depth = max(
        itertools.chain(
            (role_depth(c) for c in attrs.attributes),
            (role_depth(c) for c in mmsc_cache.values()),
        ),
        default=0,
    )
    report = MiningReport(
        attribute_count=len(attrs),
        intent_count=len(lattice.intents),
        axiom_count=len(tbox),
        max_role_depth=depth,
        depth_reports=attrs.depth_reports,
    )
    return tbox, report


def _first_unsound(i: Interpretation, tbox):
    """(axiom, left extension, right extension) for the first axiom whose
    left side's extension is not inside its right side's; None if all hold."""
    memo: dict = {}
    for ci in tbox:
        lhs_ext = semantic_extension(ci.lhs, i, memo)
        rhs_ext = semantic_extension(ci.rhs, i, memo)
        if not lhs_ext <= rhs_ext:
            return ci, lhs_ext, rhs_ext
    return None


def check_base_sound(i: Interpretation, tbox) -> bool:
    return _first_unsound(i, tbox) is None


@dataclass(frozen=True)
class CompletenessReport:
    checked: int
    # C ⊑ E, valid in the interpretation and not entailed, per failing C and
    # per top-level conjunct E of the MMSC of C's extension.
    counterexamples: tuple  # of ConceptInclusion
    # Size of the reasoner's saturation at the end of the check: atoms, and
    # (atom, subsumer) pairs summed over them.
    reasoner_atoms: int
    reasoner_pairs: int

    @property
    def complete(self):
        return not self.counterexamples


def check_base_complete(
    i: Interpretation, tbox, depth: int, size_cap: int
) -> CompletenessReport:
    """Enumerates canonical concepts over the active signature up to the given
    role depth and node count, and asks for each C whether
    T ⊨ C ⊑ mmsc_d(extension(C)), d the enumeration depth.  That MMSC is
    below every concept of role depth at most d valid on C's extension, so
    the TBox is complete for the fragment exactly when every C passes.  A
    negative depth or a size cap below 1 is a ValidationError.

    For a C that fails, each top-level conjunct E of its MMSC (⊥ for an
    empty extension) that T does not entail below C gives the counterexample
    C ⊑ E.  It is valid, since C's extension is inside the MMSC's, and every
    failing C has at least one.  E may exceed the size cap: the check covers
    every right-hand side up to the role depth, whatever its size.

    One pass over the enumeration computes each extension and asks each
    query, and no enumerated concept is kept.  The basic concepts come first
    (see `enumerate_concepts`) and are evaluated one by one; every conjunct
    of a later conjunction is one of them.  A conjunction follows its
    prefix, so a slot per conjunct count keeps the last conjuncts seen with
    their extension, and a conjunction whose conjuncts but the last are the
    slot one shorter costs one intersection.  The MMSC of an extension is
    computed, and registered with the reasoner, when the pass first meets
    that extension; the reasoner saturates its few axioms before the next
    query.  The queries run in enumeration order, which the reasoner's own
    prefix slots suit.
    """
    sig = active_signature(i)
    memo: dict = {}  # semantic_extension's, for the basic concepts' fillers
    basic: dict = {}  # basic concept -> extension
    slots: dict = {}  # conjunct count -> (conjuncts, extension) seen last
    targets: dict = {}  # extension -> its registered MMSC at the depth
    reasoner = Reasoner(tbox)
    checked = 0
    counterexamples = []
    for c in enumerate_concepts(sig, depth, size_cap):
        if isinstance(c, And):
            parts = c.conjuncts
            prefix = slots.get(len(parts) - 1)
            if prefix is not None and prefix[0] == parts[:-1]:
                ext = prefix[1] & basic[parts[-1]]
            else:
                ext = i.domain
                for d in parts:
                    ext = ext & basic[d]
            slots[len(parts)] = (parts, ext)
        else:
            ext = basic[c] = semantic_extension(c, i, memo)
        target = targets.get(ext)
        if target is None:
            target = targets[ext] = mmsc_at_depth(i, ext, depth)
            reasoner.register_rhs(target)
        checked += 1
        if reasoner.entails_registered(c, target):
            continue
        # The target's conjuncts are its subconcepts, named with it, so
        # asking for them saturates nothing new.
        for e in conjuncts_of(target):
            ci = ConceptInclusion(c, e)
            if not reasoner.entails(ci):
                counterexamples.append(ci)
    subsumers = reasoner.subsumers
    return CompletenessReport(
        checked,
        tuple(counterexamples),
        len(subsumers),
        sum(map(len, subsumers.values())),
    )
