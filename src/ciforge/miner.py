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
from math import comb
from operator import itemgetter, not_

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
    conjoin,
    conjuncts_of,
    render_concept,
    role_depth,
)
from .errors import CiforgeError, ResourceCapError
from .graphs import DEFAULT_NODE_CAP
from .mmsc import adaptable_depth, mmsc_adaptive, mmsc_at_depth
from .oracles import _fitting_sets, enumerate_concepts
from .reasoner import Reasoner
from .simulation import equivalent_empty, preimage, semantic_extension

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
    mmscs = []
    for n in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, n):
            depth_reports.append((combo, adaptable_depth(i, combo, node_cap=node_cap)))
            mmscs.append(mmsc_adaptive(i, combo, node_cap=node_cap))
    for role in sorted(sig.role_names):
        # mmsc output is canonical and never Bottom for non-empty sets, so
        # the restriction is canonical as built.
        candidates.extend(Exists(role, concept) for concept in mmscs)
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


def _closed(a: AttributeSet, U, i: Interpretation) -> tuple:
    """(intent closure of U, extension of ⊓U); the closure has the same
    extension."""
    common = i.domain
    for idx in U:
        common = common & a.ext[idx]
    return frozenset(idx for idx in range(len(a)) if common <= a.ext[idx]), common


def enumerate_intents(a: AttributeSet, i: Interpretation) -> IntentLattice:
    """All closed attribute subsets in lectic order (NextClosure), each with
    its extension."""
    intents = [_closed(a, (), i)]
    while True:
        current = intents[-1][0]
        for m in reversed(range(len(a))):
            if m in current:
                continue
            candidate = _closed(a, [idx for idx in current if idx < m] + [m], i)
            # lectic successor test: the closure adds nothing below m.
            if not any(idx < m and idx not in current for idx in candidate[0]):
                intents.append(candidate)
                break
        else:
            return IntentLattice(tuple(intents))


def _conj_of(a: AttributeSet, indices) -> Concept:
    # Attributes are stored in canonical sort order, pairwise distinct, and
    # never Top, so conjoining by ascending index is already the canonical
    # form.  `conjoin` would flatten, deduplicate and sort them again.
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

    tied: set = set()  # the MMSCs the axioms use

    def tie(c: Concept, ext: frozenset):
        """c ≡ the MMSC of ext.  attribute_set built it for every non-empty
        ext, and `mmsc_adaptive` keeps it."""
        d = mmsc_adaptive(i, ext, node_cap=node_cap)
        tied.add(d)
        emit_equiv(c, d)

    # (1) one equivalence per attribute (the singleton conjunctions) and for
    # the empty conjunction Top.
    for c, ext in zip(attrs.attributes, attrs.ext):
        tie(c, ext)
    tie(TOP, i.domain)

    # (2) one equivalence per closed set: representative tied to the MMSC of
    # its extension.
    reps = {}  # extension -> representative concept
    rep_indices = {}  # extension -> closed attribute index set
    for indices, ext in lattice.intents:
        rep = _conj_of(attrs, indices)
        reps[ext] = rep
        rep_indices[ext] = indices
        tie(rep, ext)

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
    # Every axiom side is built from the attributes and the tied MMSCs, so
    # the maximum role depth is the maximum over those building blocks.
    depth = max(map(role_depth, itertools.chain(attrs.attributes, tied)), default=0)
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
    """Checks the canonical concepts over the active signature up to the
    given role depth and node count: for each C, whether
    T ⊨ C ⊑ mmsc_d(extension(C)), d the given depth.  That MMSC is below
    every concept of role depth at most d valid on C's extension, so the
    TBox is complete for the fragment exactly when every C passes.  A
    negative depth or a size cap below 1 is a ValidationError.

    For a C that fails, each top-level conjunct E of its MMSC (⊥ for an
    empty extension) that T does not entail below C gives the counterexample
    C ⊑ E.  It is valid, since C's extension is inside the MMSC's, and every
    failing C has at least one.  E may exceed the size cap: the check covers
    every right-hand side up to the role depth, whatever its size.  The
    counterexamples come in this order: Top, Bottom and the basic concepts
    (atoms and restrictions) in canonical conjunct order, then the
    conjunctions in the lexicographic order of their conjuncts' positions
    among the basics, and per C in the order of the MMSC's conjuncts.

    `enumerate_concepts` yields Top, Bottom and the basic concepts with
    their node counts, and each is checked on its own.  A restriction ∃r.F
    takes its facts from F's, found once per distinct filler: its extension
    is the r-preimage of F's, and its completion the reasoner's
    `restriction` step on F's.  Every other concept is a conjunction
    B1 ⊓ … ⊓ Bn of at least two basics within the cap, with extension
    ∩ Bi^I, and the reasoner completes it by joining the completions of
    the Bi.  Both operations are idempotent, commutative and associative,
    so its verdict depends only on the set of (extension, completion)
    classes of its conjuncts.  So the conjunctions are checked once per set
    of at least two classes whose smallest members fit the cap together; a
    conjunction whose conjuncts share one class has that class's verdict.
    Only a failing set is expanded into its conjunctions, by the same search
    over its classes' members, and the conjunctions are counted with a
    knapsack over the basics' node counts.

    A completion that holds ⊥ settles the verdict (the ⊥ rule of Baader,
    Brandt and Lutz 2005): it entails every right-hand side, and so does
    every join with it and every ∃r.F over it, whose told set holds ⊥.  So
    a restriction over a filler whose completion holds ⊥ passes without
    being completed, and it and every basic whose completion holds ⊥ join
    no class: each conjunction with one of them passes.  They are still
    counted.  The class search extends no set whose join holds ⊥, since
    every set above it passes.

    Registering a right-hand side re-saturates the reasoner and can add its
    name to completions made before, so the MMSC of every extension a
    concept of the fragment has is registered before any completion: the
    basics' extensions, and the intersection of every set of at least two
    extension groups whose smallest members fit the cap together.  A set
    whose intersection is empty is not extended, since every set above it
    has the empty extension too, whose target was registered when the set
    was found.
    """
    sig = active_signature(i)
    memo: dict = {}  # semantic_extension's, for the leaves and fillers
    facts: dict = {}  # leaf or filler -> extension
    preimages: dict = {}  # (role, filler extension) -> restriction's extension
    basics = []  # (concept, extension, node count): Top, Bottom, atoms and restrictions
    for c, size in enumerate_concepts(sig, depth, size_cap):
        f = c.filler if isinstance(c, Exists) else c
        ext = facts.get(f)
        if ext is None:
            ext = facts[f] = semantic_extension(f, i, memo)
        if f is not c:
            key = (c.role, ext)
            ext = preimages.get(key)
            if ext is None:
                ext = preimages[key] = preimage(i, *key)
        basics.append((c, ext, size))
    budget = size_cap - 1  # nodes of the conjuncts of a top-level conjunction

    targets = dict.fromkeys(ext for _, ext, _ in basics)
    conjuncts = [(ext, size) for c, ext, size in basics if isinstance(c, (Atom, Exists))]
    for _, ext, _ in _fitting_sets(
        _grouped(conjuncts), budget, frozenset.__and__, settles=not_
    ):
        targets.setdefault(ext)
    reasoner = Reasoner(tbox)
    reasoner.register_rhs(BOTTOM)  # ⊥'s name is ⊥ itself: no axiom is logged

    def settled(s: frozenset) -> bool:
        """Whether a completion holds ⊥, and so entails every target."""
        return reasoner.completion_entails(s, BOTTOM)

    for ext in targets:
        targets[ext] = mmsc_at_depth(i, ext, depth)
        reasoner.register_rhs(targets[ext])

    def missing(ext: frozenset, s: frozenset) -> list:
        """The conjuncts E of ext's target not entailed below a concept
        completed to s.  They are the target's subconcepts, named with it,
        so registering them saturates nothing new."""
        found = []
        for e in conjuncts_of(targets[ext]):
            reasoner.register_rhs(e)
            if not reasoner.completion_entails(s, e):
                found.append(e)
        return found

    # The leaves are asked as queries; a restriction ∃r.F is completed from
    # F's completion, which the reasoner memoizes per filler.
    counterexamples = []
    pool = []  # (concept, node count, extension, completion) per atom and restriction without ⊥
    for c, ext, size in basics:
        if isinstance(c, Exists):
            filler = reasoner.completion(c.filler)
            if settled(filler):  # so ∃r.F's told set holds ⊥, and it passes
                continue
            s = reasoner.restriction(c.role, filler)
            entailed = reasoner.completion_entails(s, targets[ext])
        else:
            entailed = reasoner.entails_registered(c, targets[ext])
            s = reasoner.completion(c)
        if not entailed:
            counterexamples.extend(ConceptInclusion(c, e) for e in missing(ext, s))
        if isinstance(c, (Atom, Exists)) and not settled(s):
            pool.append((c, size, ext, s))

    def combine(left, right):
        return left[0] & right[0], reasoner.join(left[1], right[1])

    # Classes (extension, completion) of the pool; a set of one class
    # stands for the conjunctions of two or more of its members.
    classes = _grouped([((ext, s), size) for _, size, ext, s in pool])
    conjunctions = []  # (positions in pool, conjuncts E not entailed)
    for chosen, (ext, s), _ in _fitting_sets(
        classes, budget, combine, settles=lambda key: settled(key[1])
    ):
        if not reasoner.completion_entails(s, targets[ext]):
            found = missing(ext, s)
            # The chosen classes' members that fit beside the smallest
            # members of the others (a class lists its members in ascending
            # size), class by class, each to its class's index in `chosen`.
            # A conjunction takes at least one member of each class, so a
            # set that skips a class is not extended.
            spare = budget - sum(classes[k][1] for k in chosen)
            block = {}
            for j, k in enumerate(chosen):
                limit = classes[k][1] + spare
                fits = itertools.takewhile(lambda p: pool[p][1] <= limit, classes[k][2])
                block.update((p, j) for p in fits)
            items = [((p,), pool[p][1]) for p in block]
            for _, positions, _ in _fitting_sets(
                items, budget, tuple.__add__, settles=lambda key: _skips(block, key)
            ):
                if (
                    block[positions[-1]] == len(chosen) - 1
                    and len(positions) > 1
                    and not _skips(block, positions)
                ):
                    conjunctions.append((tuple(sorted(positions)), found))
    conjunctions.sort(key=itemgetter(0))
    for positions, found in conjunctions:
        c = conjoin([pool[k][0] for k in positions])
        counterexamples.extend(ConceptInclusion(c, e) for e in found)
    subsumers = reasoner.subsumers
    return CompletenessReport(
        len(basics) + _conjunction_count([size for _, size in conjuncts], budget),
        tuple(counterexamples),
        len(subsumers),
        sum(map(len, subsumers.values())),
    )


def _grouped(keyed: list) -> list:
    """(key, smallest size, positions) per distinct key of `keyed`, a list
    of (key, size) pairs; each key's positions come in ascending size, ties
    in ascending position."""
    groups: dict = {}
    for k in sorted(range(len(keyed)), key=lambda k: keyed[k][1]):
        groups.setdefault(keyed[k][0], []).append(k)
    return [(key, keyed[positions[0]][1], positions) for key, positions in groups.items()]


def _skips(block: dict, positions: tuple) -> bool:
    """Whether the last of `positions` passes over a block, `block` mapping
    each position to its block's index: it lies more than one block past
    the position before it or, alone, past the first block."""
    j = block[positions[-1]]
    return j > 0 and (len(positions) == 1 or block[positions[-2]] < j - 1)


def _conjunction_count(sizes: list, budget: int) -> int:
    """Number of sets of at least two items of the given sizes whose sizes
    sum to at most `budget`: a knapsack count over the distinct sizes, by
    total size and by members (none, one, two or more)."""
    ways = [[0, 0, 0] for _ in range(budget + 1)]
    ways[0][0] = 1
    for size, many in Counter(sizes).items():
        grown = [row[:] for row in ways]
        for used, row in enumerate(ways):
            for members, count in enumerate(row):
                if count:
                    for t in range(1, min(many, (budget - used) // size) + 1):
                        grown[used + t * size][min(members + t, 2)] += count * comb(many, t)
        ways = grown
    return sum(row[2] for row in ways)
