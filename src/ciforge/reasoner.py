"""EL⊥ TBox entailment via completion-rule saturation.

Independent of the mining code: normalizes a TBox to the normal forms
A ⊑ B, A1 ⊓ … ⊓ Ak ⊑ B, A ⊑ ∃r.B, ∃r.A ⊑ B and A ⊑ ⊥, saturates subsumer
sets with the completion rules of Baader, Brandt & Lutz (IJCAI 2005), and
answers C ⊑ D queries by completing the canonical tree model of C against
the saturated axioms.  The normal form of that paper is binary, with a fresh
name per prefix of a conjunction; here a conjunction is one n-ary axiom,
indexed under each conjunct, that fires once a subsumer set holds all its
conjuncts (one subset test), so the only names are the concept names and
the names of subconcepts.

Axioms and left-hand sides are taken as given, in any EL⊥ form (the empty
conjunction is ⊤); only a right-hand side is canonicalized, once, when it is
registered, so that equal right sides share one name.

Saturation is semi-naive (Bancilhon & Ramakrishnan 1986) on an ELK-style
worklist (Kazakov, Krötzsch & Simančík, JAR 2014).  The worklist holds
(x, Δ): an atom and the subsumers it has just gained, and each rule fires on
the whole of Δ with set unions and differences.  Per atom y and role r, the
predecessor index keeps the atoms with an r-edge to y's canonical element
and L(y, r): the B of every ∃r.a ⊑ B with a in S(y), and ⊥ if S(y) holds it.
A new r-edge into y brings L(y, r) in one union.  When S(y) gains Δ, the
consequences of Δ that L(y, r) lacks join it and the subsumers of every
r-predecessor of y, again in one union each.  The TBox and the
right-hand sides given up front are the first batch of axioms.  A
right-hand side registered later is a batch of the few axioms that name it:
they alone fire on the saturation already there, which stays, and what they
derive then goes through all axioms; only the query memos are dropped.

Query completions are built compositionally: an atom is closed from {⊤, A};
∃r.F from the told set of an r-edge to the completion of F, the B of every
∃r.a ⊑ B with a in it (and ⊥ if it holds ⊥), read through a per-role index
of the fillers a of such axioms; a conjunction C1 ⊓ … ⊓ Cn by joining
completions of its parts.  Both sides of a join are already closed, so only
conjunction axioms with a conjunct new from one side can fire, once the
union holds all their conjuncts, before the closure resumes.  Every concept
is completed children first (`concepts.bottom_up`) and memoized per
concept.  Equal completions share one interned frozenset; the join of two
completions is memoized per pair of interned completions, and the
completion of ∃r.F is closed once per told set, so concepts with equal
parts, or fillers that differ only in atoms no ∃r.a ⊑ B reads, share one
closure.  `completion`, `restriction`, `join` and `completion_entails`
expose these steps, so that a caller can build the completion of a
restriction or a conjunction from completions it already holds.

Closing a set reads the saturation: an atom reached brings its saturated
subsumer set S(a) in one union.  S(a) is closed under the sub, ∃ and ⊥ rules
and under the conjunction axioms among its own atoms, so only the
conjunction axioms of the atoms new from S(a) are checked, for conjuncts
already in the set.
"""

from __future__ import annotations

from functools import reduce

from .concepts import (
    And,
    Atom,
    Bottom,
    Concept,
    ConceptInclusion,
    Exists,
    TOP,
    Top,
    bottom_up,
    canonicalize,
    render_concept,
)
from .errors import CiforgeError

_TOP = "⊤"
_BOT = "⊥"


class _Axioms:
    """Normal-form axioms indexed by premise, for rule application."""

    def __init__(self, entries=()):
        self.ax_sub: dict = {}  # A -> [B]          (A ⊑ B)
        self.ax_conj: dict = {}  # Ai -> [({A1..Ak}, B)]  (A1 ⊓ … ⊓ Ak ⊑ B)
        self.ax_exists_rhs: dict = {}  # A -> [(r, B)]  (A ⊑ ∃r.B)
        self.ax_exists_lhs: dict = {}  # (r, A) -> [B]  (∃r.A ⊑ B)
        self.exists_fillers: dict = {}  # r -> {A}  (∃r.A ⊑ B for some B)
        for kind, premise, conclusion, _ in entries:
            self.add(kind, premise, conclusion)

    def add(self, kind, premise, conclusion):
        """Indexes one axiom in the index named `kind`.  A conjunction's
        premise is the frozenset of its conjuncts, and the axiom is indexed
        once under each of them; an ∃r.A ⊑ B axiom also adds A to r's
        fillers."""
        if kind == "ax_conj":
            axiom = (premise, conclusion)
            for a in premise:
                self.ax_conj.setdefault(a, []).append(axiom)
            return
        if kind == "ax_exists_lhs":
            role, a = premise
            self.exists_fillers.setdefault(role, set()).add(a)
        getattr(self, kind).setdefault(premise, []).append(conclusion)

    def premises(self) -> set:
        """Atoms on which some axiom here fires: the premises, and the
        fillers of the ∃r.A ⊑ B axioms."""
        return set().union(
            self.ax_sub, self.ax_conj, self.ax_exists_rhs, *self.exists_fillers.values()
        )


class _Normalizer(_Axioms):
    """Assigns a stable atom name to every subconcept and emits normal-form
    axioms making the name equivalent to the subconcept: A ⊑ ∃r.B and
    ∃r.B ⊑ A for a restriction, A ⊑ Ai per conjunct and one n-ary
    A1 ⊓ … ⊓ Ak ⊑ A for a conjunction.

    Every emitted axiom is indexed by its premise and appended to `log` as
    (kind, premise, conclusion, atoms it mentions), so that saturation can
    index a batch of them the same way."""

    def __init__(self):
        super().__init__()
        self.names: dict = {}
        self.counter = 0
        self.log: list = []  # one entry per axiom, in emission order

    def _emit(self, kind, premise, conclusion, mentioned):
        self.add(kind, premise, conclusion)
        self.log.append((kind, premise, conclusion, mentioned))

    def add_sub(self, a, b):
        self._emit("ax_sub", a, b, (a, b))

    def name_of(self, c: Concept) -> str:
        """Definitional name for c; emits axioms in both directions so the
        name is equivalent to c in every model of the output.  Subconcepts
        are named first, each once."""
        return bottom_up(c, self._define, self.names)

    def _define(self, c: Concept, parts: list) -> str:
        """Name of c, given the names of its children."""
        if isinstance(c, Atom):
            return c.name
        if isinstance(c, (Top, Bottom)):
            return _TOP if isinstance(c, Top) else _BOT
        self.counter += 1
        name = f"_N{self.counter}"
        if isinstance(c, Exists):
            filler = parts[0]
            self._emit("ax_exists_rhs", name, (c.role, filler), (name, filler))
            self._emit("ax_exists_lhs", (c.role, filler), name, (filler, name))
            return name
        # Conjunction: name ⊑ each part, and all parts together ⊑ name; the
        # empty conjunction is ⊤, so ⊤ ⊑ name.
        parts = parts or [_TOP]
        for p in parts:
            self.add_sub(name, p)
        self._emit("ax_conj", frozenset(parts), name, (*parts, name))
        return name


class Reasoner:
    """Saturates a TBox once; answers arbitrarily many C ⊑ D queries.

    Right-hand sides given up front are saturated with the TBox.  One
    registered later, by `register_rhs` or `entails`, adds its few
    recognition axioms to the saturation before the next query; the
    saturation stays, and only the query memos are dropped.
    """

    def __init__(self, tbox, rhs_concepts=()):
        self.norm = _Normalizer()
        # Internal names follow the caller's order; no answer depends on it.
        for ci in tbox:
            self.norm.add_sub(self.norm.name_of(ci.lhs), self.norm.name_of(ci.rhs))
        self.rhs_names: dict = {}
        for d in rhs_concepts:
            self.register_rhs(d)
        self.subsumers: dict = {}  # atom -> subsumers of its canonical element
        # Predecessor index: atom y -> role r -> (atoms whose canonical
        # element has an r-edge to y's, L(y, r)).
        self._preds: dict = {}
        self._saturated = 0  # log entries taken up by saturation so far
        self._saturate()

    # -- saturation --------------------------------------------------------

    def register_rhs(self, d: Concept):
        """Atom name recognizing d, keyed by d and by its canonical form,
        computed once.  A new name logs its recognition axioms; the next
        query saturates them into the existing subsumer sets."""
        name = self.rhs_names.get(d)
        if name is None:
            c = canonicalize(d)
            name = self.rhs_names[d] = self.rhs_names[c] = self.norm.name_of(c)
        return name

    def _saturate(self):
        """Completion rules over the axioms logged since the last call,
        fired set-at-a-time.

        The worklist maps an atom x to Δ, the subsumers x has gained whose
        axioms are still to fire, and is taken a round at a time; what an
        atom gains meanwhile merges into its Δ for the next round.  Firing
        Δ on x unions the right-hand sides of the sub and A ⊑ ∃r.B axioms
        over Δ, tests each conjunction axiom with a conjunct in Δ once, and
        unions L(y, r) into S(x) for each new r-edge from x to y.  The part
        of Δ's ∃r.a ⊑ B consequences (and ⊥) that is new to L(x, r) joins
        L(x, r) and the subsumers of every r-predecessor of x.

        A batch after the first fires only its own axioms on each atom that
        was already saturated, with Δ the part of S(x) they take as
        premises.  What that derives, and each atom new to the batch with
        Δ = {a, ⊤}, then goes through all axioms.
        """
        norm = self.norm
        subsumers = self.subsumers
        preds = self._preds
        exists_lhs = norm.ax_exists_lhs
        batch = norm.log[self._saturated :]
        self._saturated = len(norm.log)
        todo: dict = {}  # atom -> Δ

        def gain(x, got):
            s = subsumers[x]
            new = got - s
            if new:
                s |= new
                pending = todo.get(x)
                if pending is None:
                    todo[x] = new
                else:
                    pending |= new

        def edge(x, role, y):
            """Adds an r-edge from x to y and returns L(y, r), or None if the
            edge was there.  L(y, r) is made from S(y) on the first r-edge
            into y."""
            into_y = preds.get(y)
            if into_y is None:
                into_y = preds[y] = {}
            known = into_y.get(role)
            if known is None:
                sy = subsumers[y]
                via = {b for a in sy for b in exists_lhs.get((role, a), ())}
                if _BOT in sy:
                    via.add(_BOT)
                into_y[role] = ({x}, via)
                return via
            if x not in known[0]:
                known[0].add(x)
                return known[1]
            return None

        def rules(axioms):
            """The completion rules for the axioms in `axioms`, fired on an
            atom and its Δ.  The indices are bound once per batch, not once
            per Δ: a query's batch fires a few hundred small Δ."""
            sub, conj = axioms.ax_sub, axioms.ax_conj
            exists_rhs, lhs = axioms.ax_exists_rhs, axioms.ax_exists_lhs

            def fire(x, delta):
                got = set()
                candidates = set()
                for c in delta:
                    if c in sub:
                        got.update(sub[c])
                    if c in conj:
                        candidates.update(conj[c])
                    if c in exists_rhs:
                        for role, y in exists_rhs[c]:
                            via = edge(x, role, y)
                            if via:
                                got |= via
                if candidates:
                    sx = subsumers[x]
                    for parts, b in candidates:
                        if b not in sx and parts <= sx:
                            got.add(b)
                into_x = preds.get(x)
                if into_x:
                    for role, (xs, via) in into_x.items():
                        new = {b for c in delta for b in lhs.get((role, c), ())}
                        if _BOT in delta:
                            new.add(_BOT)
                        new -= via
                        if new:
                            via |= new
                            for p in xs:
                                gain(p, new)
                if got:
                    gain(x, got)

            return fire

        existing = list(subsumers.items())
        for a in [_TOP, _BOT, *(a for *_, mentioned in batch for a in mentioned)]:
            if a not in subsumers:
                subsumers[a] = {a, _TOP}
                todo[a] = {a, _TOP}
        if existing:
            fresh = _Axioms(batch)
            premises = fresh.premises()
            fire = rules(fresh)
            for x, sx in existing:
                delta = premises & sx
                if delta:
                    fire(x, delta)
        fire = rules(norm)
        while todo:
            rnd = todo
            todo = {}
            for x, delta in rnd.items():
                fire(x, delta)
        # Query completions per concept, one shared frozenset per distinct
        # completion, joins and told children per interned completion, and
        # closed told sets; all depend on the axioms saturated here.
        self._completions: dict = {}
        self._interned: dict = {}
        self._joins: dict = {}
        self._told: dict = {}
        self._told_sets: dict = {}

    # -- queries -----------------------------------------------------------

    def completion(self, c: Concept) -> frozenset:
        """Atoms subsuming the root of C's canonical tree model, completed
        against the saturated TBox; right-hand sides registered since the
        last query are saturated first.  The set is interned: equal
        completions are one object.  It holds for the right-hand sides
        registered so far, and `restriction`, `join` and `completion_entails`
        take it until the next registration."""
        if self._saturated < len(self.norm.log):
            self._saturate()
        known = self._completions.get(c)  # read before a walk is set up
        return known if known is not None else self._complete_tree(c)

    def _complete_tree(self, c: Concept) -> frozenset:
        """Completion of c, built children first and memoized per concept;
        base saturation is never mutated."""
        return bottom_up(c, self._complete_node, self._completions)

    def _complete_node(self, c: Concept, children: list) -> frozenset:
        """Completion of c, given the completions of its children.  Leaves,
        which `bottom_up` does not memoize, are memoized here."""
        if isinstance(c, Exists):
            return self.restriction(c.role, children[0])
        if isinstance(c, And):
            return self._fold(children)
        memo = self._completions
        s = memo.get(c)
        if s is None:
            leaf = c.name if isinstance(c, Atom) else _BOT if isinstance(c, Bottom) else _TOP
            s = memo[c] = self._close({_TOP, leaf}, list({_TOP, leaf}))
        return s

    def _fold(self, completions: list) -> frozenset:
        """Completion of a conjunction from the completions of its conjuncts,
        joined left to right; ⊤'s if it has none."""
        return reduce(self.join, completions) if completions else self._complete_tree(TOP)

    def restriction(self, role: str, filler: frozenset) -> frozenset:
        """Completion of ∃r.F from the completion of F, by the told-child
        rule: an r-edge to F's completion adds its told set, ⊤, the B of
        every ∃r.a ⊑ B with a in it, and ⊥ if it holds ⊥.  The told set
        alone decides the result, which is closed once per told set and
        memoized per role and interned completion too."""
        s = self._told.get((role, filler))
        if s is None:
            told = {_TOP, _BOT} if _BOT in filler else {_TOP}
            exists_lhs = self.norm.ax_exists_lhs
            for a in filler.intersection(self.norm.exists_fillers.get(role, ())):
                told.update(exists_lhs[role, a])
            key = frozenset(told)
            s = self._told_sets.get(key)
            if s is None:
                s = self._told_sets[key] = self._close(told, list(told))
            self._told[role, filler] = s
        return s

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        """Completion of L ⊓ R from the completions of L and R: an axiom
        A1 ⊓ … ⊓ Ak ⊑ B can only add B when some Ai is new from the right,
        and does once the union holds every Ai.  Memoized per pair of
        interned completions."""
        if right <= left:
            return left
        if left <= right:
            return right
        key = (left, right)
        known = self._joins.get(key)
        if known is not None:
            return known
        s = set(left)
        s.update(right)
        queue = []
        conj = self.norm.ax_conj
        for a in right - left:
            for parts, b in conj.get(a, ()):
                if b not in s and parts <= s:
                    s.add(b)
                    queue.append(b)
        self._joins[key] = result = self._close(s, queue)
        return result

    def _close(self, s: set, queue: list) -> frozenset:
        """Closes s, whose atoms outside `queue` are already processed, and
        returns the interned result.  A popped atom brings its saturated
        subsumer set, already closed under every rule but conjunctions with
        a conjunct among its atoms and one in s outside it; each atom new to
        s fires the conjunctions whose conjuncts s then holds."""
        subsumers = self.subsumers
        conj = self.norm.ax_conj
        while queue:
            a = queue.pop()
            new = [a]
            sa = subsumers.get(a)
            if sa is not None:
                new += sa - s
                s |= sa
            for x in new:
                for parts, b in conj.get(x, ()):
                    if b not in s and parts <= s:
                        s.add(b)
                        queue.append(b)
        result = frozenset(s)
        return self._interned.setdefault(result, result)

    def completion_entails(self, s: frozenset, rhs: Concept) -> bool:
        """Whether T entails C ⊑ rhs for a C whose completion is s: rhs is
        ⊤, or s holds rhs's name or ⊥.  rhs must have been registered, as
        itself or in canonical form, and a CiforgeError names it otherwise;
        only ⊤ needs no registration."""
        if isinstance(rhs, Top):
            return True
        target = self.rhs_names.get(rhs)
        if target is None:
            raise CiforgeError(
                f"right-hand side {render_concept(rhs)} is not registered; "
                "pass it to register_rhs first"
            )
        return target in s or _BOT in s

    def entails_registered(self, lhs: Concept, rhs: Concept) -> bool:
        """lhs in any form (⊥ completes to a set that holds ⊥); rhs
        registered, as `completion_entails` asks, whatever the lhs."""
        return self.completion_entails(self.completion(lhs), rhs)

    def entails(self, ci: ConceptInclusion) -> bool:
        self.register_rhs(ci.rhs)
        return self.entails_registered(ci.lhs, ci.rhs)


def entails(tbox, ci: ConceptInclusion) -> bool:
    """T ⊨ C ⊑ D for EL⊥ concept inclusions."""
    return Reasoner(tbox, rhs_concepts=[ci.rhs]).entails(ci)
