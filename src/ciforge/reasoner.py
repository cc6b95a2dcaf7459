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

Saturation runs one worklist over batches of normal-form axioms, with a
predecessor index from each atom to the atoms whose canonical elements point
at it, as in ELK (Kazakov, Krötzsch & Simančík, JAR 2014).  The TBox and the
right-hand sides given up front are the first batch.  A right-hand side
registered later is a batch of the few axioms that name it: they fire on the
saturation already there, which stays, and only the query memos are dropped.

Query completions are built compositionally: an atom is closed from {⊤, A};
∃r.F from the consequences of an r-edge to the completion of F; a
conjunction C1 ⊓ … ⊓ Cn by joining completions of its parts.  Both sides of
a join are already closed, so only conjunction axioms with a conjunct new
from one side can fire, once the union holds all their conjuncts, before
the closure resumes.
Atoms and restrictions are memoized per concept.  Conjunctions are not: a
slot per conjunct count keeps the last conjunction completed, and one whose
prefix C1 ⊓ … ⊓ Cn-1 is in the slot one shorter joins that completion with
the completion of Cn.  Queries in the order of `oracles.enumerate_concepts`
(as the completeness check asks them) thus cost one join each, and no
conjunction on the left of a query is hashed.  Equal completions share one
interned frozenset, and the join of two completions and the completion of
∃r.F are memoized per interned completion (per role and completion of F),
so concepts with equal parts share one closure.

Closing a set reads the saturation: an atom reached brings its saturated
subsumer set S(a) in one union.  S(a) is closed under the sub, ∃ and ⊥ rules
and under the conjunction axioms among its own atoms, so only the
conjunction axioms of the atoms new from S(a) are checked, for conjuncts
already in the set.
"""

from __future__ import annotations

from .concepts import (
    And,
    Atom,
    Bottom,
    Concept,
    ConceptInclusion,
    Exists,
    TOP,
    Top,
    canonicalize,
    render_concept,
)
from .errors import CiforgeError

_TOP = "⊤"
_BOT = "⊥"


class _Normalizer:
    """Assigns a stable atom name to every subconcept and emits normal-form
    axioms making the name equivalent to the subconcept: A ⊑ ∃r.B and
    ∃r.B ⊑ A for a restriction, A ⊑ Ai per conjunct and one n-ary
    A1 ⊓ … ⊓ Ak ⊑ A for a conjunction.

    Every emitted axiom is indexed by its premise, for rule application, and
    appended to `log` as (premise, atoms it mentions), the form in which
    saturation takes it up."""

    def __init__(self):
        self.names: dict = {}
        self.counter = 0
        self.ax_sub: dict = {}  # A -> [B]          (A ⊑ B)
        self.ax_conj: dict = {}  # Ai -> [({A1..Ak}, B)]  (A1 ⊓ … ⊓ Ak ⊑ B)
        self.ax_exists_rhs: dict = {}  # A -> [(r, B)]  (A ⊑ ∃r.B)
        self.ax_exists_lhs: dict = {}  # (r, A) -> [B]  (∃r.A ⊑ B)
        self.log: list = []  # (premise, atoms) per axiom, in emission order

    def fresh(self) -> str:
        self.counter += 1
        return f"_N{self.counter}"

    def add_sub(self, a, b):
        self.ax_sub.setdefault(a, []).append(b)
        self.log.append((a, (a, b)))

    def add_conj(self, parts, b):
        """A1 ⊓ … ⊓ Ak ⊑ b for the atoms `parts`, indexed once under each
        conjunct as (frozenset of the conjuncts, b)."""
        conjuncts = frozenset(parts)
        axiom = (conjuncts, b)
        for a in conjuncts:
            self.ax_conj.setdefault(a, []).append(axiom)
        # One premise suffices: firing the first conjunct on an element
        # checks all the others there.
        self.log.append((parts[0], (*parts, b)))

    def add_exists_rhs(self, a, role, b):
        self.ax_exists_rhs.setdefault(a, []).append((role, b))
        self.log.append((a, (a, b)))

    def add_exists_lhs(self, role, a, b):
        self.ax_exists_lhs.setdefault((role, a), []).append(b)
        self.log.append((a, (a, b)))

    def name_of(self, c: Concept) -> str:
        """Definitional name for c; emits axioms in both directions so the
        name is equivalent to c in every model of the output."""
        if isinstance(c, Top):
            return _TOP
        if isinstance(c, Bottom):
            return _BOT
        if isinstance(c, Atom):
            return c.name
        known = self.names.get(c)
        if known is not None:
            return known
        name = self.fresh()
        self.names[c] = name
        if isinstance(c, Exists):
            filler = self.name_of(c.filler)
            self.add_exists_rhs(name, c.role, filler)
            self.add_exists_lhs(c.role, filler, name)
            return name
        # Conjunction: name ⊑ each part, and all parts together ⊑ name; the
        # empty conjunction is ⊤, so ⊤ ⊑ name.
        parts = [self.name_of(d) for d in c.conjuncts] or [_TOP]
        for p in parts:
            self.add_sub(name, p)
        self.add_conj(parts, name)
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
        # Predecessor index: atom y -> role -> atoms whose canonical element
        # has a role-edge to y's.
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
        """Completion rules over the axioms logged since the last call.

        One worklist of (x, c) pairs: c is a subsumer of x, and the axioms
        with premise c are still to fire on x.  An atom new to the batch
        starts from {a, ⊤}; every (x, c) whose c is a premise of a batch
        axiom goes back on the list, so that the batch fires on the
        saturation already there.  A subsumer c joining S(y) fires the
        axioms ∃r.c ⊑ B, and ⊥ its inheritance, on every r-predecessor of y.
        """
        norm = self.norm
        subsumers = self.subsumers
        preds = self._preds
        batch = norm.log[self._saturated :]
        self._saturated = len(norm.log)
        premises = {premise for premise, _ in batch}
        queue = [(x, c) for x, s in subsumers.items() for c in premises & s]
        atoms = [_TOP, _BOT]
        for _, mentioned in batch:
            atoms += mentioned
        for a in atoms:
            if a not in subsumers:
                subsumers[a] = {a, _TOP}
                queue += ((a, a), (a, _TOP))

        def add(x, c):
            s = subsumers[x]
            if c not in s:
                s.add(c)
                queue.append((x, c))

        while queue:
            x, c = queue.pop()
            for b in norm.ax_sub.get(c, ()):
                add(x, b)
            sx = subsumers[x]
            for parts, b in norm.ax_conj.get(c, ()):
                if b not in sx and parts <= sx:
                    add(x, b)
            for role, y in norm.ax_exists_rhs.get(c, ()):
                into_y = preds.setdefault(y, {}).setdefault(role, set())
                if x not in into_y:
                    into_y.add(x)
                    # Collected before adding: on a self-edge S(y) is S(x).
                    sy = subsumers[y]
                    got = [
                        b for a in sy for b in norm.ax_exists_lhs.get((role, a), ())
                    ]
                    if _BOT in sy:
                        got.append(_BOT)
                    for b in got:
                        add(x, b)
            into_x = preds.get(x)
            if into_x:
                for role, xs in into_x.items():
                    if c == _BOT:
                        got = (_BOT,)
                    else:
                        got = norm.ax_exists_lhs.get((role, c), ())
                    for p in xs:
                        for b in got:
                            add(p, b)
        # Query completions per basic concept, the last conjunction completed
        # per conjunct count, one shared frozenset per distinct completion,
        # and joins and told children per interned completion; all depend on
        # the axioms saturated here.
        self._completions: dict = {}
        self._slots: dict = {}  # conjunct count -> (conjuncts, completion)
        self._interned: dict = {}
        self._joins: dict = {}
        self._told: dict = {}

    # -- queries -----------------------------------------------------------

    def _complete_tree(self, c: Concept) -> frozenset:
        """Subsumer set of the root of C's canonical tree model, completed
        against the saturated TBox; base saturation is never mutated.

        Atoms, Top, Bottom and restrictions are memoized per concept.
        Conjunctions are not: a slot per conjunct count holds the last
        conjunction completed.  That conjunction asked again (the same
        object, as in the completeness check's fallback) is answered from
        its slot.  A conjunction whose conjuncts but the last equal those of
        the slot one shorter costs one join; in the order of
        `oracles.enumerate_concepts` every conjunction of three or more
        conjuncts does.  Any other folds the memoized joins over its
        conjuncts, in a loop, so that wide conjunctions cannot exhaust the
        stack.  A restriction's filler is folded without the slots, which
        stay with the conjunctions queried."""
        if isinstance(c, And):
            parts = c.conjuncts
            slots = self._slots
            last = slots.get(len(parts))
            if last is not None and last[0] is parts:
                return last[1]
            prefix = slots.get(len(parts) - 1)
            if prefix is not None and prefix[0] == parts[:-1]:
                s = self._join(prefix[1], self._complete_tree(parts[-1]))
            else:
                s = self._fold(parts)
            slots[len(parts)] = (parts, s)
            return s
        memo = self._completions
        known = memo.get(c)
        if known is not None:
            return known
        if isinstance(c, Exists):
            # Told-child rule: an r-edge to the filler's completion, which
            # alone decides the result.
            filler = c.filler
            if isinstance(filler, And):
                child = self._fold(filler.conjuncts)
            else:
                child = self._complete_tree(filler)
            s = self._told.get((c.role, child))
            if s is None:
                s = {_TOP, _BOT} if _BOT in child else {_TOP}
                exists_lhs = self.norm.ax_exists_lhs
                for a in child:
                    s.update(exists_lhs.get((c.role, a), ()))
                s = self._told[c.role, child] = self._close(s, list(s))
            memo[c] = s
            return s
        if isinstance(c, Atom):
            s = {_TOP, c.name}
        elif isinstance(c, Bottom):
            s = {_TOP, _BOT}
        else:
            s = {_TOP}
        s = self._close(s, list(s))
        memo[c] = s
        return s

    def _fold(self, parts) -> frozenset:
        """Completion of the conjunction of `parts` (⊤ if none), joined left
        to right."""
        rest = iter(parts)
        s = self._complete_tree(next(rest, TOP))
        for d in rest:
            s = self._join(s, self._complete_tree(d))
        return s

    def _join(self, left: frozenset, right: frozenset) -> frozenset:
        """Completion of L ⊓ R from the closed completions of L and R: an
        axiom A1 ⊓ … ⊓ Ak ⊑ B can only add B when some Ai is new from the
        right, and does once the union holds every Ai.  Memoized per pair of
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

    def entails_registered(self, lhs: Concept, rhs: Concept) -> bool:
        """lhs in any form; rhs must have been registered, as itself or in
        canonical form, and a CiforgeError names it otherwise.  Right-hand
        sides registered since the last query are saturated first."""
        if isinstance(rhs, Top) or isinstance(lhs, Bottom):
            return True
        target = self.rhs_names.get(rhs)
        if target is None:
            raise CiforgeError(
                f"right-hand side {render_concept(rhs)} is not registered; "
                "pass it to register_rhs first"
            )
        if self._saturated < len(self.norm.log):
            self._saturate()
        s = self._complete_tree(lhs)
        return target in s or _BOT in s

    def entails(self, ci: ConceptInclusion) -> bool:
        self.register_rhs(ci.rhs)
        return self.entails_registered(ci.lhs, ci.rhs)


def entails(tbox, ci: ConceptInclusion) -> bool:
    """T ⊨ C ⊑ D for EL⊥ concept inclusions."""
    return Reasoner(tbox, rhs_concepts=[ci.rhs]).entails(ci)
