"""EL⊥ TBox entailment via completion-rule saturation.

Independent of the mining code: normalizes a TBox to the usual normal forms
(A ⊑ B, A1 ⊓ A2 ⊑ B, A ⊑ ∃r.B, ∃r.A ⊑ B, A ⊑ ⊥), saturates subsumer sets
once, and answers C ⊑ D queries by completing the canonical tree model of C
against the saturated axioms.

Query completions are memoized per subconcept and built compositionally: an
atom is closed from {⊤, A}; ∃r.F from the consequences of an r-edge to the
completion of F; a conjunction C1 ⊓ … ⊓ Cn from the completions of its prefix
C1 ⊓ … ⊓ Cn-1 and of Cn.  Both sides are already closed, so only conjunction
axioms pairing an atom new from Cn with one of the union can fire before the
closure resumes.  Queries enumerated in prefix order (as the completeness
check does) thus cost one such join each.  Equal completions share one
interned frozenset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .concepts import (
    And,
    Atom,
    Bottom,
    Concept,
    ConceptInclusion,
    Exists,
    Top,
    canonicalize,
)

_TOP = "⊤"
_BOT = "⊥"


class _Normalizer:
    """Assigns a stable atom name to every subconcept and emits normal-form
    axioms making the name equivalent to the subconcept."""

    def __init__(self):
        self.names: dict = {}
        self.counter = 0
        self.ax_sub: dict = {}  # A -> [B]          (A ⊑ B)
        self.ax_conj: dict = {}  # A1 -> [(A2, B)]   (A1 ⊓ A2 ⊑ B), both orders
        self.ax_exists_rhs: dict = {}  # A -> [(r, B)]  (A ⊑ ∃r.B)
        self.ax_exists_lhs: dict = {}  # (r, A) -> [B]  (∃r.A ⊑ B)

    def fresh(self) -> str:
        self.counter += 1
        return f"_N{self.counter}"

    def add_sub(self, a, b):
        self.ax_sub.setdefault(a, []).append(b)

    def add_conj(self, a1, a2, b):
        self.ax_conj.setdefault(a1, []).append((a2, b))
        self.ax_conj.setdefault(a2, []).append((a1, b))

    def add_exists_rhs(self, a, role, b):
        self.ax_exists_rhs.setdefault(a, []).append((role, b))

    def add_exists_lhs(self, role, a, b):
        self.ax_exists_lhs.setdefault((role, a), []).append(b)

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
        # Conjunction: name ⊑ each part; parts folded pairwise back to name.
        parts = [self.name_of(d) for d in c.conjuncts]
        for p in parts:
            self.add_sub(name, p)
        acc = parts[0]
        for p in parts[1:-1]:
            nxt = self.fresh()
            self.add_conj(acc, p, nxt)
            acc = nxt
        self.add_conj(acc, parts[-1], name)
        return name

    def add_inclusion(self, ci: ConceptInclusion):
        lhs = canonicalize(ci.lhs)
        rhs = canonicalize(ci.rhs)
        if isinstance(lhs, Bottom) or isinstance(rhs, Top):
            return
        self.add_sub(self.name_of(lhs), self.name_of(rhs))


class Reasoner:
    """Saturates a TBox once; answers arbitrarily many C ⊑ D queries.

    Query right-hand sides should be registered up front, so that their
    recognition axioms take part in the one-time saturation.  `entails`
    registers a new right-hand side lazily, and that discards the saturation
    and the query memo: the next query saturates again from scratch.
    """

    def __init__(self, tbox, rhs_concepts=()):
        self.norm = _Normalizer()
        for ci in sorted(tbox, key=str):
            self.norm.add_inclusion(ci)
        self.rhs_names: dict = {}
        for d in rhs_concepts:
            self.register_rhs(d)
        self.subsumers: dict = {}
        self._saturate()

    # -- saturation --------------------------------------------------------

    def register_rhs(self, d: Concept):
        """Atom name recognizing d.  A right-hand side not seen before adds
        normal-form axioms and drops the saturation, which the next query
        recomputes from scratch."""
        d = canonicalize(d)
        if d not in self.rhs_names:
            self.rhs_names[d] = self.norm.name_of(d)
            self.subsumers = {}
        return self.rhs_names[d]

    def _atoms(self):
        atoms = {_TOP, _BOT}
        atoms.update(self.norm.ax_sub)
        for bs in self.norm.ax_sub.values():
            atoms.update(bs)
        for a, pairs in self.norm.ax_conj.items():
            atoms.add(a)
            for a2, b in pairs:
                atoms.add(a2)
                atoms.add(b)
        for a, pairs in self.norm.ax_exists_rhs.items():
            atoms.add(a)
            for _, b in pairs:
                atoms.add(b)
        for (role, a), bs in self.norm.ax_exists_lhs.items():
            atoms.add(a)
            atoms.update(bs)
        return atoms

    def _saturate(self):
        """Standard completion over one canonical element per atom."""
        norm = self.norm
        subsumers = {a: {a, _TOP} for a in self._atoms()}
        edges: dict = {a: set() for a in subsumers}  # a -> {(role, b)}
        queue = [(a, s) for a in subsumers for s in tuple(subsumers[a])]

        def add(x, c):
            if c not in subsumers[x]:
                subsumers[x].add(c)
                queue.append((x, c))

        edge_queue: list = []

        def add_edge(x, role, b):
            if (role, b) not in edges[x]:
                edges[x].add((role, b))
                edge_queue.append((x, role, b))

        while queue or edge_queue:
            while queue:
                x, c = queue.pop()
                for b in norm.ax_sub.get(c, ()):
                    add(x, b)
                for a2, b in norm.ax_conj.get(c, ()):
                    if a2 in subsumers[x]:
                        add(x, b)
                for role, b in norm.ax_exists_rhs.get(c, ()):
                    add_edge(x, role, b)
            while edge_queue:
                x, role, b = edge_queue.pop()
                for a in tuple(subsumers[b]):
                    for c in norm.ax_exists_lhs.get((role, a), ()):
                        add(x, c)
                if _BOT in subsumers[b]:
                    add(x, _BOT)
                # New subsumers of b discovered later must re-trigger the
                # edge; handled by re-checking successors when b grows.
        # Close under late-growing successors: iterate to a fixpoint.
        changed = True
        while changed:
            changed = False
            for x in subsumers:
                sx = subsumers[x]
                if _BOT in sx:
                    continue
                for role, b in edges[x]:
                    if _BOT in subsumers[b]:
                        sx.add(_BOT)
                        changed = True
                        break
                    # On a self-edge (b == x) sx grows while it is read.
                    for a in tuple(sx) if b == x else subsumers[b]:
                        for c in norm.ax_exists_lhs.get((role, a), ()):
                            if c not in sx:
                                sx.add(c)
                                changed = True
                if _BOT in sx:
                    continue
                for c in tuple(sx):
                    for b2 in norm.ax_sub.get(c, ()):
                        if b2 not in sx:
                            sx.add(b2)
                            changed = True
                    for a2, b2 in norm.ax_conj.get(c, ()):
                        if a2 in sx and b2 not in sx:
                            sx.add(b2)
                            changed = True
                    for role, b2 in norm.ax_exists_rhs.get(c, ()):
                        if (role, b2) not in edges[x]:
                            edges[x].add((role, b2))
                            changed = True
        self.subsumers = subsumers
        self.edges = edges
        # Per-role consequences of pointing at a saturated atom's element.
        self._succ_conseq: dict = {}
        # Query completions per concept, and one shared frozenset per
        # distinct completion; both depend on the axioms saturated here.
        self._completions: dict = {}
        self._interned: dict = {}

    def _conseq_via(self, role: str, atom: str) -> frozenset:
        """Atoms forced on any element with an `role`-edge to atom's canonical
        element (cached)."""
        key = (role, atom)
        cached = self._succ_conseq.get(key)
        if cached is not None:
            return cached
        out = set()
        if _BOT in self.subsumers[atom]:
            out.add(_BOT)
        for a in self.subsumers[atom]:
            out.update(self.norm.ax_exists_lhs.get((role, a), ()))
        result = frozenset(out)
        self._succ_conseq[key] = result
        return result

    # -- queries -----------------------------------------------------------

    def _complete_tree(self, c: Concept) -> frozenset:
        """Subsumer set of the root of C's canonical tree model, completed
        against the saturated TBox; base saturation is never mutated.
        Memoized per concept, with every conjunction prefix memoized too."""
        memo = self._completions
        known = memo.get(c)
        if known is not None:
            return known
        if isinstance(c, And):
            # Fold from the longest memoized prefix (in enumeration order
            # the one just shorter), memoizing each longer prefix.  A loop,
            # not recursion, so wide conjunctions cannot exhaust the stack.
            parts = c.conjuncts
            k = len(parts) - 1
            s = None
            while k > 1:
                s = memo.get(And(parts[:k]))
                if s is not None:
                    break
                k -= 1
            if s is None:
                s = self._complete_tree(parts[0])
            for j in range(k, len(parts)):
                s = self._join(s, self._complete_tree(parts[j]))
                memo[And(parts[: j + 1]) if j + 1 < len(parts) else c] = s
            return s
        if isinstance(c, Exists):
            # Told-child rule: an r-edge to the filler's completion.
            child = self._complete_tree(c.filler)
            s = {_TOP, _BOT} if _BOT in child else {_TOP}
            exists_lhs = self.norm.ax_exists_lhs
            for a in child:
                s.update(exists_lhs.get((c.role, a), ()))
        elif isinstance(c, Atom):
            s = {_TOP, c.name}
        elif isinstance(c, Bottom):
            s = {_TOP, _BOT}
        else:
            s = {_TOP}
        s = self._close(s, list(s))
        memo[c] = s
        return s

    def _join(self, left: frozenset, right: frozenset) -> frozenset:
        """Completion of L ⊓ R from the closed completions of L and R: an
        axiom A1 ⊓ A2 ⊑ B can only add B when A1 is new from the right."""
        if right <= left:
            return left
        if left <= right:
            return right
        s = set(left)
        s.update(right)
        queue = []
        conj = self.norm.ax_conj
        for a in right - left:
            for a2, b in conj.get(a, ()):
                if a2 in s and b not in s:
                    s.add(b)
                    queue.append(b)
        return self._close(s, queue)

    def _close(self, s: set, queue: list) -> frozenset:
        """Closes s, whose atoms outside `queue` are already processed, and
        returns the interned result."""
        norm = self.norm
        while queue:
            a = queue.pop()
            for b in norm.ax_sub.get(a, ()):
                if b not in s:
                    s.add(b)
                    queue.append(b)
            for a2, b in norm.ax_conj.get(a, ()):
                if a2 in s and b not in s:
                    s.add(b)
                    queue.append(b)
            # Derived edge to the canonical base element of b.
            for role, b in norm.ax_exists_rhs.get(a, ()):
                for cq in self._conseq_via(role, b):
                    if cq not in s:
                        s.add(cq)
                        queue.append(cq)
        result = frozenset(s)
        return self._interned.setdefault(result, result)

    def entails_registered(self, lhs: Concept, rhs: Concept) -> bool:
        """lhs, rhs canonical; rhs must have been registered."""
        if isinstance(rhs, Top) or isinstance(lhs, Bottom):
            return True
        target = self.rhs_names[rhs]
        if not self.subsumers:
            self._saturate()
        s = self._complete_tree(lhs)
        return target in s or _BOT in s

    def entails(self, ci: ConceptInclusion) -> bool:
        lhs = canonicalize(ci.lhs)
        rhs = canonicalize(ci.rhs)
        if isinstance(rhs, Top) or isinstance(lhs, Bottom):
            return True
        self.register_rhs(rhs)
        return self.entails_registered(lhs, rhs)


def entails(tbox, ci: ConceptInclusion) -> bool:
    """T ⊨ C ⊑ D for EL⊥ concept inclusions."""
    return Reasoner(tbox, rhs_concepts=[canonicalize(ci.rhs)]).entails(ci)
