"""Spans around calls into each `ciforge` module, recorded from outside.

`Tracer.install()` replaces every traced function at each module where its
name is bound, because modules import by name: patching only
`ciforge.mmsc.product_reachable` would miss `ciforge.miner`'s own binding of
a function it imported.  Methods are patched on their class.  A span holds
name, start, end and parent id; spans stay in memory until `write_spans`.

Recursive functions count every call but open a span only for the outermost
one, so their inclusive time is not counted twice.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time

SPAN_CAP = 100_000

# (module, attribute, metric prefix, recursive)
TARGETS = (
    ("ciforge.simulation", "equivalent_empty", "simulation.equivalent_empty", False),
    ("ciforge.simulation", "subsumed_empty", "simulation.subsumed_empty", False),
    ("ciforge.simulation", "semantic_extension", "simulation.semantic_extension", True),
    ("ciforge.graphs", "tree_of_concept", "graphs.tree_of_concept", False),
    ("ciforge.graphs", "DescriptionTree.__init__", "graphs.DescriptionTree", False),
    ("ciforge.graphs", "unravel", "graphs.unravel", False),
    ("ciforge.graphs", "concept_of_tree", "graphs.concept_of_tree", False),
    ("ciforge.graphs", "graph_of_interpretation", "graphs.graph_of_interpretation", False),
    ("ciforge.graphs", "product_reachable", "graphs.product_reachable", False),
    ("ciforge.mvf", "scc", "mvf.scc", False),
    ("ciforge.mvf", "mvf", "mvf.mvf", False),
    ("ciforge.mvf", "mmvf", "mvf.mmvf", False),
    ("ciforge.mmsc", "adaptable_depth", "mmsc.adaptable_depth", False),
    ("ciforge.mmsc", "bounded_walks", "mmsc.bounded_walks", False),
    ("ciforge.mmsc", "mmsc_adaptive", "mmsc.mmsc_adaptive", False),
    ("ciforge.mmsc", "mmsc_at_depth", "mmsc.mmsc_at_depth", False),
    ("ciforge.miner", "attribute_set", "miner.attribute_set", False),
    ("ciforge.miner", "enumerate_intents", "miner.enumerate_intents", False),
    ("ciforge.miner", "build_base", "miner.build_base", False),
    ("ciforge.miner", "check_base_complete", "miner.check_base_complete", False),
    ("ciforge.oracles", "enumerate_concepts", "oracles.enumerate_concepts", False),
    ("ciforge.reasoner", "Reasoner.__init__", "reasoner.Reasoner", False),
    ("ciforge.reasoner", "Reasoner._saturate", "reasoner.saturate", False),
    ("ciforge.reasoner", "Reasoner._complete_tree", "reasoner.complete_tree", True),
    ("ciforge.reasoner", "Reasoner.register_rhs", "reasoner.register_rhs", False),
    ("ciforge.reasoner", "Reasoner.entails_registered", "reasoner.entails_registered", False),
    ("ciforge.reasoner", "Reasoner.entails", "reasoner.entails", False),
    ("ciforge.storage", "load_tbox", "storage.load_tbox", False),
    ("ciforge.storage", "save_tbox", "storage.save_tbox", False),
    ("ciforge.concepts", "parse_concept", "concepts.parse_concept", False),
    ("ciforge.concepts", "canonicalize", "concepts.canonicalize", True),
    ("ciforge.concepts", "render_concept", "concepts.render_concept", True),
)

# Time shares of the timed section: the union of the spans of each group,
# so nested members of one group are not counted twice.
GROUPS = {
    "share.simulation_trees": (
        "simulation.equivalent_empty", "simulation.subsumed_empty",
        "simulation.semantic_extension", "graphs.tree_of_concept",
        "graphs.DescriptionTree", "graphs.unravel", "graphs.concept_of_tree",
    ),
    "share.mmsc_mvf_graph": (
        "mmsc.adaptable_depth", "mmsc.bounded_walks", "mmsc.mmsc_adaptive",
        "mmsc.mmsc_at_depth", "mvf.scc", "mvf.mvf", "mvf.mmvf",
        "graphs.graph_of_interpretation",
    ),
    "share.entails_registered": ("reasoner.entails_registered",),
    "share.saturate": ("reasoner.saturate",),
}

# (name, unit, better): every per-layer metric a traced run reports.
METRICS = tuple(
    [(f"{p}.{k}", "s" if k in ("s", "self_s") else "count",
      "higher" if k in ("checked", "concepts") else "lower")
     for p, keys in (
         ("simulation.equivalent_empty", ("calls", "s")),
         ("simulation.subsumed_empty", ("calls", "s")),
         ("simulation.semantic_extension", ("calls", "s")),
         ("graphs.tree_of_concept", ("calls", "s")),
         ("graphs.DescriptionTree", ("calls", "s")),
         ("graphs.unravel", ("calls", "s", "nodes")),
         ("graphs.concept_of_tree", ("calls", "s")),
         ("graphs.graph_of_interpretation", ("calls", "s")),
         ("graphs.product_reachable", ("calls", "s", "vertices")),
         ("mvf.scc", ("calls", "s")),
         ("mvf.mvf", ("calls", "s")),
         ("mvf.mmvf", ("calls",)),
         ("mmsc.adaptable_depth", ("calls", "s", "self_s")),
         ("mmsc.bounded_walks", ("calls", "s")),
         ("mmsc.mmsc_adaptive", ("calls", "s")),
         ("mmsc.mmsc_at_depth", ("calls", "s")),
         ("mmsc.chosen_depth", ("max",)),
         ("miner.attribute_set", ("s", "self_s")),
         ("miner", ("candidates", "attributes")),
         ("miner.enumerate_intents", ("s",)),
         ("miner", ("intents",)),
         ("miner.build_base", ("self_s",)),
         ("miner.check_base_complete", ("s", "self_s")),
         ("miner", ("checked",)),
         ("oracles.enumerate_concepts", ("s",)),
         ("oracles", ("concepts",)),
         ("reasoner.entails_registered", ("calls", "s")),
         ("reasoner.complete_tree", ("calls",)),
         ("reasoner.Reasoner", ("calls", "s")),
         ("reasoner.saturate", ("calls", "s")),
         ("reasoner.register_rhs", ("calls",)),
         ("reasoner.entails", ("calls", "s")),
         ("reasoner", ("atoms",)),
         ("storage.load_tbox", ("s",)),
         ("storage.save_tbox", ("s",)),
         ("concepts.parse_concept", ("calls", "s")),
         ("concepts.canonicalize", ("calls", "s")),
         ("concepts.render_concept", ("calls", "s")),
     )
     for k in keys]
    + [
        ("mmsc.depth_reports_per_subset", "ratio", "lower"),
        ("miner.dedup_keep_ratio", "ratio", "higher"),
        ("reasoner.complete_per_query", "ratio", "lower"),
    ]
    + [(name, "ratio", "lower") for name in GROUPS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    def __init__(self):
        # metric prefix -> [calls, inclusive s, self s, open calls]
        self.stats = {name: [0, 0.0, 0.0, 0] for _, _, name, _ in TARGETS}
        self.counters: dict = {}
        self.group_depth = {g: 0 for g in GROUPS}
        self.group_s = {g: 0.0 for g in GROUPS}
        self.group_of = {member: group for group, members in GROUPS.items() for member in members}
        self.stack: list = []  # open frames: [span id, seconds covered by children]
        self.spans: list = []  # (id, parent id, name, start, end)
        self.dropped = 0  # spans past SPAN_CAP
        self.ids = itertools.count()
        self._patched: list = []
        self.origin = time.perf_counter()
        # Counters fed from a layer's arguments and result: name -> f(args, result).
        self.observers = {
            "graphs.unravel": lambda args, r: self._bump("graphs.unravel.nodes", len(r.graph.vertices)),
            "graphs.product_reachable": lambda args, r: self._bump(
                "graphs.product_reachable.vertices", len(r.vertices)),
            "mmsc.adaptable_depth": self._observe_depth,
            "miner.attribute_set": self._observe_attribute_set,
            "miner.enumerate_intents": lambda args, r: self._bump("miner.intents", len(r.intents)),
            "miner.check_base_complete": lambda args, r: self._bump("miner.checked", r.checked),
            "reasoner.saturate": lambda args, r: self._maximum("reasoner.atoms", len(args[0].subsumers)),
            "simulation.semantic_extension": self._observe_extension,
        }

    # -- counters fed from arguments and results ---------------------------

    def _bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _in_attribute_set(self):
        return self.stats["miner.attribute_set"][3] > 0

    def _observe_depth(self, args, report):
        self._maximum("mmsc.chosen_depth.max", report.chosen_depth)
        if self._in_attribute_set():
            self._bump("mmsc.adaptable_depth.in_attribute_set")

    def _observe_attribute_set(self, args, attributes):
        self._bump("miner.attributes", len(attributes))
        self._bump("miner.subsets", 2 ** len(args[0].domain) - 1)

    def _observe_extension(self, args, extension):
        # Each outermost extension evaluated by attribute_set is a candidate.
        if self._in_attribute_set():
            self._bump("miner.candidates")

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, recursive, record=True, count=True):
        """Wrapper that runs fn as one span of `name`.  The hot path is
        inlined: the wrapper's own cost lands in its caller's self time."""
        tracer = self
        stat = self.stats[name]
        observe = self.observers.get(name)
        group = self.group_of.get(name)
        group_depth = self.group_depth
        group_s = self.group_s
        stack = self.stack
        spans = self.spans
        new_id = self.ids.__next__
        origin = self.origin
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count:
                stat[0] += 1
            if recursive and stat[3]:
                return fn(*args, **kwargs)
            if group is not None:
                root = not group_depth[group]
                group_depth[group] += 1
            parent = stack[-1] if stack else None
            frame = [new_id(), 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stat[3] -= 1
                stack.pop()
                duration = end - start
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if group is not None:
                    group_depth[group] -= 1
                    if root:
                        group_s[group] += duration
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], parent[0] if parent is not None else -1,
                                      name, start - origin, end - origin))
                    else:
                        tracer.dropped += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """Times each step of a generator (the consumer may interleave other
        calls between steps) and counts the items it yields; steps add to the
        layer's time but record no span each."""
        stat = self.stats[name]
        step = self._wrap(name, next, False, record=False, count=False)
        count_key = name.split(".")[0] + ".concepts"
        counters = self.counters

        def traced(*args, **kwargs):
            stat[0] += 1
            inner = fn(*args, **kwargs)

            def steps():
                items = 0
                try:
                    while True:
                        try:
                            item = step(inner)
                        except StopIteration:
                            return
                        items += 1
                        yield item
                finally:
                    counters[count_key] = counters.get(count_key, 0) + items

            return steps()

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "ciforge" or k.startswith("ciforge.")]
        for module_name, attr, name, recursive in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, recursive))
                continue
            original = owner.__dict__[attr]
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, recursive)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Every per-layer metric except trace.overhead_ratio, which needs an
        untraced run."""
        values = dict(self.counters)
        for name, (calls, incl, self_s, _) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = incl
            values[f"{name}.self_s"] = self_s

        def ratio(num, den):
            return num / den if den else 0.0

        values["mmsc.depth_reports_per_subset"] = ratio(
            self.counters.get("mmsc.adaptable_depth.in_attribute_set", 0),
            self.counters.get("miner.subsets", 0),
        )
        values["miner.dedup_keep_ratio"] = ratio(
            self.counters.get("miner.attributes", 0), self.counters.get("miner.candidates", 0)
        )
        values["reasoner.complete_per_query"] = ratio(
            values["reasoner.complete_tree.calls"], values["reasoner.entails_registered.calls"]
        )
        for group, covered in self.group_s.items():
            values[group] = ratio(covered, wall_s)
        return {name: values.get(name, 0) for name, _, _ in METRICS if name != "trace.overhead_ratio"}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": round(start, 7), "end": round(end, 7)}) + "\n")
