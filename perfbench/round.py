"""One round of one workload, run in a fresh process by `run.py`.

A round sets up its inputs, runs the timed section once while it samples the
machine's speed (reference.py), then checks the outputs outside the timed
section.  It prints one JSON record as its last line of output.  Usage
(normally called by run.py only):

    PYTHONHASHSEED=<k> python3 perfbench/round.py '<json config>'
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ciforge  # noqa: E402
from ciforge.concepts import ConceptInclusion  # noqa: E402
from ciforge.storage import tbox_lines  # noqa: E402

import inputs  # noqa: E402
from reference import Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = HERE / "out"

MINE_CYCLIC = (2, 7)  # cycle lengths: 9 elements, chosen depth 98
# Structure seeds of the generated acyclic templates (see inputs.py).
MINE_ACYCLIC = ((3, 10), (5, 10))  # (structure seed, elements)
ENTAIL_BASE = (1, 7)  # (structure seed, elements): a 335-axiom base
ENTAIL_QUERIES = 6
VERIFY_DEPTH = 2
VERIFY_SIZE_CAP = 8
# Concepts enumerated over fig3's signature (5 names, 3 roles) at depth 2.
VERIFY_EXPECTED_CHECKED = {4: 219, 8: 82_701}
# Exact rendering is cross-checked against base_bytes only below this size.
BYTES_CROSSCHECK_LIMIT = 5_000_000

TOY = {
    "mine_cyclic": {"cycles": (2, 3)},
    "mine_acyclic": {"instances": ((3, 5), (4, 6))},
    "verify_fig3": {"size_cap": 4},
    "entail_stream": {"base": (3, 5), "queries": 2},
}


class Ops:
    """Operations attempted in the round and which of them failed."""

    def __init__(self):
        self.ok: list = []
        self.errors: list = []

    def start(self) -> int:
        self.ok.append(True)
        return len(self.ok) - 1

    def fail(self, op: int, why: str):
        if self.ok[op]:
            self.ok[op] = False
            self.errors.append(why)


def interpretation(doc):
    return ciforge.make_interpretation(doc["domain"], doc["concepts"], doc["roles"])


def fingerprint(report):
    return [report.attribute_count, report.intent_count, report.axiom_count, report.max_role_depth]


def check_base(i, tbox, op, ops, crosscheck):
    """Soundness, plus the computed file size against the real rendering."""
    if not ciforge.check_base_sound(i, tbox):
        ops.fail(op, "mined base is not sound")
    size = inputs.base_bytes(tbox)
    if crosscheck and size <= BYTES_CROSSCHECK_LIMIT:
        exact = sum(len(line.encode()) + 1 for line in tbox_lines(tbox))
        if exact != size:
            ops.fail(op, f"base_bytes {size} != rendered size {exact}")
    return size


# ---------------------------------------------------------------------------
# Workloads: setup(cfg, ops) -> state; timed(state, ops, clock) -> op latencies;
# check(state, ops, crosscheck) -> outputs.  Only `timed` is measured.


class MineWorkload:
    def __init__(self, docs):
        self.docs = docs

    def setup(self, cfg, ops):
        return {"instances": [interpretation(d) for d in self.docs], "results": []}

    def timed(self, state, ops, clock):
        latencies = []
        for i in state["instances"]:
            op = ops.start()
            start = clock()
            try:
                result = ciforge.build_base(i, mode="intents")
            except Exception as exc:  # counted as a failed operation
                result = None
                ops.fail(op, f"build_base raised {exc!r}")
            latencies.append(clock() - start)
            state["results"].append((op, i, result))
        return latencies

    def check(self, state, ops, crosscheck):
        out = {"base_axioms": 0, "base_bytes": 0, "fingerprint": []}
        for op, i, result in state["results"]:
            if result is None:
                continue
            tbox, report = result
            out["base_axioms"] += len(tbox)
            out["base_bytes"] += check_base(i, tbox, op, ops, crosscheck)
            out["fingerprint"].append(fingerprint(report))
        return out


def mine_cyclic(seed, toy):
    cycles = TOY["mine_cyclic"]["cycles"] if toy else MINE_CYCLIC
    doc, _ = inputs.relabel(inputs.cyclic_template(cycles), random.Random(seed))
    return MineWorkload([doc])


def mine_acyclic(seed, toy):
    rng = random.Random(seed)
    shapes = TOY["mine_acyclic"]["instances"] if toy else MINE_ACYCLIC
    return MineWorkload([inputs.relabel(inputs.acyclic_template(s, n), rng)[0] for s, n in shapes])


class VerifyFig3:
    def __init__(self, seed, toy):
        fig3 = inputs.document_of(ciforge.builtin_fixture("fig3"))
        self.doc, _ = inputs.relabel(fig3, random.Random(seed))
        self.size_cap = TOY["verify_fig3"]["size_cap"] if toy else VERIFY_SIZE_CAP

    def setup(self, cfg, ops):
        i = interpretation(self.doc)
        op = ops.start()
        tbox, report = ciforge.build_base(i, mode="intents")
        return {"i": i, "tbox": tbox, "mine_op": op, "report": report}

    def timed(self, state, ops, clock):
        op = ops.start()
        start = clock()
        try:
            state["check"] = ciforge.check_base_complete(
                state["i"], state["tbox"], depth=VERIFY_DEPTH, size_cap=self.size_cap
            )
        except Exception as exc:
            state["check"] = None
            ops.fail(op, f"check_base_complete raised {exc!r}")
        state["check_op"] = op
        return [clock() - start]

    def check(self, state, ops, crosscheck):
        size = check_base(state["i"], state["tbox"], state["mine_op"], ops, crosscheck)
        report = state["check"]
        expected = VERIFY_EXPECTED_CHECKED[self.size_cap]
        if report is not None and not (report.complete and report.checked == expected):
            ops.fail(state["check_op"], f"check: complete={report.complete} "
                     f"checked={report.checked} (expected {expected})")
        return {"base_axioms": len(state["tbox"]), "base_bytes": size,
                "fingerprint": [fingerprint(state["report"])]}


class EntailStream:
    def __init__(self, seed, toy):
        structure, n = TOY["entail_stream"]["base"] if toy else ENTAIL_BASE
        template = inputs.acyclic_template(structure, n)
        self.doc, names = inputs.relabel(template, random.Random(seed))
        # The queries are drawn on the template and renamed, so every seed
        # asks the same questions under other names.
        count = TOY["entail_stream"]["queries"] if toy else ENTAIL_QUERIES
        queries = inputs.entailment_queries(template, random.Random(structure), count)
        self.queries = [
            ConceptInclusion(inputs.rename(ci.lhs, names), inputs.rename(ci.rhs, names))
            for ci in queries
        ]

    def setup(self, cfg, ops):
        i = interpretation(self.doc)
        op = ops.start()
        tbox, report = ciforge.build_base(i, mode="intents")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"entail_stream.{os.getpid()}.tbox"
        tracer = Tracer().install() if cfg["trace"] else None
        try:
            ciforge.save_tbox(tbox, path, report)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {"i": i, "tbox": tbox, "report": report, "mine_op": op, "path": path,
                "save_tracer": tracer, "verdicts": []}

    def timed(self, state, ops, clock):
        op = ops.start()
        state["load_op"] = op
        try:
            state["loaded"] = ciforge.load_tbox(state["path"])
            reasoner = ciforge.Reasoner(state["loaded"])
        except Exception as exc:
            state["loaded"] = None
            ops.fail(op, f"loading the base raised {exc!r}")
            return []
        latencies = []
        for ci in self.queries:
            op = ops.start()
            start = clock()
            try:
                verdict = reasoner.entails(ci)
            except Exception as exc:
                verdict = None
                ops.fail(op, f"entails raised {exc!r}")
            latencies.append(clock() - start)
            state["verdicts"].append((op, verdict))
        return latencies

    def check(self, state, ops, crosscheck):
        state["path"].unlink()
        size = check_base(state["i"], state["tbox"], state["mine_op"], ops, crosscheck)
        if state["loaded"] is not None and state["loaded"] != state["tbox"]:
            ops.fail(state["load_op"], "reloaded base differs from the mined one")
        # A sound base rules out a false "yes", a complete one a false "no".
        memo: dict = {}
        for ci, (op, verdict) in zip(self.queries, state["verdicts"]):
            valid = inputs.valid(ci, self.doc, memo)
            if verdict is not None and verdict != valid:
                ops.fail(op, f"entails({ci}) = {verdict}, but validity is {valid}")
        return {"base_axioms": len(state["tbox"]), "base_bytes": size,
                "fingerprint": [fingerprint(state["report"])]}


WORKLOADS = {
    "mine_cyclic": mine_cyclic,
    "mine_acyclic": mine_acyclic,
    "verify_fig3": VerifyFig3,
    "entail_stream": EntailStream,
}


def main(cfg):
    ops = Ops()
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["toy"])
    state = workload.setup(cfg, ops)
    setup_s = time.monotonic() - cfg["spawned"]
    with Sampler() as sampler:
        tracer = Tracer().install() if cfg["trace"] else None
        start = sampler.clock()
        try:
            latencies = workload.timed(state, ops, sampler.clock)
        finally:
            wall_s = sampler.clock() - start
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = workload.check(state, ops, cfg["crosscheck"])
    record.update(
        setup_s=setup_s,
        wall_s=wall_s,
        scale=sampler.scale(),
        op_s=latencies,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops.ok),
        failed=ops.ok.count(False),
        errors=ops.errors,
    )
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s)
        save_tracer = state.get("save_tracer")
        if save_tracer is not None:
            # The base is saved during set-up; its span is the only one
            # reported from outside the timed section.
            layers["storage.save_tbox.s"] = save_tracer.stats["storage.save_tbox"][1]
        record["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{cfg['workload']}.spans.jsonl")
    print(json.dumps(record))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
