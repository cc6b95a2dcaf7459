"""Self-check of the benchmark: every workload at toy size, traced.

    python3 perfbench/selfcheck.py

Fails (exit code 1) when a run is not correct, when BENCHMARK.json and the
metric tables in run.py and tracing.py disagree, or when a per-layer metric
that a workload must exercise reads zero.  A zero there means a wrapper was
bypassed, for instance by a module that binds the function under another
name, or by `import ciforge.mvf`, which yields the function `mvf` and not
the module.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import METRICS  # noqa: E402

MINING = (
    "simulation.equivalent_empty.calls", "simulation.subsumed_empty.calls",
    "simulation.semantic_extension.calls", "graphs.tree_of_concept.calls",
    "graphs.DescriptionTree.calls", "graphs.unravel.calls", "graphs.unravel.nodes",
    "graphs.concept_of_tree.calls", "graphs.graph_of_interpretation.calls",
    "graphs.product_reachable.calls", "graphs.product_reachable.vertices",
    "mvf.scc.calls", "mvf.mvf.calls", "mmsc.adaptable_depth.calls",
    "mmsc.bounded_walks.calls", "mmsc.mmsc_adaptive.calls", "mmsc.mmsc_at_depth.calls",
    "mmsc.chosen_depth.max", "mmsc.depth_reports_per_subset", "miner.attribute_set.s",
    "miner.candidates", "miner.attributes", "miner.dedup_keep_ratio",
    "miner.enumerate_intents.s", "miner.intents", "miner.build_base.self_s",
    "concepts.render_concept.calls", "share.simulation_trees", "share.mmsc_mvf_graph",
)
QUERYING = (
    "reasoner.Reasoner.calls", "reasoner.saturate.calls", "reasoner.register_rhs.calls",
    "reasoner.entails_registered.calls", "reasoner.complete_tree.calls",
    "reasoner.complete_per_query", "reasoner.atoms", "concepts.canonicalize.calls",
    "share.entails_registered", "share.saturate",
)
MUST_FIRE = {
    # mmvf runs only on the cyclic branch of the adaptable depth.
    "mine_cyclic": MINING + ("mvf.mmvf.calls",),
    "mine_acyclic": MINING,
    "verify_fig3": QUERYING + (
        "miner.check_base_complete.s", "miner.checked", "oracles.enumerate_concepts.s",
        "oracles.concepts", "simulation.semantic_extension.calls", "mmsc.mmsc_at_depth.calls",
    ),
    "entail_stream": QUERYING + (
        "reasoner.entails.calls", "storage.load_tbox.s", "storage.save_tbox.s",
        "concepts.parse_concept.calls",
    ),
}


def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in doc["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] != list(METRICS):
        problems.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    return problems


def main() -> int:
    problems = declared_metrics()
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "1", "--toy"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: exit code {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            problems.append(f"{workload}: outputs not correct:\n{proc.stdout}")
        metrics = result["metrics"]
        for name, _, _ in METRICS:
            if name not in metrics:
                problems.append(f"{workload}: metric {name} missing")
        for name in MUST_FIRE[workload]:
            if not metrics.get(name, {}).get("value"):
                problems.append(f"{workload}: {name} is zero")
        print(f"{workload}: {len(MUST_FIRE[workload])} layer metrics fired")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
