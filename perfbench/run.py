"""Benchmark of mining, verification and entailment in `ciforge`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from `src/`.  Each
round runs in a fresh process (`round.py`) with PYTHONHASHSEED set from the
round index, so every commit sees the same hash orders.  Rounds repeat until
the next one would end after `--seconds`; end-to-end metrics are medians
over the rounds, and their times are normalised to the machine's speed at
the time of the round (see reference.py).  With `--trace 1`, each round
index runs twice, untraced and traced, and the per-layer metrics are medians
over the traced rounds.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Workloads, metrics and the layer each
metric belongs to are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("mine_cyclic", "mine_acyclic", "verify_fig3", "entail_stream")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("op_p50_norm_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("base_axioms", "count"),
    ("base_bytes", "B"),
    ("pass_ratio", "ratio"),
)
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170


def run_round(cfg: dict, index: int, timeout: float):
    """(record, error) of one round in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    cfg = dict(cfg, crosscheck=index == 0, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "round.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"round {index} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"round {index} crashed: {tail[0]}"
    return json.loads(lines[-1]), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selfcheck.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ciforge" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'ciforge'} is missing", file=sys.stderr)
        return 2

    cfg = {"workload": args.workload, "seed": args.seed, "toy": args.toy}
    plain, traced, errors = [], [], []
    started = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        round_start = time.monotonic()
        for trace, sink in ((0, plain), (1, traced))[: 1 + args.trace]:
            remaining = DEADLINE_S - (time.monotonic() - started)
            record, error = run_round(dict(cfg, trace=trace), index, remaining)
            if error:
                errors.append(error)
            else:
                sink.append(record)
        index += 1
        longest = max(longest, time.monotonic() - round_start)
        if errors and errors[-1].endswith("timed out"):
            break
        if time.monotonic() - started + longest > args.seconds:
            break

    records = plain + traced
    if not plain or (args.trace and not traced):
        for error in errors:
            print(error, file=sys.stderr)
        print("no round completed; nothing to report", file=sys.stderr)
        return 1

    # Outputs must not depend on the hash seed: compare every round's
    # fingerprint with the first one's.
    expected = records[0]["fingerprint"]
    mismatches = [r["fingerprint"] for r in records[1:] if r["fingerprint"] != expected]
    attempted = sum(r["attempted"] for r in records) + len(errors) + len(records) - 1
    failed = sum(r["failed"] for r in records) + len(errors) + len(mismatches)
    for record in records:
        errors.extend(record["errors"])
    errors.extend(f"fingerprint {f} differs from {expected}" for f in mismatches)

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        ops = [s * r["scale"] for r in plain for s in r["op_s"]] or [normalised(r) for r in plain]
        values = {
            "setup_s": median([normalised(r, "setup_s") for r in plain]),
            "wall_norm_s": median([normalised(r) for r in plain]),
            "op_p50_norm_ms": 1000 * median(ops),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "base_axioms": median([r["base_axioms"] for r in plain]),
            "base_bytes": median([r["base_bytes"] for r in plain]),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if args.trace else ""))
    print(f"fingerprint (attributes, intents, axioms, max role depth): {expected}")
    print("wall_s of each round:", " ".join(f"{r['wall_s']:.4f}" for r in plain))
    print("wall_norm_s of each round:", " ".join(f"{normalised(r):.4f}" for r in plain))
    print("raw setup_s of each round:", " ".join(f"{r['setup_s']:.4f}" for r in plain))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"FAILED: {error}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def normalised(record, key="wall_s") -> float:
    """A time measured in a round, scaled to the nominal machine speed."""
    return record[key] * record["scale"]


def layer_metrics(plain, traced) -> dict:
    from tracing import METRICS

    metrics = {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_ratio":
            value = median([normalised(r) for r in traced]) / median([normalised(r) for r in plain])
        else:
            value = median([r["layers"][name] for r in traced])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
