#!/usr/bin/env python3
"""Mine a base for every built-in fixture and print the mining reports.

Usage: python scripts/mine_fixtures.py [--out DIR]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.miner import build_base, check_base_sound
from ciforge.storage import save_tbox


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="directory for the mined TBox files")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for name in FIXTURE_NAMES:
        i = builtin_fixture(name)
        t0 = time.perf_counter()
        tbox, report = build_base(i)
        elapsed = time.perf_counter() - t0
        sound = check_base_sound(i, tbox)
        print(f"== {name} ({elapsed:.1f}s, sound={sound})")
        for line in report.summary_lines():
            if not line.startswith("depth "):
                print(f"   {line}")
        if out_dir:
            path = out_dir / f"{name}.owlish"
            save_tbox(tbox, path, report=report)
            print(f"   wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
