#!/usr/bin/env python3
"""Mine a base for every built-in fixture and print the mining reports.

Usage: python scripts/mine_fixtures.py [--out DIR]

Each fixture's report ends with a line `sha256 <fixture> <digest>`: the
first 16 hex digits of the sha256 of the base's text, its `tbox_lines`
each ended by a newline (the file `--out` writes, without its `#` lines).
The script imports the `src/` beside it, so the bases two checkouts mine
compare with one command:

    diff <(python A/scripts/mine_fixtures.py | grep ^sha256) \
         <(python B/scripts/mine_fixtures.py | grep ^sha256)
"""

import argparse
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ciforge.fixtures import FIXTURE_NAMES, builtin_fixture
from ciforge.miner import build_base, check_base_sound
from ciforge.storage import save_tbox, tbox_lines


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
        digest = hashlib.sha256()
        for line in tbox_lines(tbox):
            digest.update(line.encode() + b"\n")
        print(f"sha256 {name} {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
