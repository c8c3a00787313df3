"""Rewrite references.json: the default-seed output digests of every workload.

Run from the repository root only after a change that is meant to alter the
mathematical results (a triangulation, coloring, discharge transcript,
oracle value or check status):

    python3 perfbench/refresh_references.py

Each workload runs in its own process for one pass over its inputs; a run
with a failed item writes nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    refs = {}
    for name in run.WORKLOAD_NAMES:
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            f"out = run.measure({name!r}, run.DEFAULT_SEED, 0.0, False, {{}}); "
            "print(json.dumps([out['result']['failed'], out['digests']]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(run.HERE)],
            capture_output=True, text=True, check=True,
        )
        failed, digests = json.loads(proc.stdout.strip().splitlines()[-1])
        if failed:
            print(f"{name}: {failed} failed items; references not written", file=sys.stderr)
            return 1
        refs[name] = digests
        print(f"{name}: {len(digests)} digests")
    Path(run.REFERENCES).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
