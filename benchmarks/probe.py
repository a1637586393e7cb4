"""Child processes of the benchmark, each timed from inside.

    probe.py setup <workload> <seed> <sizes>
        Import what the workload imports and make its first input in a fresh
        interpreter; print the seconds that took.
    probe.py cli <verb> [args...]
        Behave like ``python -m areaconics.cli <verb> [args...]`` (same
        standard output and exit status), then write one line
        ``probe {"import_ms": ..., "run_ms": ..., "numpy_loaded": ...}``
        to standard error.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: str, sizes: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    start = time.perf_counter()
    w = workloads.make(workload, int(seed), sizes, ROOT)
    w.next_input()
    elapsed = time.perf_counter() - start
    w.close()
    print(repr(elapsed))
    return 0


def cli(argv: list[str]) -> int:
    start = time.perf_counter()
    from areaconics import cli as areaconics_cli

    imported = time.perf_counter()
    status = areaconics_cli.run(argv)
    done = time.perf_counter()
    sys.stdout.flush()
    report = {
        "import_ms": (imported - start) * 1e3,
        "run_ms": (done - imported) * 1e3,
        "numpy_loaded": "numpy" in sys.modules,
    }
    print("probe " + json.dumps(report), file=sys.stderr)
    return status


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        raise SystemExit(setup(*sys.argv[2:5]))
    raise SystemExit(cli(sys.argv[2:]))
