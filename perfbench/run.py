"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload selective --seed 1 --seconds 10 --trace 0

``--workload`` is ``selective`` or ``dense`` (see ``BENCHMARK.json``
and ``perfbench/README.md``).  ``--seed`` renumbers and orders each
workload's fixed query list (and draws the served requests of a traced
run); the data graphs are fixed.  Seed 1 is the default seed and seed 2
the held-out seed a claimed gain must also hold on.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--scale`` shrinks the data graphs (the benchmark's own tests run at a
tiny scale); results are only comparable at scale 1.

Lines before the last are details (environment, set-up times, sample
counts, failure share, workload properties).  The last line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when every answer equals the VF2 oracle and no
query failed.  Spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["selective", "dense"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = workloads.run(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        args.scale,
        bool(args.trace),
        SRC,
        OUT,
    )
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"details": run.details}))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(run.metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if run.correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
