"""Run one workload of the end-to-end serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gdpr-storm --seed 1 --seconds 10 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exits 1 when an output check fails, 2 when the program
under test is missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is perfbench/ itself; import it as a
    # package from the repository root instead.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # A terminated run still stops its readers and unlinks its segments.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for note in result.notes:
        print(f"# {note}")
    shown = {**result.end_to_end, **result.printed, **result.layers}
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    reported = result.layers if args.trace else result.end_to_end
    payload = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(payload))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
