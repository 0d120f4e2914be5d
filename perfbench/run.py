"""The width service's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload hit|miss|solve --seed N \\
        --seconds S --trace 0|1

Run from the root of the repository.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones (the
traced run also writes its spans to ``perfbench/out/``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("hit", "miss", "solve")
# A traced run whose layer spans account for less of the operations'
# time than this does not describe them, and is marked incorrect.
COVERAGE_FLOOR = 0.9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    import common

    if args.workload == "hit":
        import hit as workload
    elif args.workload == "miss":
        import miss as workload
    else:
        import solve as workload

    result = workload.run(args.seed, args.seconds, bool(args.trace))
    correct, attempted, failed = result[:3]
    if args.trace:
        values, spans, summary = result[3:]
        path = common.OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        spans.write(path, summary)
        coverage = values["trace.coverage"]
        common.note(f"spans written to {path}; coverage {coverage:.3f}")
        if coverage < COVERAGE_FLOOR:
            common.note(f"the layer spans cover less than {COVERAGE_FLOOR} "
                        "of the time inside operations")
            correct = False
        metrics = common.per_layer(values)
    else:
        metrics = result[3]
    common.emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
