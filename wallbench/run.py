"""Wall-clock benchmark of vet: prove and verify, end to end and per layer.

    python3 wallbench/run.py --workload veritrade --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports ``vet``
from ``src/`` there and refuses to run (exit code 2) without it. See
``wallbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vet" / "__init__.py").is_file():
        print(f"wallbench: no vet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args, SRC)


if __name__ == "__main__":
    sys.exit(main())
