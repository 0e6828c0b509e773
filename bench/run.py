"""Run one workload of the nestfold benchmark and print its metrics.

    python3 bench/run.py --workload suite-bush --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: String hashing and the address space are randomized per process, and the
#: layouts they pick move nestfold's times by 10-20% from one process to the
#: next, more than the bounds.  Every run uses one hash seed and no address
#: randomization, so that runs compare code rather than memory layouts.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000


def pin_layout() -> None:
    """Re-execute this script once, in place, with the layout pinned."""
    again = os.environ.get("PYTHONHASHSEED") != HASH_SEED
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)
        if current != -1 and not current & ADDR_NO_RANDOMIZE:
            again |= libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    if again:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the generated eval values")
    p.add_argument("--seconds", type=float, required=True, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_layout()
    if not (SRC / "nestfold" / "__init__.py").is_file():
        print(f"error: no nestfold sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(harness.WORKLOADS)})", file=sys.stderr)
        return 2
    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
