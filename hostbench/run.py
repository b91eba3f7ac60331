"""Host benchmark of the MAD reproduction: one workload, one closed loop.

Usage (from the repository root)::

    python3 hostbench/run.py --workload bootstrap|request|simfhe \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``op_s``,
``setup_s``, ``peak_rss_mb``, ``precision_bits``); with ``--trace 1`` a
run alternating untraced and traced ops gives the per-layer ones.  The
full run record (provenance, every op's latency, host-speed probes,
spans) is written to ``.hostbench/`` in the working directory.
See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pinned before the interpreter starts (PYTHONHASHSEED) or before numpy
# loads its BLAS (thread counts); run.py re-executes itself to apply them.
# HOSTBENCH_EXEC marks the re-executed process.
PINNED_ENV = {
    "HOSTBENCH_EXEC": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_KERNELS": "on",
}


# personality(2) flag that turns address-space layout randomization off.
ADDR_NO_RANDOMIZE = 0x0040000


def fix_address_layout() -> None:
    """Turn off address-space layout randomization for the next exec.

    With it on, each process lands its interpreter, heap and stack at
    random addresses, and the layout alone moved a whole run's ops by up
    to 17%.  Where personality(2) is unavailable the layout stays random;
    the run record's ``address_layout_fixed`` says which.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona >= 0:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (AttributeError, OSError):
        pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("bootstrap", "request", "simfhe")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # The memsim report's provenance runs git; keep it inside the checkout.
    pinned = {**PINNED_ENV, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    if os.environ.get("HOSTBENCH_EXEC") != "1":
        fix_address_layout()
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **pinned},
        )
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    record = run_workload(workload, args.seconds, bool(args.trace))
    record["provenance"]["argv"] = sys.argv[1:]

    out_dir = Path.cwd() / ".hostbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
