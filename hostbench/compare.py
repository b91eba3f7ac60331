"""Compare two run records metric by metric (layer by layer when traced).

    python3 hostbench/compare.py .hostbench/A.json .hostbench/B.json

Prints each metric of both records with the relative change of B against
A, followed by both records' host-speed probes, so that a drifting host
can be told apart from a changed program.
"""

from __future__ import annotations

import json
import sys


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"{'metric':28} {'unit':6} {'A':>14} {'B':>14} {'B/A-1':>8}")
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        unit = (ma.get(name) or mb.get(name))["unit"]
        change = f"{vb / va - 1:+.1%}" if va and vb is not None else ""
        print(f"{name:28} {unit:6} {_num(va):>14} {_num(vb):>14} {change:>8}")
    for label, record in (("A", a), ("B", b)):
        probe = record["host_probe_s"]
        print(f"{label}: {record['provenance']['workload']} seed "
              f"{record['provenance']['seed']}, host probe "
              f"{probe['start']:.3f}/{probe['end']:.3f} s, "
              f"{record['result']['attempted']} ops, "
              f"{record['result']['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
