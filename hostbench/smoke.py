"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 hostbench/smoke.py

Checks, for every workload at N=2^6 and a 20-candidate search:

* untraced and traced runs print exactly the metric names and units
  that ``BENCHMARK.json`` declares, with no failed op;
* two traced runs report identical per-op counts, and every traced op
  within a run has the same counts;
* a corrupted result - decrypting with the wrong secret key - is counted
  as a failed op.

Exits 1 and lists the failures when a check does not hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import COUNT_METRICS, run_workload  # noqa: E402
from workloads import (  # noqa: E402
    BootstrapWorkload, RequestWorkload, SimfheWorkload,
)

TINY = {
    "bootstrap": lambda: BootstrapWorkload(0, log_n=6, pool=2, floor_bits=4.0),
    "request": lambda: RequestWorkload(0, log_n=6, pool=2, floor_bits=4.0),
    "simfhe": lambda: SimfheWorkload(
        0,
        candidates=20,
        primitives=("decomp", "mod_down"),
        scenario="micro",
        expected_best=(17, 50, 25, 1, 3),
    ),
}
# Short enough that every run stops at its minimum op count.
SECONDS = 0.01


def declared(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    errors = []
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name, make in TINY.items():
        plain = run_workload(make(), SECONDS, traced=False)["result"]
        traced = [run_workload(make(), SECONDS, traced=True) for _ in range(2)]
        for result, expected in [(plain, end_to_end)] + [
            (t["result"], per_layer) for t in traced
        ]:
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                errors.append(f"{name}: metrics {sorted(set(units) ^ set(expected))} "
                              f"or their units differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                errors.append(f"{name}: {result['failed']} failed ops")
        if not all(t["counts_repeat"] for t in traced):
            errors.append(f"{name}: counts differ between traced ops of one run")
        counts = [
            {k: t["result"]["metrics"][k]["value"] for k in (*COUNT_METRICS, "ckks.keys_mb")}
            for t in traced
        ]
        if counts[0] != counts[1]:
            errors.append(f"{name}: counts differ between traced runs: {counts}")

    from repro.ckks import Decryptor, KeyGenerator

    corrupted = TINY["request"]()
    corrupted.setup()
    wrong_key = KeyGenerator(corrupted.context).secret_key
    corrupted.setup = lambda: setattr(
        corrupted, "decryptor", Decryptor(corrupted.context, wrong_key)
    )
    result = run_workload(corrupted, SECONDS, traced=False)["result"]
    if result["correct"] or result["failed"] != result["attempted"]:
        errors.append(f"wrong-key decryption was not counted as failed: {result}")

    for error in errors:
        print("FAIL", error)
    print("smoke:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
