"""The closed loop, its metrics and the run record."""

from __future__ import annotations

import contextlib
import gc
import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from spans import Recorder, layer_totals, top_level_time

#: Untraced and traced ops a traced run makes at least, each.
TRACE_MIN_OPS = 2

END_TO_END_UNITS = {
    "op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "precision_bits": "bits",
}

# Per-layer metric -> span whose per-op self time it reports.
SELF_TIME_METRICS = {
    "kernels.ntt_s": "kernels.ntt",
    "kernels.basis_conv_s": "kernels.basis_conv",
    "ring.pointwise_s": "ring.pointwise",
    "ring.automorph_s": "ring.automorph",
    "ring.modswitch_s": "ring.modswitch",
    "ring.construct_s": "ring.construct",
    "numth.crt_s": "numth.crt",
    "ckks.sample_s": "ckks.sample",
    "ckks.encode_s": "ckks.encode",
    "ckks.decode_s": "ckks.decode",
    "ckks.encrypt_s": "ckks.encrypt",
    "ckks.decrypt_s": "ckks.decrypt",
    "ckks.decomp_s": "ckks.decomp",
    "ckks.modup_s": "ckks.modup",
    "ckks.kskip_s": "ckks.kskip",
    "ckks.moddown_s": "ckks.moddown",
    "ckks.rotate_s": "ckks.rotate",
    "ckks.hoisted_s": "ckks.hoisted",
    "ckks.mult_s": "ckks.mult",
    "ckks.pt_mult_s": "ckks.pt_mult",
    "ckks.rescale_s": "ckks.rescale",
    "bootstrap.modraise_s": "bootstrap.modraise",
    "bootstrap.c2s_s": "bootstrap.c2s",
    "bootstrap.evalmod_s": "bootstrap.evalmod",
    "bootstrap.s2c_s": "bootstrap.s2c",
    "search.find_s": "search.find",
    "perf.bootstrap_model_s": "perf.bootstrap_model",
    "memsim.validate_s": "memsim.validate",
    "memsim.replay_s": "memsim.replay",
    "serve.scenario_s": "serve.scenario",
}

# Per-layer metric -> counter, per traced op.
COUNT_METRICS = {
    "kernels.ntt_rows": "kernels.ntt.rows",
    "ring.pointwise_calls": "ring.pointwise.calls",
    "ring.automorph_calls": "ring.automorph.calls",
    "numth.crt_calls": "numth.crt.calls",
    "ckks.keyswitch_calls": "ckks.kskip.calls",
    "search.points": "search.find.points",
    "memsim.events": "memsim.replay.events",
    "serve.requests": "serve.scenario.requests",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "search.points_per_s": "1/s",
    "memsim.events_per_s": "1/s",
    "serve.requests_per_s": "1/s",
    "sweep.memo_hit_rate": "ratio",
    "ckks.keygen_s": "s",
    "bootstrap.build_s": "s",
    "setup.sample_s": "s",
    "ckks.keys_mb": "MB",
    "py.gc_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}

MB = 2**20


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; report-only host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def address_layout_fixed() -> bool:
    """Whether this process runs with address-space randomization off."""
    try:
        persona = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return False
    return bool(persona & 0x0040000)


def provenance(workload) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(Path.cwd()),
        "env": {k: os.environ.get(k) for k in ("PYTHONHASHSEED", "OMP_NUM_THREADS")},
        "address_layout_fixed": address_layout_fixed(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


class Loop:
    """Runs ops back to back and keeps every op's latency and verdict."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.ops: List[Dict[str, Any]] = []
        self.start = time.perf_counter()

    def more(self, min_ops: int) -> bool:
        """Whether to start another op: always below ``min_ops``, then
        only while the median op still fits in the run's time."""
        if len(self.ops) < min_ops:
            return True
        elapsed = time.perf_counter() - self.start
        typical = statistics.median(op["latency_s"] for op in self.ops)
        return elapsed + typical <= self.seconds

    def run_op(self, recorder: Optional[Recorder] = None) -> None:
        i = len(self.ops)
        ok, bits, out = False, None, None
        # Wrappers go in before the clock starts and out after it stops.
        with recorder.active(i) if recorder else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with recorder.span("op") if recorder else contextlib.nullcontext():
                    out = self.workload.op(i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            latency = time.perf_counter() - start
        if out is not None:
            try:
                ok, bits = self.workload.check(i, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        self.ops.append({
            "latency_s": latency, "ok": ok, "bits": bits,
            "traced": recorder is not None,
        })

    def counts(self) -> Dict[str, int]:
        failed = sum(1 for op in self.ops if not op["ok"])
        return {"attempted": len(self.ops), "failed": failed}


def median_latency(ops: List[Dict[str, Any]]) -> float:
    return statistics.median(op["latency_s"] for op in ops)


def import_layers(workload) -> None:
    """Import the workload's modules, so that set-up time leaves them out."""
    for module in workload.imports:
        importlib.import_module(module)


def run_plain(workload, seconds: float) -> Dict[str, Any]:
    import_layers(workload)
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    gc.collect()
    loop = Loop(workload, seconds)
    while loop.more(workload.pool):
        loop.run_op()
    bits = [op["bits"] for op in loop.ops if op["bits"] is not None]
    metrics = {
        "op_s": median_latency(loop.ops),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "precision_bits": min(bits) if bits else 0.0,
    }
    return {"ops": loop.ops, **loop.counts(), "metrics": metrics}


def run_traced(workload, seconds: float) -> Dict[str, Any]:
    """One traced set-up, then untraced and traced ops in turn."""
    recorder = Recorder()
    import_layers(workload)
    with recorder.active("setup"), recorder.span("setup"):
        workload.setup()
    gc.collect()
    loop = Loop(workload, seconds)
    # Op 0 fills lazy caches (restricted keys, kernel plans) and belongs
    # to neither side of the overhead ratio; then ops alternate.
    while loop.more(1 + 2 * TRACE_MIN_OPS):
        loop.run_op(recorder if len(loop.ops) % 2 == 0 and loop.ops else None)
    traced = [i for i, op in enumerate(loop.ops) if op["traced"]]
    plain = [op for op in loop.ops[1:] if not op["traced"]]
    metrics = layer_metrics(recorder, traced)
    traced_s = median_latency([loop.ops[i] for i in traced])
    metrics["trace.overhead"] = traced_s / median_latency(plain) - 1
    metrics["ckks.keys_mb"] = workload.keys_bytes / MB
    per_op_counts = [dict(recorder.counts.get(i, {})) for i in traced]
    return {
        "ops": loop.ops,
        **loop.counts(),
        "counts_repeat": all(c == per_op_counts[0] for c in per_op_counts),
        "per_op_counts": per_op_counts,
        "spans": recorder.spans,
        "metrics": metrics,
    }


def layer_metrics(recorder: Recorder, traced: List[int]) -> Dict[str, float]:
    """Per traced op: layer self times, counts, rates; set-up layers."""
    n = len(traced)
    totals = layer_totals(recorder, traced)
    counts = recorder.counts.get(traced[0], {})
    metrics = {name: float(totals[span]) / n for name, span in SELF_TIME_METRICS.items()}
    metrics.update({name: counts.get(key, 0) for name, key in COUNT_METRICS.items()})

    def rate(count: str, span: str) -> float:
        seconds = sum(top_level_time(recorder, span, op) for op in traced) / n
        return metrics[count] / seconds if seconds else 0.0

    metrics["search.points_per_s"] = rate("search.points", "search.find")
    metrics["memsim.events_per_s"] = rate("memsim.events", "memsim.replay")
    metrics["serve.requests_per_s"] = rate("serve.requests", "serve.scenario")
    lookups = counts.get("sweep.memo.lookups", 0)
    metrics["sweep.memo_hit_rate"] = counts.get("sweep.memo.hits", 0) / lookups if lookups else 0.0

    setup = layer_totals(recorder, ["setup"])
    metrics["ckks.keygen_s"] = top_level_time(recorder, "ckks.keygen", "setup")
    metrics["bootstrap.build_s"] = float(setup["bootstrap.build"])
    metrics["setup.sample_s"] = float(setup["ckks.sample"])

    metrics["py.gc_s"] = sum(recorder.gc_s.get(i, 0.0) for i in traced) / n
    metrics["trace.unattributed_s"] = totals["op"] / n
    return metrics


def run_workload(workload, seconds: float, traced: bool) -> Dict[str, Any]:
    probe_start = host_probe()
    body = run_traced(workload, seconds) if traced else run_plain(workload, seconds)
    probe_end = host_probe()
    metrics = body.pop("metrics")
    result = {
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {
            k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())
        },
    }
    return {
        "result": result,
        "provenance": provenance(workload),
        "host_probe_s": {"start": probe_start, "end": probe_end},
        **body,
    }
