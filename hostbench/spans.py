"""The benchmark's own span recorder and the layer instrumentation table.

Tracing wraps public functions of every layer at run time, from this
file, and changes nothing under ``src/``.  A span is one call: name,
start, end, parent span and the id of the op (or ``"setup"``) it ran in.
Spans stay in memory; ``harness.layer_metrics`` folds them into per-layer
self times and per-op counts when the run ends.  The recorder is kept
independent of ``repro.obs`` so that a change to ``obs`` cannot change
what the benchmark measures.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span fields, stored as lists for speed: [name, start, end, parent, op].
NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Any, Counter] = {}
        self.gc_s: Dict[Any, float] = {}
        self.op: Any = "setup"
        self._stack: List[int] = []
        self._gc_start = 0.0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.setdefault(self.op, Counter())[name] += amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            elapsed = time.perf_counter() - self._gc_start
            self.gc_s[self.op] = self.gc_s.get(self.op, 0.0) + elapsed

    @contextmanager
    def active(self, op: Any) -> Iterator[None]:
        """Install the layer wrappers and the GC timer for one phase."""
        self.op = op
        patches = install(self)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            uninstall(patches)


# ----------------------------------------------------------------------
# Instrumentation table: (span name or None for count-only, target,
# counter).  A target is "module:Class.attr" or "module:function"; a
# counter maps (args, kwargs, result) to an amount for "<span>.<key>".
# ----------------------------------------------------------------------
def _rows(args, kwargs, result):
    return len(args[1])


def _points(args, kwargs, result):
    return len(kwargs["candidates"])


def _events(args, kwargs, result):
    return len(args[1].events)


def _requests(args, kwargs, result):
    return sum(fleet.offered for fleet in result)


_POLY = "repro.ring.polynomial:RnsPolynomial."
_CONV = "repro.ring.conversion:"
_EVAL = "repro.ckks.evaluator:Evaluator."
_KEYS = "repro.ckks.keys:KeyGenerator."
_BOOT = "repro.ckks.bootstrap:Bootstrapper."

TARGETS: Tuple[Tuple[str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("kernels.ntt", "repro.kernels.ntt:BatchNttKernel.forward_rows", ("rows", _rows)),
    ("kernels.ntt", "repro.kernels.ntt:BatchNttKernel.inverse_rows", ("rows", _rows)),
    ("kernels.basis_conv", "repro.kernels.conversion:new_limbs_matrix", None),
    ("kernels.basis_conv", "repro.kernels.conversion:sub_scale_mod", None),
    *(
        ("ring.pointwise", _POLY + attr, None)
        for attr in (
            "__add__", "__sub__", "__neg__", "__mul__",
            "scalar_mul", "limb_scalar_mul",
        )
    ),
    ("ring.automorph", _POLY + "automorph", None),
    *(
        ("ring.modswitch", _CONV + name, None)
        for name in ("mod_up", "mod_down", "rescale", "p_mod_up")
    ),
    *(
        ("ring.construct", _POLY + attr, None)
        for attr in (
            "__init__", "from_int_coeffs", "zero", "clone",
            "to_eval", "to_coeff", "to_int_coeffs",
        )
    ),
    ("numth.crt", "repro.numth.crt:crt_reconstruct", None),
    *(
        ("ckks.sample", "repro.ckks.context:CkksContext." + attr, None)
        for attr in (
            "sample_ternary_coeffs", "sample_error_coeffs", "sample_uniform_rows",
        )
    ),
    ("ckks.encode", "repro.ckks.encoding:Encoder.encode", None),
    ("ckks.decode", "repro.ckks.encoding:Encoder.decode", None),
    ("ckks.encrypt", "repro.ckks.encrypt:Encryptor.encrypt", None),
    ("ckks.decrypt", "repro.ckks.encrypt:Decryptor.decrypt", None),
    ("ckks.decomp", _EVAL + "decompose", None),
    ("ckks.modup", _EVAL + "raise_digits", None),
    ("ckks.kskip", _EVAL + "ksk_inner_product", None),
    ("ckks.moddown", _EVAL + "mod_down_pair", None),
    ("ckks.rotate", _EVAL + "rotate", None),
    ("ckks.rotate", _EVAL + "conjugate", None),
    ("ckks.hoisted", _EVAL + "rotations_hoisted", None),
    ("ckks.mult", _EVAL + "mult", None),
    ("ckks.pt_mult", _EVAL + "pt_mult", None),
    ("ckks.pt_mult", _EVAL + "pt_mult_at", None),
    ("ckks.rescale", _EVAL + "rescale", None),
    *(
        ("ckks.keygen", _KEYS + attr, None)
        for attr in (
            "__init__", "public_key", "switching_key", "relinearization_key",
            "galois_key", "rotation_key", "conjugation_key",
        )
    ),
    ("bootstrap.build", _BOOT + "__init__", None),
    ("bootstrap.modraise", _BOOT + "mod_raise", None),
    ("bootstrap.c2s", _BOOT + "coeff_to_slot", None),
    ("bootstrap.evalmod", _BOOT + "eval_mod", None),
    ("bootstrap.s2c", _BOOT + "slot_to_coeff", None),
    ("search.find", "repro.search.optimizer:find_optimal_parameters", ("points", _points)),
    ("perf.bootstrap_model", "repro.perf.bootstrap:BootstrapModel.ledger", None),
    ("memsim.validate", "repro.memsim.validate:run_validation", None),
    ("memsim.validate", "repro.memsim.validate:validate_memsim_report", None),
    ("memsim.replay", "repro.memsim.simulator:MemorySimulator.replay", ("events", _events)),
    ("serve.scenario", "repro.serve.scenario:run_scenario", ("requests", _requests)),
)


def _span_wrapper(recorder: Recorder, name: str, fn: Callable, counter) -> Callable:
    calls = name + ".calls"
    key, amount = counter if counter else (None, None)

    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        recorder.count(calls)
        if key is not None:
            recorder.count(f"{name}.{key}", amount(args, kwargs, result))
        return result

    wrapper.hostbench_original = fn
    return wrapper


def _memo_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    """Count memo lookups and hits without opening a span."""

    def wrapper(memo, *args, **kwargs):
        hits = memo.hits
        result = fn(memo, *args, **kwargs)
        recorder.count("sweep.memo.lookups")
        recorder.count("sweep.memo.hits", memo.hits - hits)
        return result

    return wrapper


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _repro_globals() -> Iterator[Tuple[Any, str, Any]]:
    """(module, name, value) of every global of every loaded ``repro`` module."""
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                yield module, attr, value


def _rebind(original: Any, replacement: Any, patches: list) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``: functions imported by name elsewhere are patched too."""
    for module, attr, value in _repro_globals():
        if value is original:
            patches.append((module, attr, value))
            setattr(module, attr, replacement)


def install(recorder: Recorder) -> list:
    """Wrap every target; returns the patches :func:`uninstall` reverts."""
    # Import every target module before patching any: a module imported
    # mid-install would bind the wrappers by name.
    resolved = [_resolve(target) for _, target, _ in TARGETS]
    patches: list = []
    for (name, _, counter), (owner, attr) in zip(TARGETS, resolved):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = _span_wrapper(recorder, name, fn, counter)
            patches.append((owner, attr, raw))
            setattr(
                owner, attr,
                classmethod(wrapped) if isinstance(raw, classmethod) else wrapped,
            )
        else:
            fn = getattr(owner, attr)
            _rebind(fn, _span_wrapper(recorder, name, fn, counter), patches)
    owner, attr = _resolve("repro.sweep.memo:Memo.get_or_compute")
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, _memo_wrapper(recorder, owner.__dict__[attr]))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    # A module first imported while tracing bound wrappers by name.
    for module, attr, value in _repro_globals():
        original = getattr(value, "hostbench_original", None)
        if isinstance(value, types.FunctionType) and original is not None:
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# Folding spans into metrics
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(recorder: Recorder, ops: List[Any]) -> Dict[str, float]:
    """Summed self time per span name over the spans of ``ops``."""
    wanted = set(ops)
    totals: Dict[str, float] = Counter()
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        if span[OP] in wanted:
            totals[span[NAME]] += own
    return totals


def top_level_time(recorder: Recorder, name: str, op: Any) -> float:
    """Inclusive time of ``name`` spans in ``op`` not nested in another."""
    spans = recorder.spans
    total = 0.0
    for span in spans:
        if span[NAME] != name or span[OP] != op:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total
