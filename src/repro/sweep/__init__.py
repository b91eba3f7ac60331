"""repro.sweep — deterministic, process-parallel design-space sweeps.

The paper's headline workflow is brute-force exploration ("the search
takes only a few minutes", §4.1): Table 5's parameter search, the
ablation grids, the Fig. 6 cache-size × design matrix and the memsim
Fig. 2 ladder are all sweeps over a declared grid.  This package gives
them one engine:

* :class:`SweepSpec` / :class:`SweepAxis` — declarative axes + a
  registered evaluator (:mod:`repro.sweep.spec`,
  :mod:`repro.sweep.registry`).
* :func:`run_sweep` — chunked fan-out over a process pool (``jobs=1``
  stays in-process), per-worker memoization, canonical-order merge so
  output is bit-identical to serial (:mod:`repro.sweep.engine`).
* ``repro.sweep/v1.1`` resumable reports, validated through :mod:`repro.schemas`
  (:mod:`repro.sweep.report`).
* Built-in evaluators for the four sweep surfaces
  (:mod:`repro.sweep.evaluators`) and named presets for the CLI
  (:mod:`repro.sweep.presets`).
"""

from repro.sweep.engine import SweepError, SweepOutcome, run_sweep
from repro.sweep.memo import Memo
from repro.sweep.presets import SWEEP_PRESETS, build_preset, preset_names
from repro.sweep.registry import Evaluator, get_evaluator, register_evaluator
from repro.sweep.report import (
    SCHEMA_ID,
    SWEEP_REPORT_SCHEMA,
    build_sweep_report,
    load_sweep_report,
    validate_sweep_report,
    write_sweep_report,
)
from repro.sweep.spec import SweepAxis, SweepSpec, value_key

__all__ = [
    "Evaluator",
    "Memo",
    "SCHEMA_ID",
    "SWEEP_PRESETS",
    "SWEEP_REPORT_SCHEMA",
    "build_preset",
    "preset_names",
    "SweepAxis",
    "SweepError",
    "SweepOutcome",
    "SweepSpec",
    "build_sweep_report",
    "get_evaluator",
    "load_sweep_report",
    "register_evaluator",
    "run_sweep",
    "validate_sweep_report",
    "value_key",
    "write_sweep_report",
]
