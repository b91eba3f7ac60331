"""``sweep_report.json`` — schema ``repro.sweep/v1.1`` — and its validator.

One report captures a whole sweep run: the spec identity (name,
evaluator, axes as canonical value keys, fingerprint), dispatch
statistics (jobs, chunks, memo hit rate, worker utilisation, wall
seconds — all report-only, never gated) and one entry per canonical
point holding its JSON row.  The fingerprint makes reports *resumable*:
``run_sweep(spec, resume=report)`` reuses every completed point of a
report whose fingerprint matches the spec and evaluates only the rest.

Wall-clock fields are machine noise and must never be compared across
machines; the analytical rows are exact and bit-identical for any
``--jobs``.  Each version is declared once (:data:`SWEEP_REPORT_SCHEMA`
and its v1 predecessor) and :func:`validate_sweep_report` checks it
through :mod:`repro.schemas`.

Schema history: v1.1 adds a required ``provenance`` block
(:func:`repro.obs.events.provenance`, with the spec fingerprint as its
``config_fingerprint``) and an optional ``workers`` array summarising
each evaluating process; v1 reports remain loadable and resumable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro import schemas
from repro.sweep.engine import SweepOutcome

__all__ = [
    "ACCEPTED_SCHEMA_IDS",
    "SCHEMA_ID",
    "SWEEP_REPORT_SCHEMA",
    "build_sweep_report",
    "load_sweep_report",
    "validate_sweep_report",
    "write_sweep_report",
]

SCHEMA_ID = "repro.sweep/v1.1"

#: Schema ids accepted on load/resume; new reports always use SCHEMA_ID.
ACCEPTED_SCHEMA_IDS = ("repro.sweep/v1", SCHEMA_ID)

#: JSON-Schema (draft-07) of a v1 report.
_V1_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": ACCEPTED_SCHEMA_IDS[0],
    "title": "repro.sweep run report",
    "type": "object",
    "required": [
        "schema",
        "sweep",
        "evaluator",
        "fingerprint",
        "axes",
        "jobs",
        "chunks",
        "reused",
        "memo",
        "wall_seconds",
        "worker_utilisation",
        "complete",
        "points",
    ],
    "properties": {
        "schema": {"const": ACCEPTED_SCHEMA_IDS[0]},
        "provenance": schemas.PROVENANCE,
        "workers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pid", "chunks"],
                "properties": {
                    "pid": schemas.NON_NEGATIVE_INT,
                    "chunks": schemas.NON_NEGATIVE_INT,
                    "busy_seconds": schemas.NON_NEGATIVE,
                    "cpu_seconds": schemas.NON_NEGATIVE,
                    "peak_rss_bytes": schemas.NON_NEGATIVE_INT,
                },
            },
        },
        "sweep": {"type": "string"},
        "evaluator": {"type": "string"},
        "fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "axes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "values"],
                "properties": {
                    "name": {"type": "string"},
                    "values": {"type": "array"},
                },
            },
        },
        "jobs": {"type": "integer", "minimum": 1},
        "chunks": schemas.NON_NEGATIVE_INT,
        "reused": schemas.NON_NEGATIVE_INT,
        "memo": schemas.fields(schemas.NON_NEGATIVE_INT, "hits", "misses"),
        "wall_seconds": schemas.NON_NEGATIVE,
        "worker_utilisation": schemas.FRACTION,
        "complete": {"type": "boolean"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "key", "row"],
                "properties": {
                    "index": schemas.NON_NEGATIVE_INT,
                    "key": {"type": "object"},
                    "row": {"type": "object"},
                },
            },
        },
    },
}
schemas.register(_V1_SCHEMA)

#: JSON-Schema (draft-07) of the current version: v1 plus provenance.
#: :func:`validate_sweep_report` checks it via :mod:`repro.schemas` and
#: CI cross-checks it with ``jsonschema``.
SWEEP_REPORT_SCHEMA: Dict[str, Any] = schemas.with_provenance(_V1_SCHEMA, SCHEMA_ID)
schemas.register(SWEEP_REPORT_SCHEMA)


def build_sweep_report(outcome: SweepOutcome) -> Dict[str, Any]:
    """Assemble the ``repro.sweep/v1.1`` report for a finished run."""
    from repro.obs.events import provenance as build_provenance

    spec = outcome.spec
    identity = spec.identity()
    report = {
        "schema": SCHEMA_ID,
        "provenance": build_provenance(
            config_fingerprint=spec.fingerprint()
        ),
        "workers": outcome.workers,
        "sweep": spec.name,
        "evaluator": spec.evaluator,
        "fingerprint": spec.fingerprint(),
        "axes": identity["axes"],
        "jobs": outcome.jobs,
        "chunks": outcome.chunks,
        "reused": outcome.reused,
        "memo": {"hits": outcome.memo_hits, "misses": outcome.memo_misses},
        "wall_seconds": outcome.wall_seconds,
        "worker_utilisation": outcome.worker_utilisation,
        "complete": True,
        "points": [
            {
                "index": index,
                "key": outcome.point_keys[index],
                "row": outcome.rows[index],
            }
            for index in range(spec.size)
        ],
    }
    validate_sweep_report(report)
    return report


def write_sweep_report(outcome: SweepOutcome, path: str) -> Dict[str, Any]:
    """Build, validate and write the report; returns the report dict."""
    report = build_sweep_report(outcome)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report


def load_sweep_report(path: str) -> Optional[Dict[str, Any]]:
    """Load and validate a report; ``None`` when the file does not exist."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except FileNotFoundError:
        return None
    validate_sweep_report(report)
    return report


def validate_sweep_report(report: Any) -> None:
    """Raises ValueError on the first mismatch with the report's schema."""
    prefix = "invalid sweep report"
    schemas.validate(report, ACCEPTED_SCHEMA_IDS, prefix)
    # Uniqueness across array items is not expressible in the draft-07
    # subset (uniqueItems compares whole items, not one field of each).
    seen: set = set()
    for position, entry in enumerate(report["points"]):
        if entry["index"] in seen:
            raise ValueError(
                f"{prefix}: points[{position}].index {entry['index']} "
                "is duplicated"
            )
        seen.add(entry["index"])
