"""``serve_report.json`` — schema ``repro.serve/v1`` — and its validator.

One report captures a whole scenario run: the scenario identity
(name, seed, duration, pricing config), a provenance block
(:func:`repro.obs.events.provenance`) and one entry per fleet holding
throughput, utilisation, batching efficiency, cost-per-request and the
per-tenant latency/SLA rows.  Every number in a fleet entry is a pure
function of ``(scenario, fleet, seed)`` — reports are byte-identical
across machines, processes and ``--jobs`` splits, which is what the CI
determinism gate asserts.

The format is declared once, in :data:`SERVE_REPORT_SCHEMA`, and
:func:`validate_serve_report` checks it through :mod:`repro.schemas`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence

from repro import schemas
from repro.serve.scenario import Scenario
from repro.serve.simulator import SimResult, TenantResult

__all__ = [
    "ACCEPTED_SCHEMA_IDS",
    "SCHEMA_ID",
    "SERVE_REPORT_SCHEMA",
    "assemble_serve_report",
    "build_serve_report",
    "fleet_row",
    "load_serve_report",
    "scenario_fingerprint",
    "tenant_row",
    "validate_serve_report",
    "write_serve_report",
]

SCHEMA_ID = "repro.serve/v1"

#: Schema ids accepted on load; new reports always use SCHEMA_ID.
ACCEPTED_SCHEMA_IDS = (SCHEMA_ID,)

#: JSON-Schema (draft-07); :func:`validate_serve_report` checks it via
#: :mod:`repro.schemas` and CI cross-checks it with ``jsonschema``.
SERVE_REPORT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_ID,
    "title": "repro.serve scenario report",
    "type": "object",
    "required": [
        "schema",
        "provenance",
        "scenario",
        "seed",
        "duration_s",
        "config",
        "fingerprint",
        "fleets",
    ],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "provenance": schemas.PROVENANCE,
        "scenario": {"type": "string"},
        "seed": schemas.NON_NEGATIVE_INT,
        "duration_s": {"type": "number", "exclusiveMinimum": 0},
        "config": {"type": "string"},
        "fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "fleets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "fleet",
                    "design",
                    "devices",
                    "scheduler",
                    "cache_policy",
                    "makespan_s",
                    "requests",
                    "throughput_rps",
                    "utilisation",
                    "batching",
                    "cost",
                    "tenants",
                ],
                "properties": {
                    "fleet": {"type": "string"},
                    "design": {"type": "string"},
                    "devices": {"type": "integer", "minimum": 1},
                    "scheduler": {"type": "string"},
                    "cache_policy": {"type": "string"},
                    "makespan_s": schemas.NON_NEGATIVE,
                    "requests": schemas.fields(
                        schemas.NON_NEGATIVE_INT,
                        "offered",
                        "completed",
                        "bootstraps",
                    ),
                    "throughput_rps": schemas.NON_NEGATIVE,
                    "utilisation": schemas.FRACTION,
                    "batching": {
                        "type": "object",
                        "required": [
                            "batches",
                            "mean_size",
                            "key_read_saved_fraction",
                        ],
                        "properties": {
                            "batches": schemas.NON_NEGATIVE_INT,
                            "mean_size": schemas.NON_NEGATIVE,
                            "key_read_saved_fraction": schemas.FRACTION,
                        },
                    },
                    "cost": schemas.fields(
                        schemas.NON_NEGATIVE,
                        "device_seconds_per_request",
                        "giga_ops_per_request",
                        "dram_gb_per_request",
                    ),
                    "tenants": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": [
                                "tenant",
                                "offered",
                                "completed",
                                "bootstraps",
                                "sla",
                            ],
                            "properties": {
                                "tenant": {"type": "string"},
                                "offered": schemas.NON_NEGATIVE_INT,
                                "completed": schemas.NON_NEGATIVE_INT,
                                "bootstraps": schemas.NON_NEGATIVE_INT,
                                "latency": {
                                    "type": ["object", "null"],
                                    "required": [
                                        "count",
                                        "mean_ms",
                                        "p50_ms",
                                        "p99_ms",
                                    ],
                                },
                                "sla": {
                                    "type": "object",
                                    "properties": {
                                        "met": {"type": ["boolean", "null"]},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}
schemas.register(SERVE_REPORT_SCHEMA)


def scenario_fingerprint(scenario: Scenario, seed: int) -> str:
    """SHA-256 over the run identity (scenario, fleets, tenants, seed)."""
    identity = {
        "scenario": scenario.name,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "config": scenario.config,
        "tenants": [tenant.name for tenant in scenario.tenants],
        "fleets": [
            [fleet.name, fleet.design.name, fleet.devices]
            for fleet in scenario.fleets
        ],
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def tenant_row(result: TenantResult) -> Dict[str, Any]:
    """One tenant's JSON entry inside a fleet row."""
    row: Dict[str, Any] = {
        "tenant": result.tenant,
        "offered": result.offered,
        "completed": result.completed,
        "bootstraps": result.bootstraps,
        "latency": (
            result.latency.as_row() if result.latency is not None else None
        ),
        "giga_ops": result.cost.giga_ops(),
        "dram_gb": result.cost.gigabytes(),
        "sla": {
            "p99_target_ms": result.sla_p99_ms,
            "met": result.sla_met,
        },
    }
    return row


def fleet_row(result: SimResult) -> Dict[str, Any]:
    """One fleet's JSON entry in the report."""
    completed = max(result.completed, 1)
    return {
        "fleet": result.fleet,
        "design": result.design,
        "devices": result.devices,
        "scheduler": result.scheduler,
        "cache_policy": result.cache_policy,
        "makespan_s": result.makespan_s,
        "requests": {
            "offered": result.offered,
            "completed": result.completed,
            "bootstraps": result.bootstraps,
        },
        "throughput_rps": result.throughput_rps,
        "utilisation": result.utilisation,
        "batching": {
            "batches": result.batches,
            "mean_size": result.mean_batch_size,
            "key_read_saved_fraction": result.key_read_saved_fraction,
        },
        "cost": {
            "device_seconds_per_request": (
                result.busy_device_seconds / completed
            ),
            "giga_ops_per_request": result.total_cost.giga_ops() / completed,
            "dram_gb_per_request": result.total_cost.gigabytes() / completed,
        },
        "tenants": [tenant_row(tenant) for tenant in result.tenants],
    }


def assemble_serve_report(
    scenario: Scenario, seed: int, rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ``repro.serve/v1`` report from prebuilt fleet rows.

    The sweep path (``serve.scenario`` evaluator) produces rows in
    worker processes; this assembles the identical report the serial
    path builds, so ``--jobs N`` output is byte-for-byte reproducible.
    """
    from repro.obs.events import provenance as build_provenance

    fingerprint = scenario_fingerprint(scenario, seed)
    report = {
        "schema": SCHEMA_ID,
        "provenance": build_provenance(config_fingerprint=fingerprint),
        "scenario": scenario.name,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "config": scenario.config,
        "fingerprint": fingerprint,
        "fleets": [
            {
                key: row[key]
                for key in sorted(row)
                if key not in ("scenario", "seed")
            }
            for row in rows
        ],
    }
    validate_serve_report(report)
    return report


def build_serve_report(
    scenario: Scenario, seed: int, results: Sequence[SimResult]
) -> Dict[str, Any]:
    """Assemble the ``repro.serve/v1`` report for a finished scenario."""
    return assemble_serve_report(
        scenario, seed, [fleet_row(result) for result in results]
    )


def write_serve_report(report: Dict[str, Any], path: str) -> None:
    """Write a validated report with the repo's canonical JSON layout."""
    validate_serve_report(report)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_serve_report(path: str) -> Optional[Dict[str, Any]]:
    """Load and validate a report; ``None`` when the file does not exist."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except FileNotFoundError:
        return None
    validate_serve_report(report)
    return report


def validate_serve_report(report: Any) -> None:
    """Raises ValueError on the first mismatch with SERVE_REPORT_SCHEMA."""
    schemas.validate(report, (SCHEMA_ID,), "invalid serve report")
