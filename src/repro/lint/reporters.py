"""Reporters: human-readable text and a versioned JSON schema.

The JSON payload (``schema: repro.lint/v1``) is what the CI lint job
uploads as an artifact.  It is declared once, in
:data:`LINT_REPORT_SCHEMA`, and :func:`validate_report` checks it through
the dependency-free :mod:`repro.schemas`, so downstream tooling can
round-trip reports without jsonschema installed.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro import schemas
from repro.lint.core import Finding, LintResult

__all__ = [
    "LINT_REPORT_SCHEMA",
    "SARIF_VERSION",
    "SCHEMA_VERSION",
    "load_findings",
    "render_json",
    "render_sarif",
    "render_text",
    "report_dict",
    "sarif_dict",
    "validate_report",
]

SCHEMA_VERSION = "repro.lint/v1"

SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)

#: JSON-Schema (draft-07) of a lint report.
LINT_REPORT_SCHEMA: Dict[str, object] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_VERSION,
    "title": "repro.lint report",
    "type": "object",
    "required": [
        "schema", "rules", "files", "suppressed", "counts", "findings",
    ],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "rules": {"type": "array"},
        "files": schemas.NON_NEGATIVE_INT,
        "suppressed": schemas.NON_NEGATIVE_INT,
        "counts": {"type": "object"},
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "path", "line", "col", "message"],
                "properties": {
                    "rule": {"type": "string"},
                    "path": {"type": "string"},
                    "line": {"type": "integer"},
                    "col": {"type": "integer"},
                    "message": {"type": "string"},
                },
            },
        },
    },
}
schemas.register(LINT_REPORT_SCHEMA)


def report_dict(result: LintResult) -> Dict[str, object]:
    """Machine-readable report for one lint run."""
    return {
        "schema": SCHEMA_VERSION,
        "rules": list(result.rules),
        "files": len(result.files),
        "suppressed": result.suppressed,
        "counts": result.counts_by_rule(),
        "findings": [finding.to_dict() for finding in result.findings],
    }


def render_json(result: LintResult) -> str:
    return json.dumps(report_dict(result), indent=1, sort_keys=True)


def render_text(result: LintResult) -> str:
    """One ``path:line:col: Rule: message`` line per finding + summary."""
    lines = [finding.render() for finding in result.findings]
    suffix = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    if result.findings:
        lines.append(
            f"{len(result.findings)} finding(s) in "
            f"{len(result.files)} file(s){suffix}"
        )
    else:
        lines.append(f"clean: {len(result.files)} file(s) linted{suffix}")
    return "\n".join(lines)


def sarif_dict(result: LintResult) -> Dict[str, object]:
    """SARIF 2.1.0 log for one lint run (one run, one result per finding).

    Rule metadata comes from the registry so the SARIF ``rules`` array
    carries descriptions for code-scanning UIs; rules that ran but are
    no longer registered (cached results after a rename) degrade to a
    bare id.
    """
    from repro.lint.registry import rule_descriptions

    descriptions = rule_descriptions()
    rules_meta = [
        {
            "id": name,
            "shortDescription": {
                "text": descriptions.get(name) or name,
            },
        }
        for name in sorted(set(result.rules) | {f.rule for f in result.findings})
    ]
    rule_index = {meta["id"]: position for position, meta in enumerate(rules_meta)}
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules_meta,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def render_sarif(result: LintResult) -> str:
    return json.dumps(sarif_dict(result), indent=1, sort_keys=True)


def validate_report(payload: object) -> None:
    """Raise ValueError unless ``payload`` is a well-formed v1 report."""
    schemas.validate(payload, (SCHEMA_VERSION,), "invalid lint report")


def load_findings(payload: Dict[str, object]) -> List[Finding]:
    """Rebuild :class:`Finding` objects from a validated report payload."""
    validate_report(payload)
    raw = payload["findings"]
    assert isinstance(raw, list)
    out: List[Finding] = []
    for item in raw:
        assert isinstance(item, dict)
        rule, path, message = item["rule"], item["path"], item["message"]
        line, col = item["line"], item["col"]
        assert isinstance(rule, str)
        assert isinstance(path, str)
        assert isinstance(message, str)
        assert isinstance(line, int)
        assert isinstance(col, int)
        out.append(Finding(rule=rule, path=path, line=line, col=col, message=message))
    return out
