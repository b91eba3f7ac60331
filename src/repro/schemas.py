"""One declaration per report format: a draft-07 subset interpreter.

Every machine-readable report the repo emits (run reports, sweep, memsim
and serve reports, cost diffs, event streams, bench trajectories, ...)
is declared once, as a draft-07 JSON-Schema dict in the module that
produces it, and registered here under each schema id it is accepted
as.  ``validate_*`` functions are one :func:`validate` call plus, where
a format has one, a cross-field invariant draft-07 cannot state.  CI
runs ``jsonschema`` on the same dicts as a cross-check, and
``tests/test_schemas.py`` asserts both agree on a mutation corpus.

The interpreter enforces exactly the keywords in :data:`KEYWORDS`,
with draft-07 semantics: a keyword about objects, arrays, strings or
numbers applies only to values of that kind, and a ``$ref`` (local,
into ``definitions``) replaces its siblings.  :func:`register` rejects
any other keyword, so a rule ``jsonschema`` would enforce can never be
skipped silently here.  One deliberate difference: ``integer`` means a
JSON integer literal, so ``1.0`` is not an integer (draft-07 would
accept it).  Like ``jsonschema``, neither ``integer`` nor ``number``
accepts a ``bool``.

The module has no dependencies, so any consumer can validate a report
without ``jsonschema`` installed.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Sequence

__all__ = [
    "ANNOTATIONS",
    "FRACTION",
    "KEYWORDS",
    "NON_NEGATIVE",
    "NON_NEGATIVE_INT",
    "PROVENANCE",
    "REGISTRY",
    "check",
    "fields",
    "register",
    "validate",
    "with_provenance",
]

Schema = Dict[str, Any]

#: Keywords the interpreter enforces.
KEYWORDS = frozenset(
    {
        "$ref", "additionalProperties", "const", "enum", "exclusiveMinimum",
        "items", "maximum", "minimum", "minItems", "minLength", "pattern",
        "properties", "required", "type",
    }
)

#: Keys that carry no rule; skipping them cannot loosen a check.
ANNOTATIONS = frozenset({"$id", "$schema", "definitions", "title"})

#: JSON type name -> (Python types, how an error message names it).
_TYPES: Dict[str, Any] = {
    "array": (list, "an array"),
    "boolean": (bool, "a boolean"),
    "integer": (int, "an integer"),
    "null": (type(None), "null"),
    "number": ((int, float), "a number"),
    "object": (dict, "an object"),
    "string": (str, "a string"),
}

#: schema id -> the dict documents carrying that id must satisfy.
REGISTRY: Dict[str, Schema] = {}

#: Building blocks shared by the report dicts.
NON_NEGATIVE_INT: Schema = {"type": "integer", "minimum": 0}
NON_NEGATIVE: Schema = {"type": "number", "minimum": 0}
FRACTION: Schema = {"type": "number", "minimum": 0, "maximum": 1}

#: The block :func:`repro.obs.events.provenance` stamps into reports.
PROVENANCE: Schema = {
    "type": "object",
    "required": ["git_sha", "python", "platform", "argv"],
    "properties": {
        "git_sha": {"type": "string"},
        "git_dirty": {"type": ["boolean", "null"]},
        "python": {"type": "string"},
        "numpy": {"type": ["string", "null"]},
        "platform": {"type": "string"},
        "argv": {"type": "array"},
        "config_fingerprint": {"type": ["string", "null"]},
    },
}


class _Invalid(Exception):
    """First mismatch found; ``parts`` gathers its path while unwinding."""

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.problem = problem
        self.parts: List[Any] = []

    def render(self, path: str) -> str:
        for part in reversed(self.parts):
            if isinstance(part, int):
                path = f"{path}[{part}]"
            else:
                path = f"{path}.{part}" if path else str(part)
        return f"{path or 'top level'} {self.problem}"


def register(schema: Schema, ids: Sequence[str] = ()) -> None:
    """Register ``schema`` under ``ids`` (default: its ``$id``).

    Raises ValueError when the schema uses a keyword the interpreter does
    not enforce or a ``$ref`` that does not resolve.
    """
    _check_keywords(schema, schema, "#")
    for schema_id in ids or (schema["$id"],):
        REGISTRY[schema_id] = schema


def fields(schema: Schema, *keys: str) -> Schema:
    """An object that requires every one of ``keys``, each matching ``schema``."""
    return {
        "type": "object",
        "required": list(keys),
        "properties": {key: schema for key in keys},
    }


def with_provenance(schema: Schema, schema_id: str) -> Schema:
    """``schema`` re-declared as ``schema_id``, with a required provenance."""
    return dict(
        schema,
        **{"$id": schema_id},
        required=[*schema["required"], "provenance"],
        properties=dict(
            schema["properties"],
            schema={"const": schema_id},
            provenance=PROVENANCE,
        ),
    )


def validate(
    document: Any, accepted: Sequence[str], prefix: str, path: str = ""
) -> None:
    """Validate ``document`` against the registered dict for its version.

    With more than one accepted id, the document's ``schema`` field picks
    the version.  Raises ValueError ``"<prefix>: <path> <problem>"``,
    where the path starts at ``path``.
    """
    schema_id = accepted[-1]
    if len(accepted) > 1 and isinstance(document, dict):
        schema_id = document.get("schema")
        if schema_id not in accepted:
            raise ValueError(
                f"{prefix}: schema id {schema_id!r} not in {tuple(accepted)!r}"
            )
    check(REGISTRY[schema_id], document, prefix, path)


def check(schema: Schema, value: Any, prefix: str, path: str = "") -> None:
    """Validate ``value`` (found at ``path``) against one schema dict."""
    try:
        _check(schema, value, schema)
    except _Invalid as error:
        raise ValueError(f"{prefix}: {error.render(path)}") from None


# ----------------------------------------------------------------------
# Interpreter
# ----------------------------------------------------------------------
def _has_type(value: Any, name: str) -> bool:
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _TYPES[name][0])


def _same(value: Any, expected: Any) -> bool:
    """JSON equality: ``True`` is not ``1``."""
    if isinstance(value, bool) != isinstance(expected, bool):
        return False
    return bool(value == expected)


def _resolve(root: Schema, ref: str) -> Schema:
    if not ref.startswith("#/"):
        raise ValueError(f"$ref {ref!r} is not local")
    target: Any = root
    for part in ref[2:].split("/"):
        if not isinstance(target, dict) or part not in target:
            raise ValueError(f"$ref {ref!r} does not resolve")
        target = target[part]
    if not isinstance(target, dict):
        raise ValueError(f"$ref {ref!r} does not name a schema")
    return target


def _check(schema: Schema, value: Any, root: Schema) -> None:
    ref = schema.get("$ref")
    if ref is not None:
        _check(_resolve(root, ref), value, root)
        return
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        for name in types:
            if _has_type(value, name):
                break
        else:
            expected = " or ".join(_TYPES[name][1] for name in types)
            raise _Invalid(f"is not {expected}")
    if "const" in schema and not _same(value, schema["const"]):
        raise _Invalid(f"is {value!r}, expected {schema['const']!r}")
    if "enum" in schema and not any(_same(value, o) for o in schema["enum"]):
        raise _Invalid(f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise _Invalid(f"missing required key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = properties.get(key)
            if sub is None:
                if extra is False:
                    raise _Invalid(f"has unexpected key {key!r}")
                if extra is True:
                    continue
                sub = extra
            try:
                _check(sub, item, root)
            except _Invalid as error:
                error.parts.append(key)
                raise
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _Invalid(f"has fewer than {schema['minItems']} items")
        items = schema.get("items")
        if items is not None:
            for index, item in enumerate(value):
                try:
                    _check(items, item, root)
                except _Invalid as error:
                    error.parts.append(index)
                    raise
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            raise _Invalid(f"is shorter than {schema['minLength']}")
        pattern = schema.get("pattern")
        if pattern is not None and re.search(pattern, value) is None:
            raise _Invalid(f"{value!r} does not match {pattern!r}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise _Invalid(f"{value!r} is below {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise _Invalid(f"{value!r} is not above {schema['exclusiveMinimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise _Invalid(f"{value!r} exceeds {schema['maximum']}")


def _check_keywords(schema: Any, root: Schema, where: str) -> None:
    """Reject what the interpreter would not enforce, at registration."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {where} is not an object")
    unknown = sorted(set(schema) - KEYWORDS - ANNOTATIONS)
    if unknown:
        raise ValueError(f"schema {where} uses unsupported keyword(s) {unknown}")
    if "$ref" in schema:
        _resolve(root, schema["$ref"])
        if set(schema) - ANNOTATIONS != {"$ref"}:
            raise ValueError(f"schema {where} has keywords beside $ref")
    types = schema.get("type", [])
    for name in [types] if isinstance(types, str) else types:
        if name not in _TYPES:
            raise ValueError(f"schema {where} names unknown type {name!r}")
    for key in ("properties", "definitions"):
        for name, sub in schema.get(key, {}).items():
            _check_keywords(sub, root, f"{where}/{key}/{name}")
    if "items" in schema:
        _check_keywords(schema["items"], root, f"{where}/items")
    extra = schema.get("additionalProperties", True)
    if not isinstance(extra, bool):
        _check_keywords(extra, root, f"{where}/additionalProperties")
