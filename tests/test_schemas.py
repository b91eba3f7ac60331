"""The schema registry (``repro.schemas``).

* Differential: for every registered format, a mutation corpus built
  from a valid document gets the same verdict from the interpreter and
  from ``jsonschema.Draft7Validator`` on the same dict.
* Committed documents under ``benchmarks/`` validate by their own id.
* Interpreter unit cases: registration rejects unknown keywords, local
  ``$ref`` resolves, ``bool`` is neither an integer nor a number.
"""

import json
from pathlib import Path

import pytest

from repro import schemas
from repro.kernels.check import run_check
from repro.lint.core import Finding, LintResult
from repro.lint.reporters import report_dict
from repro.memsim.validate import run_validation
from repro.obs.diff import build_overlay_trace, diff_run_reports
from repro.obs.events import EventLog, provenance, read_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import capture_snapshot
from repro.obs.tracer import Tracer
from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.perf.optimizations import MADConfig
from repro.serve import SCENARIOS, build_serve_report, run_scenario
from repro.sweep import SweepAxis, SweepSpec, build_sweep_report, run_sweep

# Registers the ``test.echo`` sweep evaluator.
from tests.sweep import test_engine as _engine  # noqa: F401

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: Every id the registry must hold, each with a corpus document below.
FORMATS = (
    "repro.kernels/v1",
    "repro.lint/v1",
    "repro.memsim/v1",
    "repro.memsim/v1.1",
    "repro.obs.bench_trajectory/v1",
    "repro.obs.bench_trajectory/v1.1",
    "repro.obs.cost_diff/v1",
    "repro.obs.diff_overlay/v1",
    "repro.obs.events/v1",
    "repro.obs.run_report/v1",
    "repro.obs.run_report/v1.1",
    "repro.obs.telemetry/v1",
    "repro.serve/v1",
    "repro.sweep/v1",
    "repro.sweep/v1.1",
)

#: Schema ids found under benchmarks/ that are deliberately unregistered.
UNREGISTERED = {"repro.sweep_speedup/v1"}  # a one-off measurement record

#: Each field of a valid document is replaced by each of these.
MUTANTS = (None, [], {}, "x", -1, 1.5, True)
_DELETE = object()


def _load(name):
    with open(BENCHMARKS / name) as handle:
        return json.load(handle)


def _downgrade(document, schema_id):
    """The same document as a pre-provenance (v1) report."""
    older = dict(document, schema=schema_id)
    older.pop("provenance")
    return older


def _snapshot():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))
    registry = MetricsRegistry()
    with tracer.span("Bootstrap"):
        with tracer.span("Mult") as span:
            span.record_cost(CostReport(OpCount(mults=7), MemTraffic(ct_read=64)))
    registry.counter("ntt.calls").inc(3)
    registry.gauge("cache.mb").set(32)
    registry.histogram("chunk.points").observe(4)
    return capture_snapshot(tracer, registry)


def build_documents(directory):
    """One valid document per registered id, from the producers."""
    micro = SCENARIOS["micro"]
    sweep = build_sweep_report(
        run_sweep(
            SweepSpec(
                name="schemas",
                evaluator="test.echo",
                axes=(SweepAxis("a", (1, 2)), SweepAxis("b", ("x",))),
            ),
            jobs=1,
        )
    )
    memsim = run_validation(
        runs=[("Baseline", MADConfig.none(), 2.0)], primitives=["decomp", "mult"]
    )
    base = _load("baselines/micro__baseline__none__nocache.json")
    other = _load("baselines/micro__optimal__all__nocache.json")
    diff = diff_run_reports(base, other)
    # The corpus mutates only the first two items of each array; longer
    # span lists would just repeat valid structure and slow jsonschema.
    diff["spans"] = diff["spans"][:2]
    base = dict(base, spans=base["spans"][:2])
    events_path = str(Path(directory) / "events.jsonl")
    with EventLog(events_path) as log:
        log.start("schemas", provenance_block=provenance(argv=["schemas"]))
        log.emit("sweep_start", {"points": 2})
        log.emit("run_end", {"exit_code": 0})
    trajectory = _load("BENCH_kernels__baseline__none__nocache.json")
    lint = report_dict(
        LintResult(
            findings=[
                Finding("UnitsHygiene", "a.py", 3, 1, "mixed units"),
                Finding("LedgerDiscipline", "b.py", 7, 5, "unrecorded cost"),
            ],
            files=["a.py", "b.py"],
            rules=["LedgerDiscipline", "UnitsHygiene"],
            suppressed=1,
        )
    )
    return {
        "repro.kernels/v1": run_check(degrees=(16, 32), limbs=1, repeats=1),
        "repro.lint/v1": lint,
        "repro.memsim/v1": _downgrade(memsim, "repro.memsim/v1"),
        "repro.memsim/v1.1": memsim,
        "repro.obs.bench_trajectory/v1": dict(
            trajectory, schema="repro.obs.bench_trajectory/v1"
        ),
        "repro.obs.bench_trajectory/v1.1": trajectory,
        "repro.obs.cost_diff/v1": diff,
        "repro.obs.diff_overlay/v1": build_overlay_trace(base, other, diff),
        "repro.obs.events/v1": read_events(events_path),
        "repro.obs.run_report/v1": _downgrade(base, "repro.obs.run_report/v1"),
        "repro.obs.run_report/v1.1": base,
        "repro.obs.telemetry/v1": _snapshot(),
        "repro.serve/v1": build_serve_report(
            micro, 0, run_scenario(micro, seed=0)
        ),
        "repro.sweep/v1": _downgrade(sweep, "repro.sweep/v1"),
        "repro.sweep/v1.1": sweep,
    }


def field_paths(document, path=()):
    """Every field: each object key and the first two items of each array."""
    if isinstance(document, dict):
        children = list(document.items())
    elif isinstance(document, list):
        children = list(enumerate(document[:2]))
    else:
        return
    for key, value in children:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def mutate(document, path, value):
    """A copy with the field at ``path`` replaced by ``value`` or deleted.

    Only the containers along ``path`` are copied; the rest is shared.
    """
    if not path:
        return value
    head, rest = path[0], path[1:]
    clone = dict(document) if isinstance(document, dict) else list(document)
    if rest:
        clone[head] = mutate(document[head], rest, value)
    elif value is _DELETE:
        del clone[head]
    else:
        clone[head] = value
    return clone


def corpus(document):
    """``(path, mutant value, mutated document)`` for every field."""
    for path in [(), *field_paths(document)]:
        for value in MUTANTS:
            yield path, value, mutate(document, path, value)
        if path:
            yield path, "<deleted>", mutate(document, path, _DELETE)


def accepts(schema, document):
    try:
        schemas.check(schema, document, "test")
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return build_documents(tmp_path_factory.mktemp("schemas"))


def test_registry_holds_every_format():
    assert sorted(schemas.REGISTRY) == sorted(FORMATS)


@pytest.mark.parametrize("schema_id", FORMATS)
def test_interpreter_agrees_with_jsonschema(documents, schema_id):
    jsonschema = pytest.importorskip("jsonschema")
    schema = schemas.REGISTRY[schema_id]
    jsonschema.Draft7Validator.check_schema(schema)
    reference = jsonschema.Draft7Validator(schema)
    document = documents[schema_id]
    assert reference.is_valid(document)
    assert accepts(schema, document)
    disagreements = [
        (path, value)
        for path, value, mutant in corpus(document)
        if reference.is_valid(mutant) != accepts(schema, mutant)
    ]
    assert disagreements == []


def test_corpus_rejects_something_in_every_format(documents):
    """A corpus that no schema rejects would make agreement vacuous."""
    for schema_id in FORMATS:
        schema = schemas.REGISTRY[schema_id]
        assert not all(
            accepts(schema, mutant) for _, _, mutant in corpus(documents[schema_id])
        ), schema_id


def test_committed_documents_validate_by_their_own_id():
    found = set()
    for path in sorted(BENCHMARKS.rglob("*.json")):
        document = json.loads(path.read_text())
        schema_id = document["schema"]
        found.add(schema_id)
        if schema_id in UNREGISTERED:
            continue
        schemas.validate(document, (schema_id,), str(path))
    assert found & UNREGISTERED == UNREGISTERED
    assert found - UNREGISTERED <= set(schemas.REGISTRY)


class TestInterpreter:
    def test_unknown_keyword_is_rejected_at_registration(self, monkeypatch):
        monkeypatch.setattr(schemas, "REGISTRY", {})
        schema = {
            "$id": "repro.example/v1",
            "type": "object",
            "properties": {"name": {"type": "string", "maxLength": 3}},
        }
        with pytest.raises(ValueError, match="maxLength"):
            schemas.register(schema)
        assert schemas.REGISTRY == {}

    def test_unresolvable_ref_is_rejected_at_registration(self, monkeypatch):
        monkeypatch.setattr(schemas, "REGISTRY", {})
        with pytest.raises(ValueError, match="does not resolve"):
            schemas.register({"$id": "x", "items": {"$ref": "#/definitions/no"}})

    def test_ref_resolves_into_definitions(self):
        schema = {
            "type": "object",
            "properties": {"cost": {"$ref": "#/definitions/cost"}},
            "definitions": {"cost": {"type": "integer", "minimum": 0}},
        }
        schemas.check(schema, {"cost": 3}, "test")
        with pytest.raises(ValueError, match=r"test: cost -1 is below 0"):
            schemas.check(schema, {"cost": -1}, "test")

    @pytest.mark.parametrize("kind", ["integer", "number"])
    def test_bool_is_not_a_number(self, kind):
        with pytest.raises(ValueError, match=f"is not an? {kind}"):
            schemas.check({"type": kind}, True, "test")

    def test_integral_float_is_not_an_integer(self):
        """Stricter than draft-07, which accepts 1.0 as an integer."""
        with pytest.raises(ValueError, match="is not an integer"):
            schemas.check({"type": "integer"}, 1.0, "test")

    def test_enum_distinguishes_bool_from_int(self):
        schemas.check({"enum": [1]}, 1, "test")
        with pytest.raises(ValueError):
            schemas.check({"enum": [1]}, True, "test")

    def test_keywords_apply_only_to_their_kind(self):
        schema = {"minimum": 0, "minItems": 1, "required": ["a"], "pattern": "^a"}
        for value in ("abc", -1.0 + 2, [0], {"a": 1}, None, True):
            schemas.check(schema, value, "test")

    def test_error_names_the_path(self):
        schema = {
            "type": "object",
            "properties": {
                "runs": {"type": "array", "items": {"required": ["label"]}}
            },
        }
        with pytest.raises(
            ValueError, match=r"^test: runs\[1\] missing required key 'label'$"
        ):
            schemas.check(schema, {"runs": [{"label": "a"}, {}]}, "test")

    def test_version_is_picked_by_the_schema_field(self):
        document = {"schema": "repro.sweep/v1.2"}
        with pytest.raises(ValueError, match="schema id 'repro.sweep/v1.2' not in"):
            schemas.validate(
                document, ("repro.sweep/v1", "repro.sweep/v1.1"), "test"
            )
