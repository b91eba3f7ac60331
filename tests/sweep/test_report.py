"""repro.sweep/v1 reports: round trip, validator rejections."""

import copy

import pytest

from repro.sweep import (
    SCHEMA_ID,
    SweepAxis,
    SweepSpec,
    build_sweep_report,
    load_sweep_report,
    run_sweep,
    validate_sweep_report,
    write_sweep_report,
)

# Registered by tests/sweep/test_engine.py at import time; importing the
# module keeps the registration in one place.
from tests.sweep import test_engine as _engine  # noqa: F401


@pytest.fixture(scope="module")
def outcome():
    spec = SweepSpec(
        name="toy-report",
        evaluator="test.echo",
        axes=(SweepAxis("a", (1, 2)), SweepAxis("b", ("x",))),
        context={"scale": 3},
    )
    return run_sweep(spec, jobs=1)


@pytest.fixture()
def report(outcome):
    return copy.deepcopy(build_sweep_report(outcome))


class TestBuildReport:
    def test_schema_and_identity(self, outcome, report):
        assert report["schema"] == SCHEMA_ID
        assert report["sweep"] == "toy-report"
        assert report["evaluator"] == "test.echo"
        assert report["fingerprint"] == outcome.spec.fingerprint()
        assert [axis["name"] for axis in report["axes"]] == ["a", "b"]

    def test_one_point_per_canonical_index(self, outcome, report):
        assert [entry["index"] for entry in report["points"]] == [0, 1]
        assert [entry["row"] for entry in report["points"]] == outcome.rows
        assert [entry["key"] for entry in report["points"]] == outcome.point_keys

    def test_write_load_round_trip(self, outcome, tmp_path):
        path = tmp_path / "sweep_report.json"
        written = write_sweep_report(outcome, str(path))
        assert load_sweep_report(str(path)) == written

    def test_load_missing_returns_none(self, tmp_path):
        assert load_sweep_report(str(tmp_path / "absent.json")) is None


class TestValidator:
    def test_valid_report_passes(self, report):
        validate_sweep_report(report)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda r: r.update(schema="other/v9"), "schema id"),
            (lambda r: r.pop("points"), "missing required key"),
            (lambda r: r.update(fingerprint="zz"), "fingerprint"),
            (lambda r: r.update(jobs=0), "jobs"),
            (lambda r: r.update(memo={"hits": -1, "misses": 0}), "memo.hits"),
            (lambda r: r.update(worker_utilisation=1.5), "exceeds 1"),
            (lambda r: r.update(complete="yes"), "boolean"),
            (lambda r: r["points"][0].pop("row"), "missing required key 'row'"),
            (
                lambda r: r["points"].__setitem__(1, dict(r["points"][0])),
                "duplicated",
            ),
        ],
    )
    def test_structural_rejections(self, report, mutate, match):
        mutate(report)
        with pytest.raises(ValueError, match=match):
            validate_sweep_report(report)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_sweep_report([])
