"""BENCHMARK.json agrees with what the benchmark prints, and every name
fits the metric-name charset."""

import json
import os

import pytest

import pace
import report
import spans
import workloads
from conftest import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _printed():
    meas = workloads.Measurement(
        steps=[(i, i + 1.0) for i in range(20)], setups=[0.1],
        nodes=[7] * 20,
        probes=[(i + 0.5, pace.REFERENCE_PROBE_S) for i in range(20)])
    e2e, _ = report.end_to_end(workloads.WORKLOADS["train_video"], meas,
                               [0.5], 90.0)
    layer = report.per_layer(spans.Tracer(), meas)
    return e2e, layer


@pytest.mark.parametrize("name", [
    "step_ms_p50", "layers.affine_ms", "x-1.y", "9a"])
def test_charset_accepts(name):
    assert report.NAME_RE.fullmatch(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "has space", "slash/name", "a" * 65, "pct%"])
def test_charset_rejects(name):
    assert not report.NAME_RE.fullmatch(name)


def test_every_printed_name_fits_and_is_unique():
    e2e, layer = _printed()
    names = list(e2e) + list(layer) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert report.NAME_RE.fullmatch(name), name


def test_benchmark_json_lists_what_is_printed():
    e2e, layer = _printed()
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_result_line_refuses_a_name_outside_the_charset():
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {"bad name": (1.0, "ms")})
