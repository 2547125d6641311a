"""Smoke test of the benchmark: every workload at smoke scale, same code path.

Runs each workload once untraced and once traced through
:func:`bench.child.measure` (what every child process runs), checks the
runner's output against ``BENCHMARK.json``, the span tree, that tracing
leaves the library untouched, and the verdicts of ``bench/compare.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.core.rankers
import repro.ilp.solver
from bench import compare
from bench.child import INSTANCES, Sessions, instance_seeds, measure
from bench.probe import REFERENCE_PROBE_S, calibrated
from bench.run import ROOT, SPEC, contract_line, workload_result
from bench.trace import LAYER_METRICS, _PlanFingerprints, _resolve, targets
from bench.workloads import WORKLOADS, generate
from repro.core.rain import DebugReport, IterationRecord

NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _attributes() -> dict:
    """Every trace target's current object and whether its owner defines it."""
    out = {}
    for target in targets(_PlanFingerprints()):
        owner, attribute = _resolve(target)
        out[(target.module, target.path)] = (
            getattr(owner, attribute), attribute in vars(owner)
        )
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{workload: (untraced result, traced result, trace file, attributes)}``."""
    directory = tmp_path_factory.mktemp("trace")
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for key in [key for key in os.environ if key.startswith("REPRO_")]:
            patch.delenv(key)
        for name in NAMES:
            before = _attributes()
            untraced = workload_result(measure(name, 0, 0, scale="smoke"))
            trace_file = directory / f"{name}.jsonl"
            traced = workload_result(
                measure(name, 0, 0, scale="smoke", trace_path=str(trace_file))
            )
            out[name] = (untraced, traced, trace_file, before)
    return out


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert 2 <= len(NAMES) <= 4


@pytest.mark.parametrize("name", NAMES)
def test_every_spec_metric_is_emitted_with_its_unit(runs, name):
    untraced, traced, _, _ = runs[name]
    for result, spec in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        line = contract_line([result])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec} == {
            metric: value["unit"] for metric, value in line["metrics"].items()
        }
        assert all(isinstance(value["value"], (int, float))
                   for value in line["metrics"].values())
    for metric in SPEC["per_layer"]:
        if metric["name"] in LAYER_METRICS:
            assert LAYER_METRICS[metric["name"]][0] == metric["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_correctness_checks_pass(runs, name):
    untraced, traced, _, _ = runs[name]
    for result in (untraced, traced):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
    # The traced session reproduced the untraced order (same digest too).
    assert untraced["removals_digest"] == traced["removals_digest"]
    assert len(untraced["removals_digest"]) == 64


def test_rounds_cycle_through_every_instance():
    result = measure("dblp-holistic", 0, 2.0, scale="smoke")
    assert result["failed"] == 0, result["problems"]
    assert result["instance_seeds"] == instance_seeds(0)
    assert len(set(instance_seeds(0)) | set(instance_seeds(1))) == 2 * INSTANCES
    assert all(auccr is not None for auccr in result["auccr"])
    rounds = len(result["samples"]["run_s"])
    assert rounds >= INSTANCES
    assert result["sample_instances"] == [r % INSTANCES for r in range(rounds)]
    # Two probes per round after the first one; every timing is calibrated.
    assert len(result["probe_s"]) == 2 * len(result["samples"]["run_s"]) + 1
    for name, values in result["samples"].items():
        assert len(values) == len(result["raw_samples"][name])


def test_calibration_rescales_by_the_surrounding_probes():
    assert calibrated(1.5, REFERENCE_PROBE_S, REFERENCE_PROBE_S) == 1.5
    # A host twice as slow as the reference: probes and session both double.
    assert calibrated(3.0, 2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S) == pytest.approx(1.5)
    assert calibrated(3.0, REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S) == pytest.approx(1.5)


def _report(order, stopped="budget", satisfied=False) -> DebugReport:
    return DebugReport("twostep", order, [IterationRecord(1, [], satisfied)], {}, stopped)


def test_checks_reject_a_bad_order():
    sessions = Sessions(generate(WORKLOADS["dblp-twostep"], 0, "smoke"))
    budget = sessions.inputs.budget
    short = list(range(budget - 1))
    # Stopping early is fine only when the complaints are resolved.
    assert sessions._check(_report(short, "no_signal", satisfied=True), budget) == []
    assert sessions._check(_report(short, "no_signal"), budget)
    assert sessions._check(_report([0] * budget), budget)  # duplicates
    assert sessions._check(_report([-1] + short[1:]), budget)  # invalid row id
    assert sessions._check(_report(short[1:]), budget - 2)  # differs from the reference


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_are_non_negative(runs, name):
    _, _, trace_file, _ = runs[name]
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and all(span["end"] is not None for span in spans)
    child_time: dict[int, float] = {}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["session"] == span["session"]
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    for index, total in child_time.items():
        assert spans[index]["end"] - spans[index]["start"] - total >= -1e-9


@pytest.mark.parametrize("name", NAMES)
def test_tracing_restores_every_wrapped_attribute(runs, name):
    *_, before = runs[name]
    assert _attributes() == before
    assert repro.core.rankers.enumerate_optima is repro.ilp.solver.enumerate_optima


def test_the_layers_each_workload_stresses(runs):
    layers = {name: runs[name][1]["layers"] for name in NAMES}
    assert layers["dblp-twostep"]["ilp.lp_solves"] > 0
    assert layers["adult-multicase-holistic"]["relational.repeat_plan_frac"] > 0
    for name in NAMES:
        if name != "dblp-twostep":
            assert layers[name]["ilp.solves"] == 0
        if name != "adult-multicase-holistic":
            assert layers[name]["relational.repeat_plan_frac"] == 0


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )


def test_command_prints_the_contract_line():
    done = _run("--workload", "dblp-holistic", "--seed", "0", "--seconds", "0",
                "--trace", "0", "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    done = _run("--workload", "dblp-holistic", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- compare.py verdicts on synthetic samples ---------------------------------------


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00]
    assert compare.verdict(base, base, 0.1, "lower")["verdict"] == "unchanged"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, "lower")["verdict"] == "regressed"
    assert compare.verdict(base, [x * 0.8 for x in base], 0.1, "lower")["verdict"] == "improved"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, "higher")["verdict"] == "improved"
    noisy = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert compare.verdict(noisy, noisy, 0.1, "lower")["verdict"] == "unresolved"
    # A wide spread is resolved when every B sample beats every A sample.
    assert compare.verdict(noisy, [0.3, 0.4, 0.5], 0.1, "lower")["verdict"] == "improved"
    # Rounds of one run: what counts is how much the median of 40 spreads.
    rounds = noisy * 8
    row = compare.verdict(rounds, rounds, 0.1, "lower", rounds=True)
    assert row["verdict"] == "unchanged"
    assert row["spread"] == pytest.approx(0.4 * compare.MEDIAN_SE / 40**0.5)


def test_within_run_takes_out_the_instance_level():
    # Instance 1 does 20% more work; around its own level each varies by 2%.
    # Instance 2, measured once, is left out.
    values = [1.00, 1.20, 1.02, 1.224, 0.98, 1.176, 5.0]
    result = {"metrics": {"run_s": {"samples": values}},
              "sample_instances": [0, 1] * 3 + [2]}
    adjusted = compare.within_run(result, "run_s")
    assert len(adjusted) == 6
    assert compare.verdict(values, values, 0.1, "lower")["verdict"] == "unresolved"
    assert compare.verdict(adjusted, adjusted, 0.1, "lower")["verdict"] == "unchanged"
    assert max(adjusted) / min(adjusted) == pytest.approx(1.02 / 0.98)


def _document(run_s: list[float], failed: int = 0) -> dict:
    metrics = {
        m["name"]: {"median": sorted(run_s)[len(run_s) // 2], "samples": run_s}
        for m in SPEC["end_to_end"]
    }
    return {"meta": {"trace": 0}, "workloads": {
        "dblp-twostep": {"metrics": metrics, "attempted": 10, "failed": failed}
    }}


def test_compare_rows_and_failed_frac():
    a = _document([1.0, 1.0, 1.01])
    rows = compare.compare([a], [_document([1.0, 1.0, 1.01], failed=1)], SPEC)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["failed_frac"] == "regressed"
    assert verdicts["run_s"] == "unchanged"
    assert {row["workload"] for row in rows} == {"dblp-twostep"}


def test_claim_needs_nine_of_ten_pairs_and_a_margin():
    parent = [_document([1.0 + 0.01 * (i % 3)]) for i in range(10)]
    faster = [_document([0.8 + 0.01 * (i % 3)]) for i in range(10)]
    assert compare.claim(parent, faster, "run_s", "dblp-twostep", "lower")["met"]
    mixed = faster[:8] + [_document([1.1])] * 2
    assert not compare.claim(parent, mixed, "run_s", "dblp-twostep", "lower")["met"]
    assert not compare.claim(parent[:5], faster[:5], "run_s", "dblp-twostep", "lower")["met"]
