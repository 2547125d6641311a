"""One workload in one process: sessions, samples and correctness checks.

:mod:`bench.run` starts ``python -m bench.child`` once per workload with a
clean environment (one BLAS thread, no ``REPRO_*`` knobs); the child
prints one JSON object as its last line of standard output.  The smoke
test calls :func:`measure` in-process, through the same code.

A *session* is one fresh debugger: :func:`~bench.workloads.setup` (timed
as ``setup_s``) followed by ``RainDebugger.run``.  Full sessions spend the
whole removal budget (``run_s``); first-k sessions stop after the first
``k`` removals (``first_k_s``).  Every session's removal order is checked;
a session that raises, fails a check or stops short of its budget counts
as failed.

A run measures :data:`INSTANCES` input instances of its workload, drawn
from seeds ``seed * INSTANCES + j``, and every timing is taken between two
host speed probes (:mod:`bench.probe`) and reported at reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

from repro.core.metrics import auccr_normalized, recall_curve

from .probe import REFERENCE_PROBE_S, calibrated, probe
from .trace import LAYER_METRICS, Tracer, installed, session_metrics
from .workloads import FIRST_K, K_PER_ITERATION, WORKLOADS, Inputs, generate, setup

#: Each round times one batch of first-k sessions lasting about this long
#: (at most a tenth of the run).
#: The host switches speed within a fraction of a second, so a single
#: sub-second session lands wholly in one speed level and its median over
#: a run jumps between levels; the mean over a batch moves smoothly.
FIRST_K_BATCH_SECONDS = 0.5

#: Input instances per run.  The seed changes how much work a session does
#: (IQR about 5-12% of the median; some DBLP TwoStep draws need twice the
#: LP solves), so a run on one draw would carry that draw's luck; rounds
#: cycle through the instances and the run's median pools all of them.
INSTANCES = 6


def instance_seeds(seed: int) -> list[int]:
    """The generator seeds of a run's instances (disjoint across run seeds)."""
    return [seed * INSTANCES + j for j in range(INSTANCES)]


def order_digest(orders: list[list[int]]) -> str:
    """sha256 of a run's removal orders, to compare results across commits."""
    text = ";".join(",".join(map(str, order)) for order in orders)
    return hashlib.sha256(text.encode()).hexdigest()


class Sessions:
    """Runs sessions on one input instance and checks every order.

    The instance's first full session's order is its reference: every
    later full session on it (traced or not) must reproduce it exactly, and
    every first-k session must reproduce its first ``k`` removals.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.n_train = inputs.arrays["X_train"].shape[0]
        self.first_k = min(FIRST_K, inputs.budget)
        self.reference: list[int] | None = None
        self.auccr: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, budget: int, label: str, tracer: Tracer | None = None):
        """One session: ``(setup_s, run_s, run span index)``, or None if failed."""
        self.attempted += 1
        try:
            setup_s, run_s, run_id, report = self._timed(budget, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._fail(label, "raised (traceback on stderr)")
            return None
        problems = self._check(report, budget)
        if problems:
            self._fail(label, "; ".join(problems))
            return None
        return setup_s, run_s, run_id

    def _timed(self, budget: int, tracer: Tracer | None):
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        start = time.perf_counter()
        with span("session.setup"):
            debugger = setup(self.inputs)
        ready = time.perf_counter()
        with span("session.run"):
            run_id = len(tracer.spans) - 1 if tracer is not None else None
            report = debugger.run(max_removals=budget, k_per_iteration=K_PER_ITERATION)
        end = time.perf_counter()
        return ready - start, end - ready, run_id, report

    def _check(self, report, budget: int) -> list[str]:
        order = [int(row) for row in report.removal_order]
        problems = []
        # Stopping early is only a success when every complaint is resolved
        # (TwoStep then finds nothing left to fix and reports no_signal).
        resolved = report.iterations and report.iterations[-1].complaints_satisfied
        if len(order) != budget and not (report.stopped_reason == "no_signal" and resolved):
            problems.append(
                f"{len(order)} removals for a budget of {budget} "
                f"(stopped: {report.stopped_reason})"
            )
        if len(set(order)) != len(order):
            problems.append("duplicate row ids")
        if any(not 0 <= row < self.n_train for row in order):
            problems.append("row id outside the training set")
        if problems:
            return problems
        if self.reference is None and budget == self.inputs.budget:
            self.reference = order
            self.auccr = auccr_normalized(
                recall_curve(order, self.inputs.corrupted_indices)
            )
            floor = self.inputs.auccr_floor
            if self.auccr < floor:
                problems.append(f"auccr {self.auccr:.4f} below floor {floor}")
        elif self.reference is not None and order != self.reference[:budget]:
            problems.append("removal order differs from the run's first session")
        return problems

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"seed {self.inputs.seed} {label}: {problem}")


def _median(values: list[float]) -> float | None:
    """The lower median: always one measured value (counts stay integers)."""
    return statistics.median_low(values) if values else None


def measure(
    name: str,
    seed: int,
    seconds: float,
    scale: str = "full",
    trace_path: str | None = None,
) -> dict:
    """Measure one workload for ``seconds`` after one warm-up session.

    Rounds cycle through the run's instances, each session on a fresh
    debugger.  Untraced: a round is one full session and a batch of
    first-k sessions, with a speed probe before, between and after them.
    A round whose sessions all pass contributes one sample per metric
    (``sample_instances`` names its instance), each rescaled by its
    surrounding probes to reference speed: ``run_s`` of the full session,
    the mean ``first_k_s`` of the batch and the mean ``setup_s`` of all
    its sessions; the reported value is the median over rounds.  Traced
    (``trace_path`` given, where the spans are written): a round is one
    untraced and one traced full session; per-layer metrics are the lower
    medians over the traced sessions, and ``trace.overhead_frac`` is the
    lower median over rounds of traced ÷ untraced calibrated ``run_s``
    − 1 (pairing the two sessions of a round, each between its own
    probes, keeps host speed changes out of the overhead).
    """
    traced = trace_path is not None
    load_start = os.getloadavg()
    instances = [Sessions(generate(WORKLOADS[name], s, scale)) for s in instance_seeds(seed)]
    metrics = ("setup_s", "first_k_s", "run_s")
    samples: dict[str, list[float]] = {metric: [] for metric in metrics}
    raw: dict[str, list[float]] = {metric: [] for metric in metrics}
    sample_instances: list[int] = []
    probes: list[float] = []
    overheads: list[float] = []
    layer_samples: list[dict] = []
    tracer = Tracer()

    def attempted() -> int:
        return sum(sessions.attempted for sessions in instances)

    instances[0].run(instances[0].inputs.budget, "warm-up")
    batch = 1
    if not traced:
        warm = instances[0].run(instances[0].first_k, "warm-up first-k")
        if warm is not None:
            target = min(FIRST_K_BATCH_SECONDS, seconds / 10)
            batch = max(1, math.ceil(target / (warm[0] + warm[1])))
    probe()  # warm-up
    probes.append(probe())
    start = time.perf_counter()
    for round_index in itertools.count():
        sessions = instances[round_index % INSTANCES]
        full = sessions.run(sessions.inputs.budget, "full")
        probes.append(probe())
        if traced:
            tracer.session = attempted()
            with installed(tracer) as missing_spans:
                result = sessions.run(sessions.inputs.budget, "traced", tracer)
            probes.append(probe())
            before, between, after = probes[-3:]
            if result is not None:
                layer_samples.append(session_metrics(tracer.spans, result[2], missing_spans))
                if full is not None:
                    overheads.append(calibrated(result[1], between, after)
                                     / calibrated(full[1], before, between) - 1.0)
        else:
            first = [sessions.run(sessions.first_k, "first-k") for _ in range(batch)]
            probes.append(probe())
            before, between, after = probes[-3:]
            # A round with a failed session gives no samples (the run is
            # already incorrect); the others keep every metric aligned.
            if full is not None and None not in first:
                sample_instances.append(round_index % INSTANCES)
                raw["run_s"].append(full[1])
                samples["run_s"].append(calibrated(full[1], before, between))
                mean = statistics.fmean(result[1] for result in first)
                raw["first_k_s"].append(mean)
                samples["first_k_s"].append(calibrated(mean, between, after))
                setups = [(full[0], before, between)]
                setups += [(result[0], between, after) for result in first]
                raw["setup_s"].append(statistics.fmean(s[0] for s in setups))
                samples["setup_s"].append(statistics.fmean(calibrated(*s) for s in setups))
        if time.perf_counter() - start >= seconds:
            break

    out = {
        "workload": name,
        "seed": seed,
        "instance_seeds": instance_seeds(seed),
        "scale": scale,
        "traced": traced,
        "seconds": seconds,
        "first_k_batch": batch,
        "attempted": attempted(),
        "failed": sum(sessions.failed for sessions in instances),
        "problems": [problem for sessions in instances for problem in sessions.problems],
        "budget": instances[0].inputs.budget,
        "removals_digest": order_digest([s.reference or [] for s in instances]),
        "auccr": [sessions.auccr for sessions in instances],
        "samples": samples,
        "raw_samples": raw,
        "sample_instances": sample_instances,
        "probe_s": probes,
        "probe_reference_s": REFERENCE_PROBE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loadavg": [load_start, os.getloadavg()],
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") or key.endswith("_NUM_THREADS")
        },
    }
    if traced:
        out["missing_targets"] = tracer.missing
        out["layers"] = {
            metric: _median([s[metric] for s in layer_samples if s[metric] is not None])
            for metric in LAYER_METRICS
        }
        out["layers"]["trace.overhead_frac"] = _median(overheads)
        out["trace_file"] = trace_path
        tracer.dump(trace_path)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--trace-out", help="trace the sessions; write spans here")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.scale, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
