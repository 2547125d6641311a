"""Benchmark runner: one child process per workload, end to end or traced.

Run from the repository root::

    python -m bench                                   # all workloads, end to end
    python -m bench --workload dblp-twostep --seed 1  # one workload
    python -m bench --trace                           # per-layer numbers instead
    python -m bench --out bench/results/mine.json     # also write a result file

``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``) is how long
each workload measures after its warm-up session.  Workloads run one at a
time, each in its own single-threaded child process whose environment has
``OMP/OPENBLAS/MKL_NUM_THREADS=1`` and no ``REPRO_*`` variables.

Standard output is a table per workload followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
every end-to-end metric of ``BENCHMARK.json`` (or, with ``--trace``, every
per-layer one) as ``{"value", "unit"}``.  End-to-end timings are seconds
at the reference host speed (:mod:`bench.probe`); the table also prints
the raw medians.  With several workloads the
metric names carry an ``@workload`` suffix.  The exit code is 0 when every
child ran, whether or not its checks passed (``correct`` says that), and
non-zero when a child could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_DIR = Path("bench") / "out"  # relative to ROOT, the children's cwd


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples (None if empty).

    ``samples`` keeps the measurement order, so drift within a run shows.
    """
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "samples": []}
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def child_env() -> dict[str, str]:
    """The parent environment minus ``REPRO_*``, with one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")  # bench itself comes from the cwd
    return env


def run_child(workload: str, args) -> dict | None:
    """Measure one workload in a fresh process; None if it could not run."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
    ]
    if args.trace:
        (ROOT / TRACE_DIR).mkdir(parents=True, exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{workload}-seed{args.seed}.jsonl"
        command += ["--trace-out", str(trace_file)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=2 * args.seconds + 100,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"bench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def workload_result(child: dict) -> dict:
    """A child's raw output plus the summarized metrics of the spec."""
    result = dict(child)
    samples = dict(result.pop("samples"), peak_rss_mb=[child["peak_rss_mb"]])
    result["correct"] = child["failed"] == 0
    if child["traced"]:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        result["metrics"] = {
            name: {"value": child["layers"].get(name), "unit": unit}
            for name, unit in units.items()
        }
        return result
    result["metrics"] = {
        m["name"]: {"unit": m["unit"], **summarize(samples[m["name"]])}
        for m in SPEC["end_to_end"]
    }
    return result


def _git(*args: str) -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package: str) -> str | None:
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def metadata(args) -> dict:
    """Where, when and on what a result was measured."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}"
          f"{', traced' if result['traced'] else ''}) ==")
    if result["traced"]:
        print(f"{'metric':32} {'unit':6} value")
        for name, metric in result["metrics"].items():
            print(f"{name:32} {metric['unit']:6} {_fmt(metric['value'])}")
        if result["missing_targets"]:
            print("missing targets (null metrics): " + ", ".join(result["missing_targets"]))
    else:
        print(f"{'metric':12} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} {'n':>4}")
        for name, metric in result["metrics"].items():
            print(f"{name:12} {metric['unit']:5} {_fmt(metric['median']):>10} "
                  f"{_fmt(metric['q1']):>10} {_fmt(metric['q3']):>10} {metric['n']:>4}")
    if not result["traced"]:
        raw = ", ".join(f"{name} {_fmt(summarize(values)['median'])}"
                        for name, values in result["raw_samples"].items())
        print(f"raw medians (s): {raw}; speed probe median "
              f"{_fmt(summarize(result['probe_s'])['median'])} s "
              f"(reference {result['probe_reference_s']} s)")
    auccr = "/".join(_fmt(value) for value in result["auccr"])
    print(f"removal orders sha256 {result['removals_digest']} (seeds "
          f"{'/'.join(map(str, result['instance_seeds']))}: {result['budget']} removals "
          f"each, auccr {auccr})")
    print(f"sessions {result['attempted']}, failed {result['failed']}: "
          + ("checks ok" if result["correct"] else "; ".join(result["problems"])))
    print()


def contract_line(results: list[dict]) -> dict:
    """The last output line: correctness, session counts and metric values."""
    metrics = {}
    for result in results:
        suffix = "" if len(results) == 1 else f"@{result['workload']}"
        for name, metric in result["metrics"].items():
            value = metric["value"] if result["traced"] else metric["median"]
            metrics[name + suffix] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: per-layer metrics from traced sessions")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    meta = metadata(args) if args.out else None
    results = []
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        child = run_child(workload, args)
        if child is None:
            return 1
        results.append(workload_result(child))
        print_table(results[-1])
    if args.out:
        document = {"meta": meta, "workloads": {r["workload"]: r for r in results}}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(contract_line(results)))
    return 0
