"""Compare two benchmark results: a verdict per workload and metric.

    python bench/compare.py A.json B.json
    python bench/compare.py parent_runs/ change_runs/ --claim run_s@dblp-twostep

``A`` is the base (parent commit), ``B`` the change.  Each side is one
end-to-end result file written by ``python -m bench --out`` or a
directory of them.  With several files per side the samples are the
per-run medians, and a side's spread is their IQR: the run-to-run spread.
With one file per side the samples are the rounds of that run, each
rescaled by the run's median over its instance's median (both sides run
the same instances, so the work one instance has more than another is not
noise), and a side's spread is the run-to-run spread its median would
have, estimated from the rounds as ``1.2533 * IQR / sqrt(n)`` (the
standard error of a median, in the same IQR units).

For every (workload, end-to-end metric) pair, using the metric's bound
from ``BENCHMARK.json`` as a share of A's median:

- ``unresolved`` when either side's spread is wider than the bound, unless
  every sample of B beats every sample of A (then ``improved``);
- otherwise ``regressed`` / ``improved`` when B's median is worse /
  better than A's by more than the bound, else ``unchanged``;
- ``failed_frac`` (failed ÷ attempted sessions) is ``regressed`` if it
  increased at all.

``--claim METRIC@WORKLOAD`` applies the rule for claiming a gain to
paired runs (the i-th run of A pairs with the i-th run of B, in file name
order; alternate which side runs first): B must win at least 9 of every
10 pairs, ties counting for neither, over at least 10 pairs, and the
medians must differ by more than the IQR of A's run medians.

Exit code: 0 when nothing regressed or is unresolved and every claim is
met, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Standard error of the median of n samples, times sqrt(n), over the
#: samples' spread (sqrt(pi / 2) for normal samples).
MEDIAN_SE = math.sqrt(math.pi / 2)


def load_runs(path: str) -> list[dict]:
    """End-to-end result documents from a file or a directory of files."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    runs = [json.loads(f.read_text()) for f in files]
    runs = [run for run in runs if not run["meta"].get("trace")]
    if not runs:
        raise SystemExit(f"compare: no end-to-end result files in {path}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def within_run(result: dict, metric: str) -> list[float]:
    """A run's round samples with each instance's own level taken out.

    An instance measured once has no spread of its own to show, so its
    sample is left out (unless no instance was measured twice).
    """
    values = result["metrics"][metric]["samples"]
    labels = result.get("sample_instances", [])
    if len(labels) != len(values):  # one value per run, such as peak_rss_mb
        return list(values)
    by_instance: dict[int, list[float]] = {}
    for label, value in zip(labels, values):
        by_instance.setdefault(label, []).append(value)
    level = {label: statistics.median(group)
             for label, group in by_instance.items() if len(group) > 1}
    if not level:
        return list(values)
    overall = statistics.median(values)
    return [value * overall / level[label]
            for label, value in zip(labels, values) if label in level]


def samples(runs: list[dict], workload: str, metric: str) -> list[float]:
    """Round samples of one run, or the per-run medians of several."""
    if len(runs) == 1:
        return within_run(runs[0]["workloads"][workload], metric)
    return [run["workloads"][workload]["metrics"][metric]["median"] for run in runs]


def verdict(a: list[float], b: list[float], bound: float, better: str,
            rounds: bool = False) -> dict:
    """The verdict for one (workload, metric) pair from A's and B's samples.

    ``rounds``: the samples are the rounds of one run per side, so the
    spread compared with the bound is that of each side's median.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = sign * (b_med - a_med) / a_med  # > 0 means B is worse
    a_iqr, b_iqr = a_q3 - a_q1, b_q3 - b_q1
    if rounds:
        a_iqr *= MEDIAN_SE / math.sqrt(len(a))
        b_iqr *= MEDIAN_SE / math.sqrt(len(b))
    spread = max(a_iqr, b_iqr) / a_med
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound:
        outcome = "improved" if b_beats_all else "unresolved"
    elif change > bound:
        outcome = "regressed"
    elif change < -bound:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {"a": a_med, "b": b_med, "change": sign * change, "spread": spread,
            "bound": bound, "verdict": outcome}


def failed_frac(runs: list[dict], workload: str) -> float:
    attempted = sum(run["workloads"][workload]["attempted"] for run in runs)
    failed = sum(run["workloads"][workload]["failed"] for run in runs)
    return failed / attempted


def claim(a_runs: list[dict], b_runs: list[dict], metric: str, workload: str,
          better: str) -> dict:
    """The paired-runs gain rule for one claimed metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a = [run["workloads"][workload]["metrics"][metric]["median"] for run in a_runs]
    b = [run["workloads"][workload]["metrics"][metric]["median"] for run in b_runs]
    pairs = min(len(a), len(b))
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    margin = sign * (a_med - b_med)
    met = pairs >= 10 and wins >= 0.9 * pairs and margin > a_q3 - a_q1
    return {"pairs": pairs, "wins": wins, "a": a_med, "b": b_med,
            "parent_iqr": a_q3 - a_q1, "met": met}


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, metric), including ``failed_frac``."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if not all(workload in run["workloads"] for run in a_runs + b_runs):
            continue
        for metric in spec["end_to_end"]:
            row = verdict(
                samples(a_runs, workload, metric["name"]),
                samples(b_runs, workload, metric["name"]),
                metric["bound"], metric["better"],
                rounds=len(a_runs) == len(b_runs) == 1,
            )
            rows.append({"workload": workload, "metric": metric["name"], **row})
        fa, fb = failed_frac(a_runs, workload), failed_frac(b_runs, workload)
        rows.append({
            "workload": workload, "metric": "failed_frac", "a": fa, "b": fb,
            "change": fb - fa, "spread": 0.0, "bound": 0.0,
            "verdict": "regressed" if fb > fa else "improved" if fb < fa else "unchanged",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="base result file or directory")
    parser.add_argument("b", help="changed result file or directory")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    rows = compare(a_runs, b_runs, spec)
    print(f"{'workload':26} {'metric':12} {'A':>11} {'B':>11} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:26} {row['metric']:12} {row['a']:11.5g} {row['b']:11.5g} "
              f"{row['change']:+8.1%} {row['spread']:7.1%} {row['bound']:6.0%}  "
              f"{row['verdict']}")
    ok = all(row["verdict"] in ("unchanged", "improved") for row in rows)

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for text in args.claim:
        metric, _, workload = text.partition("@")
        if metric not in better or workload not in a_runs[0]["workloads"]:
            parser.error(f"unknown claim {text!r}")
        result = claim(a_runs, b_runs, metric, workload, better[metric])
        print(f"claim {text}: B wins {result['wins']} of {result['pairs']} pairs; "
              f"medians {result['a']:.5g} -> {result['b']:.5g}, parent IQR "
              f"{result['parent_iqr']:.3g}: {'met' if result['met'] else 'NOT met'}")
        ok = ok and result["met"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
