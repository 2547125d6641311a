"""Sharded multi-query serving: deterministic parallel case execution.

The train-rank-fix loop serves every complaint case through three
per-iteration stages — query re-execution, provenance/objective
encoding, and the influence solve — and the first two are
embarrassingly parallel across cases.  This module supplies the worker
pool and the execute-stage bookkeeping the driver and rankers use to
exploit that, under one hard rule:

**worker count must never change the answer.**  A sharded run with
``n_workers=4`` must produce removal orders bit-identical to serial
execution (``n_workers=0``).  Three design decisions make that hold by construction:

- *Plan-fingerprint dedup, not speculative reuse*: each distinct plan is
  executed once per iteration (:class:`~repro.relational.executor.ExecutionCache`)
  and the result shared across its cases.  A compiled debug result is a
  pure function of (plan, data, model parameters), so sharing it is
  invisible to every consumer.
- *Per-item work, ordered merge*: the pool only ever maps a function
  over cases or distinct plans and merges the results in item order —
  nothing is partitioned by ``n_workers``.  This is forced by floating
  point: splitting a reduction by worker changes its shapes and
  therefore output bits, so a partition derived from ``n_workers`` would
  make removal orders depend on the worker count through ulp-level
  score differences.
- *Driver-side randomness*: no worker ever consumes the run RNG.
  Stochastic steps (TwoStep's optimum pick) stay on the driver in case
  order; data-side sampling shards its own seeds via
  ``np.random.SeedSequence.spawn`` (:func:`spawn_generators`).

Workers are threads, not processes: the heavy kernels (query execution,
relaxation sweeps, CG) are numpy batch operations that release the GIL,
results are shared by reference, and the merge is an ordered list — no
pickling, no nondeterministic reduce.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..analysis import knobs
from ..complaints.complaint import ComplaintCase
from ..errors import DebuggingError
from ..relational.algebra import Plan
from ..relational.executor import ExecutionCache, Executor, QueryResult

# Back-compat aliases; the registry in repro.analysis.knobs is canonical.
WORKERS_ENV_VAR = knobs.N_WORKERS.env_var


def resolve_workers(n_workers: int | None) -> int:
    """Normalize the ``n_workers`` knob.

    ``None`` defers to the ``REPRO_N_WORKERS`` environment variable
    (default ``0``, read through the :mod:`repro.analysis.knobs`
    registry); ``0`` means the serial loop, untouched; ``>= 1`` enables
    the sharded serving path (``1`` exercises it without real
    concurrency — useful for pinning shard/serial equivalence).
    """
    if n_workers is None:
        raw = knobs.read("n_workers")
        try:
            n_workers = int(raw)
        except ValueError:
            raise DebuggingError(
                f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
            ) from None
    n_workers = int(n_workers)
    if n_workers < 0:
        raise DebuggingError(f"n_workers must be >= 0, got {n_workers}")
    return n_workers


def spawn_generators(seed: int, n_shards: int) -> list[np.random.Generator]:
    """Independent per-shard generators via ``SeedSequence.spawn``.

    Every shard gets its own child stream derived from one root seed, so
    a shard's draws depend only on (seed, shard index) — never on which
    worker runs it, in what order, or how many workers exist.
    """
    if n_shards <= 0:
        raise DebuggingError(f"n_shards must be positive, got {n_shards}")
    children = np.random.SeedSequence(seed).spawn(n_shards)
    return [np.random.default_rng(child) for child in children]


def run_sharded(
    fn: Callable, items: Sequence, n_workers: int, *args
) -> list:
    """Map ``fn`` over ``items`` on the worker pool; ordered merge.

    Results come back indexed by item position regardless of completion
    order.  ``n_workers <= 1`` runs the plain serial loop (same calls,
    same order), so the pool is pure transport: it can change wall-clock,
    never values.
    """
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item, *args) for item in items]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        futures = [pool.submit(fn, item, *args) for item in items]
        return [future.result() for future in futures]


@dataclass
class ExecuteStats:
    """Per-iteration serving diagnostics for the execute stage."""

    n_cases: int
    n_distinct_plans: int
    cache_hits: int
    cache_misses: int

    def as_dict(self) -> dict[str, int]:
        return {
            "n_cases": self.n_cases,
            "n_distinct_plans": self.n_distinct_plans,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def execute_cases(
    executor: Executor,
    cases: Sequence[ComplaintCase],
    plans: Sequence[Plan],
    provenance: str,
    n_workers: int,
) -> tuple[list[tuple[ComplaintCase, QueryResult]], ExecuteStats]:
    """Execute every case's query for one iteration, sharded and deduped.

    Cases are grouped by plan fingerprint; each distinct plan is executed
    once (in parallel across the pool) and its debug result — with the
    compiled provenance pool frozen on the executing thread — is shared
    by all cases over that plan.  The returned list is in the original
    case order, exactly like the serial loop's.

    ``provenance="tree"`` is the golden path: nothing is deduped or
    shared, each case re-executes serially.
    """
    cache = ExecutionCache(executor, provenance=provenance)
    if not cache.cacheable:
        case_results = [
            (case, cache.fetch(plan)) for case, plan in zip(cases, plans)
        ]
        stats = ExecuteStats(len(cases), len(cases), 0, len(cases))
        return case_results, stats

    fingerprints = [cache.fingerprint(plan) for plan in plans]
    distinct: dict[str, Plan] = {}
    for fingerprint, plan in zip(fingerprints, plans):
        distinct.setdefault(fingerprint, plan)

    order = list(distinct.items())
    run_sharded(
        lambda entry: cache.fetch(entry[1], fingerprint=entry[0]),
        order,
        n_workers,
    )
    case_results = [
        (case, cache.fetch(plan, fingerprint=fingerprint))
        for case, plan, fingerprint in zip(cases, plans, fingerprints)
    ]
    # The per-case fetches above are all hits; only the distinct
    # executions count as misses.
    stats = ExecuteStats(
        n_cases=len(cases),
        n_distinct_plans=len(distinct),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
    return case_results, stats
