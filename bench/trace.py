"""Outside-in tracing: spans around the public entry points of each layer.

The benchmark never edits the library.  :func:`installed` wraps the entry
points listed by :func:`targets` on the namespace the caller actually
looks them up in (``repro.core.rankers.enumerate_optima``, not the solver
module's own binding) for the duration of a ``with`` block, and restores
every attribute afterwards.  A target that no longer exists is skipped and
reported, so a later change that deletes a function turns its metrics
into ``null`` instead of crashing the benchmark.

Each call becomes one span ``{name, start, end, parent, session, attrs}``.
Spans stay in memory and are written as JSONL by :meth:`Tracer.dump`.
A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span recorder for the traced sessions of one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.session: int | None = None
        self.missing: list[str] = []
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": stack[-1] if stack else None,
            "session": self.session,
            "attrs": {},
        }
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._origin
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line (``id`` = index)."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


# -- what to wrap ---------------------------------------------------------------

Hook = Callable[[dict, tuple, object, BaseException | None], None]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: span name, owning module, attribute path."""

    span: str
    module: str
    path: str
    hook: Hook | None = None


def _encoded(span, args, result, error) -> None:
    program = args[0].program
    span["attrs"]["vars"] = program.n_vars
    span["attrs"]["rows"] = program.n_constraints


def _enumerated(span, args, result, error) -> None:
    if error is None:
        span["attrs"]["optima"] = len(result)
    else:
        span["attrs"]["failed"] = type(error).__name__


def _solved(span, args, result, error) -> None:
    if error is None:
        span["attrs"]["nodes"] = int(result.nodes_explored)


def _cg_scalar(span, args, result, error) -> None:
    cg = args[0].last_cg_result
    if error is None and cg is not None:
        span["attrs"]["cg_iters"] = int(cg.iterations)


def _cg_block(span, args, result, error) -> None:
    cg = args[0].last_block_cg_result
    if error is None and cg is not None and len(cg.iterations):
        # Block CG advances every column together: its step count is the max.
        span["attrs"]["cg_iters"] = int(max(cg.iterations))


class _PlanFingerprints:
    """Marks executions that repeat a plan already run under the same θ.

    A refit changes every prediction, so the "seen" set is cleared at each
    model fit; an execution whose plan fingerprint is already in the set
    recomputes a result that exists.
    """

    def __init__(self) -> None:
        self._by_plan: dict[int, tuple[object, str]] = {}
        self.seen: set[str] = set()

    def executed(self, span, args, result, error) -> None:
        plan = args[1] if len(args) > 1 else None
        if plan is None:
            return
        entry = self._by_plan.get(id(plan))
        if entry is None or entry[0] is not plan:
            from repro.relational.algebra import plan_fingerprint

            digest = hashlib.sha1(plan_fingerprint(plan).encode()).hexdigest()[:12]
            entry = self._by_plan[id(plan)] = (plan, digest)
        span["attrs"]["plan"] = entry[1]
        span["attrs"]["repeat"] = entry[1] in self.seen
        self.seen.add(entry[1])

    def fitted(self, span, args, result, error) -> None:
        self.seen.clear()


def targets(fingerprints: _PlanFingerprints) -> tuple[Target, ...]:
    """Every wrapped entry point, grouped by layer."""
    return (
        Target("ilp.encode", "repro.core.rankers", "make_encoder"),
        Target("ilp.encode", "repro.ilp.encode", "TiresiasEncoder.add_complaints",
               _encoded),
        Target("ilp.enumerate", "repro.core.rankers", "enumerate_optima", _enumerated),
        Target("ilp.solve", "repro.ilp.solver", "solve", _solved),
        Target("ilp.lp", "repro.ilp.solver", "PersistentLP.solve_relaxation"),
        Target("influence.solve", "repro.influence.functions",
               "InfluenceAnalyzer.inverse_hvp", _cg_scalar),
        Target("influence.solve", "repro.influence.functions",
               "InfluenceAnalyzer.inverse_hvp_block", _cg_block),
        Target("ml.fit", "repro.ml.base", "ClassificationModel.fit",
               fingerprints.fitted),
        Target("ml.hvp", "repro.ml.base", "ClassificationModel.hvp"),
        Target("ml.hvp", "repro.ml.base", "ClassificationModel.hvp_block"),
        Target("relational.execute", "repro.relational.executor", "Executor.execute",
               fingerprints.executed),
        Target("complaints.drain", "repro.core.rain", "all_satisfied"),
        Target("complaints.drain", "repro.core.rain", "all_satisfied_columnar"),
        Target("relaxation.objective", "repro.relaxation.objective",
               "RelaxedComplaintObjective.__init__"),
        Target("relaxation.objective", "repro.relaxation.objective",
               "RelaxedComplaintObjective.q_and_grad_theta"),
        Target("core.rank", "repro.core.rankers", "HolisticRanker.scores"),
        Target("core.rank", "repro.core.rankers", "TwoStepRanker.scores"),
    )


def _resolve(target: Target):
    """(owner, attribute) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *owners, attribute = target.path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attribute, None)):
        return None
    return owner, attribute


def _wrap(tracer: Tracer, target: Target, function):
    hook = target.hook

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = tracer.open(target.span)
        try:
            result = function(*args, **kwargs)
        except BaseException as error:
            tracer.close(span)
            if hook is not None:
                hook(span, args, None, error)
            raise
        tracer.close(span)
        if hook is not None:
            hook(span, args, result, None)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs.

    Yields the span names none of whose targets exist (their metrics are
    reported as null); ``tracer.missing`` names the missing targets.  On
    exit each attribute is put back exactly: an own attribute gets its
    original object again, an inherited one is deleted from the subclass.
    """
    patches = []
    wrapped: set[str] = set()
    every = targets(_PlanFingerprints())
    try:
        for target in every:
            resolved = _resolve(target)
            if resolved is None:
                tracer.missing.append(f"{target.module}.{target.path}")
                continue
            owner, attribute = resolved
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            setattr(owner, attribute, _wrap(tracer, target, original))
            patches.append((owner, attribute, original, own))
            wrapped.add(target.span)
        yield {target.span for target in every} - wrapped
    finally:
        for owner, attribute, original, own in reversed(patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


# -- per-layer metrics ------------------------------------------------------------

#: Per-layer metrics of one traced session: name -> (unit, source span,
#: meaning).  A metric is ``null`` when no target of its source span could
#: be wrapped.  Layers that a workload may not call at all (ILP,
#: relaxation) also report their time as a share of the traced run, so
#: that the contract line carries no "time" that is identically zero on a
#: workload bypassing the layer.
LAYER_METRICS: dict[str, tuple[str, str | None, str]] = {
    "ilp.encode_s": ("s", "ilp.encode", "make_encoder + add_complaints"),
    "ilp.encode_frac": ("ratio", "ilp.encode", "ilp.encode_s / core.run_s"),
    "ilp.vars": ("count", "ilp.encode", "largest encoded program: variables"),
    "ilp.rows": ("count", "ilp.encode", "largest encoded program: constraint rows"),
    "ilp.enumerate_s": ("s", "ilp.enumerate", "enumerate_optima"),
    "ilp.enumerate_frac": ("ratio", "ilp.enumerate", "ilp.enumerate_s / core.run_s"),
    "ilp.optima": ("count", "ilp.enumerate", "optima returned by enumerate_optima"),
    "ilp.failures": ("count", "ilp.enumerate", "enumerations that raised"),
    "ilp.solves": ("count", "ilp.solve", "branch & bound solves"),
    "ilp.bb_nodes": ("count", "ilp.solve", "branch & bound nodes of completed solves"),
    "ilp.nodes_per_solve": ("ratio", "ilp.solve", "ilp.bb_nodes / completed solves"),
    "ilp.lp_solves": ("count", "ilp.lp", "LP relaxation solves"),
    "ilp.lp_s": ("s", "ilp.lp", "LP relaxation solves"),
    "ilp.lp_frac": ("ratio", "ilp.lp", "ilp.lp_s / core.run_s"),
    "ilp.lp_solves_per_optimum": (
        "ratio", "ilp.lp", "LP solves (attempts) per optimum found (useful); 1 = no waste"
    ),
    "influence.solve_s": ("s", "influence.solve", "inverse_hvp + inverse_hvp_block"),
    "influence.solves": ("count", "influence.solve", "CG solves"),
    "influence.cg_iters": (
        "count", "influence.solve", "CG steps (a block solve counts its longest column)"
    ),
    "ml.fit_s": ("s", "ml.fit", "model fits inside the run"),
    "ml.fit_calls": ("count", "ml.fit", "model fits inside the run"),
    "ml.hvp_s": ("s", "ml.hvp", "hvp + hvp_block"),
    "ml.hvp_calls": ("count", "ml.hvp", "hvp + hvp_block calls"),
    "relational.execute_s": ("s", "relational.execute", "Executor.execute"),
    "relational.execute_calls": ("count", "relational.execute", "Executor.execute calls"),
    "relational.repeat_plan_frac": (
        "ratio", "relational.execute", "executions repeating a plan under unchanged θ"
    ),
    "complaints.drain_s": (
        "s", "complaints.drain", "all_satisfied + all_satisfied_columnar"
    ),
    "complaints.drain_calls": ("count", "complaints.drain", "satisfaction checks"),
    "relaxation.objective_s": (
        "s", "relaxation.objective",
        "RelaxedComplaintObjective construction + q_and_grad_theta",
    ),
    "relaxation.objective_frac": (
        "ratio", "relaxation.objective", "relaxation.objective_s / core.run_s"
    ),
    "relaxation.objective_calls": (
        "count", "relaxation.objective", "objective constructions + evaluations"
    ),
    "core.run_s": ("s", None, "traced RainDebugger.run"),
    "core.iterations": ("count", "core.rank", "Ranker.scores calls, one per iteration"),
    "core.rank_s": ("s", "core.rank", "Ranker.scores"),
    "core.rank_self_s": ("s", "core.rank", "Ranker.scores minus its traced children"),
    "core.loop_self_s": ("s", None, "run minus its fit, execute, rank and drain spans"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def session_metrics(
    spans: list[dict], run_id: int, missing_spans: set[str] = frozenset()
) -> dict[str, float | None]:
    """Per-layer metrics over the spans below the run span ``run_id``."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)

    def duration(index: int) -> float:
        return spans[index]["end"] - spans[index]["start"]

    def self_time(index: int) -> float:
        return duration(index) - sum(duration(c) for c in children.get(index, ()))

    # Walk the run's subtree, tracking names open above each span so a
    # layer nested in itself (a traced call reaching another) counts once.
    by_name: dict[str, list[int]] = {}
    outermost: dict[str, float] = {}
    pending = [(run_id, frozenset())]
    while pending:
        index, above = pending.pop()
        for child in children.get(index, ()):
            name = spans[child]["name"]
            by_name.setdefault(name, []).append(child)
            if name not in above:
                outermost[name] = outermost.get(name, 0.0) + duration(child)
            pending.append((child, above | {name}))

    def total(name: str) -> float:
        return outermost.get(name, 0.0)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ()))

    def attr_max(name: str, key: str) -> int:
        return max((spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ())),
                   default=0)

    run_s = duration(run_id)
    completed_solves = sum(
        1 for i in by_name.get("ilp.solve", ()) if "nodes" in spans[i]["attrs"]
    )
    executions = by_name.get("relational.execute", ())
    optima = attr_sum("ilp.enumerate", "optima")
    values = {
        "ilp.encode_s": total("ilp.encode"),
        "ilp.encode_frac": _ratio(total("ilp.encode"), run_s),
        "ilp.vars": attr_max("ilp.encode", "vars"),
        "ilp.rows": attr_max("ilp.encode", "rows"),
        "ilp.enumerate_s": total("ilp.enumerate"),
        "ilp.enumerate_frac": _ratio(total("ilp.enumerate"), run_s),
        "ilp.optima": optima,
        "ilp.solves": count("ilp.solve"),
        "ilp.bb_nodes": attr_sum("ilp.solve", "nodes"),
        "ilp.nodes_per_solve": _ratio(attr_sum("ilp.solve", "nodes"), completed_solves),
        "ilp.lp_solves": count("ilp.lp"),
        "ilp.lp_s": total("ilp.lp"),
        "ilp.lp_frac": _ratio(total("ilp.lp"), run_s),
        "ilp.lp_solves_per_optimum": _ratio(count("ilp.lp"), optima),
        "ilp.failures": sum(
            1 for i in by_name.get("ilp.enumerate", ()) if "failed" in spans[i]["attrs"]
        ),
        "influence.solve_s": total("influence.solve"),
        "influence.solves": count("influence.solve"),
        "influence.cg_iters": attr_sum("influence.solve", "cg_iters"),
        "ml.fit_s": total("ml.fit"),
        "ml.fit_calls": count("ml.fit"),
        "ml.hvp_s": total("ml.hvp"),
        "ml.hvp_calls": count("ml.hvp"),
        "relational.execute_s": total("relational.execute"),
        "relational.execute_calls": len(executions),
        "relational.repeat_plan_frac": _ratio(
            sum(1 for i in executions if spans[i]["attrs"].get("repeat")), len(executions)
        ),
        "complaints.drain_s": total("complaints.drain"),
        "complaints.drain_calls": count("complaints.drain"),
        "relaxation.objective_s": total("relaxation.objective"),
        "relaxation.objective_frac": _ratio(total("relaxation.objective"), run_s),
        "relaxation.objective_calls": count("relaxation.objective"),
        "core.run_s": run_s,
        "core.iterations": count("core.rank"),
        "core.rank_s": total("core.rank"),
        "core.rank_self_s": sum(self_time(i) for i in by_name.get("core.rank", ())),
        "core.loop_self_s": self_time(run_id),
    }
    return {
        name: None if LAYER_METRICS[name][1] in missing_spans else values[name]
        for name in LAYER_METRICS
    }
