"""Benchmark harness conventions.

Every benchmark wraps one experiment module from ``repro.experiments`` in
``benchmark.pedantic(..., rounds=1, iterations=1)`` (the experiments are
minutes-scale parameter sweeps, not microbenchmarks), writes the rendered
result table to ``benchmarks/out/<name>.txt`` (an untracked directory;
CI uploads it as an artifact), and asserts the paper's qualitative
shape — orderings, directions and work counts, never absolute numbers or
wall-clock ratios.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.ilp import BinaryProgram, TiresiasEncoder

from oracles.encode import TreeEncoder, program_signature

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def save_and_print(result, out_dir: Path) -> None:
    path = result.save(out_dir)
    print(f"\n{result.table()}\n[saved to {path}]")


def count_calls(patch, owner, name: str, counts: Counter) -> None:
    """Count every call of ``owner.name`` into ``counts[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counted)


def count_encode_calls(patch, counts: Counter) -> None:
    """Count TwoStep complaints and the ILP calls made while encoding them.

    ``counts["complaints"]`` counts ``add_complaint`` calls on the
    production encoder and the tree-walk oracle; ``counts["rows"]`` and
    ``counts["blocks"]`` count the ``add_constraint`` and
    ``add_constraint_block`` calls made inside them.
    """
    depth = [0]
    for encoder in (TiresiasEncoder, TreeEncoder):
        original = encoder.add_complaint

        def add_complaint(self, complaint, _original=original):
            counts["complaints"] += 1
            depth[0] += 1
            try:
                return _original(self, complaint)
            finally:
                depth[0] -= 1

        patch.setattr(encoder, "add_complaint", add_complaint)
    for name, key in (("add_constraint", "rows"), ("add_constraint_block", "blocks")):
        original = getattr(BinaryProgram, name)

        def counted(self, *args, _original=original, _key=key, **kwargs):
            if depth[0]:
                counts[_key] += 1
            return _original(self, *args, **kwargs)

        patch.setattr(BinaryProgram, name, counted)


def assert_encodes_like_the_oracle(result, complaints, monkeypatch) -> None:
    """The production program equals the tree walk's, built in fewer calls.

    Each complaint costs the array encoder one ``add_constraint`` call (its
    own row) and at most one constraint block (its linking rows), where
    the tree walk adds every row with its own call.
    """
    calls = {}
    encoders = {}
    for name, encoder_class in (("array", TiresiasEncoder), ("tree", TreeEncoder)):
        encoder = encoder_class(result)
        before = encoder.program.n_constraints
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            count_encode_calls(patch, counts)
            encoder.add_complaints(complaints)
        counts["added"] = encoder.program.n_constraints - before
        calls[name] = counts
        encoders[name] = encoder
    assert program_signature(encoders["array"].program) == program_signature(
        encoders["tree"].program
    )
    n = len(complaints)
    assert calls["array"]["complaints"] == calls["tree"]["complaints"] == n
    assert calls["array"]["rows"] == n, calls
    assert calls["array"]["blocks"] <= n, calls
    assert calls["tree"]["rows"] == calls["tree"]["added"], calls
    assert calls["tree"]["blocks"] == 0, calls
