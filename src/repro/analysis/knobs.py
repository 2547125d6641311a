"""Central registry for runtime environment knobs (the KNOB001 contract).

Every ``REPRO_*`` environment variable the runtime honours is declared
here exactly once — name, environment variable, default, documentation,
owning module — and read through :func:`read`.  This module is the only
place allowed to touch ``os.environ``: the static analyzer's KNOB001
rule (:mod:`repro.analysis.rules`) rejects direct ``os.environ`` /
``os.getenv`` access anywhere else in ``src/repro``, and the analyzer's
project check fails if a registered knob is missing from README/docs.

The registry is intentionally dependency-free (stdlib only) so the
linter can import it without dragging in numpy; consumers keep their own
validation and error types, parsing and range-checking the raw string
this module hands back.  No knob is registered at present: every runtime
option is an explicit keyword argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Knob:
    """One registered environment knob.

    ``name`` is the registry key (and the keyword-argument spelling used
    by the python API), ``env_var`` the environment variable, ``default``
    the raw string used when the variable is unset, ``doc`` a one-line
    description, and ``owner`` the module whose resolver consumes the
    value.
    """

    name: str
    env_var: str
    default: str
    doc: str
    owner: str


_REGISTRY: dict[str, Knob] = {}
_BY_ENV: dict[str, Knob] = {}


def register(
    name: str,
    env_var: str,
    default: str,
    doc: str,
    owner: str,
) -> Knob:
    """Declare a knob.  Duplicate names or env vars are a programming error."""
    if name in _REGISTRY:
        raise ValueError(f"knob {name!r} is already registered")
    if env_var in _BY_ENV:
        raise ValueError(f"env var {env_var!r} is already registered")
    knob = Knob(name, env_var, default, doc, owner)
    _REGISTRY[name] = knob
    _BY_ENV[env_var] = knob
    return knob


def get(name: str) -> Knob:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown knob {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def by_env(env_var: str) -> Knob | None:
    """The knob owning ``env_var``, or ``None`` if unregistered."""
    return _BY_ENV.get(env_var)


def all_knobs() -> list[Knob]:
    """Every registered knob, sorted by name (deterministic iteration)."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def read(name: str) -> str:
    """The raw environment value for ``name`` (default when unset).

    This is the single sanctioned ``os.environ`` read in ``src/repro``;
    validation and typed parsing stay with the owning resolver.
    """
    knob = get(name)
    return os.environ.get(knob.env_var, knob.default)


def knob_table() -> str:
    """Markdown table of every knob, for README/docs generation."""
    rows = [
        "| knob | env var | default | owner | description |",
        "|---|---|---|---|---|",
    ]
    for knob in all_knobs():
        rows.append(
            f"| `{knob.name}` | `{knob.env_var}` | `{knob.default or '(empty)'}` "
            f"| `{knob.owner}` | {knob.doc} |"
        )
    return "\n".join(rows)
