"""Fixture snippets per rule: positive, negative, and suppressed.

Each case feeds a small source string through the one-pass engine and
asserts exactly which rule fires (or doesn't).  The positive fixtures
are modelled on the real bug classes from this repo's history — most
prominently the pre-PR-8 ``_aux_cache`` id()-keying bug for DET001.
"""

import textwrap

import pytest

from repro.analysis.engine import analyze_source


def findings_for(source, rule=None, path="snippet.py"):
    ctx = analyze_source(textwrap.dedent(source), path=path)
    if rule is None:
        return ctx.findings
    return [f for f in ctx.findings if f.rule == rule]


# -- DET001: id()-keyed shared containers -----------------------------------


class TestDet001:
    def test_attribute_cache_keyed_on_id(self):
        found = findings_for(
            """
            class Encoder:
                def __init__(self):
                    self._aux_cache = {}

                def aux(self, expr):
                    cached = self._aux_cache.get(id(expr))
                    if cached is None:
                        self._aux_cache[id(expr)] = object()
                    return self._aux_cache[id(expr)]
            """,
            "DET001",
        )
        assert len(found) == 3
        assert all(f.qualname == "Encoder.aux" for f in found)
        assert "_aux_cache" in found[0].message

    def test_pre_pr8_aux_cache_pattern_is_redetected(self):
        # The literal shape of the bug that survived two PRs: a
        # tree-walking encoder memoizing aux variables on bare id(expr)
        # in an instance attribute, while expression trees are built
        # lazily and can be collected (and their ids recycled) mid-run.
        found = findings_for(
            """
            class TiresiasEncoder:
                def __init__(self, program):
                    self.program = program
                    self._aux_cache = {}

                def _linearize(self, expr):
                    cached = self._aux_cache.get(id(expr))
                    if cached is not None:
                        return cached
                    var = self.program.add_var(f"aux_{len(self._aux_cache)}")
                    self._aux_cache[id(expr)] = var
                    return var
            """,
            "DET001",
        )
        assert len(found) == 2

    def test_module_level_registry_keyed_on_id(self):
        found = findings_for(
            """
            _REGISTRY = {}

            def remember(obj):
                _REGISTRY[id(obj)] = obj.name
            """,
            "DET001",
        )
        assert len(found) == 1

    def test_membership_and_set_add(self):
        found = findings_for(
            """
            class Tracker:
                def __init__(self):
                    self._seen = set()

                def visit(self, node):
                    if id(node) in self._seen:
                        return
                    self._seen.add(id(node))
            """,
            "DET001",
        )
        assert len(found) == 2

    def test_local_memo_dict_is_allowed(self):
        # The lowering-pass idiom: a memo local to one traversal, whose
        # keyed objects stay alive (held by the tree root) throughout.
        found = findings_for(
            """
            def lower(root):
                memo = {}
                for node in walk(root):
                    if id(node) not in memo:
                        memo[id(node)] = lower_one(node, memo)
                return memo[id(root)]
            """,
            "DET001",
        )
        assert found == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            class Pool:
                def lookup(self, expr):
                    # repro: ignore[DET001] — ids pinned by _expr_cache
                    return self._expr_nodes.get(id(expr))
            """,
            "DET001",
        )
        assert found == []

    def test_suppressing_other_rule_does_not_hide_det001(self):
        found = findings_for(
            """
            class Pool:
                def lookup(self, expr):
                    return self._expr_nodes.get(id(expr))  # repro: ignore[DET002]
            """,
            "DET001",
        )
        assert len(found) == 1


# -- DET002: unordered iteration into order-sensitive emission ---------------


class TestDet002:
    def test_set_iteration_into_append(self):
        found = findings_for(
            """
            def emit(items, out):
                pending = set(items)
                for item in pending:
                    out.append(item)
            """,
            "DET002",
        )
        assert len(found) == 1
        assert "pending" in found[0].message

    def test_direct_set_call_iteration(self):
        found = findings_for(
            """
            def emit(items, program):
                for item in set(items):
                    program.add_constraint(item)
            """,
            "DET002",
        )
        assert len(found) == 1

    def test_sorted_wrapper_is_clean(self):
        found = findings_for(
            """
            def emit(items, out):
                pending = set(items)
                for item in sorted(pending):
                    out.append(item)
            """,
            "DET002",
        )
        assert found == []

    def test_set_iteration_without_sink_is_clean(self):
        found = findings_for(
            """
            def biggest(items):
                pending = set(items)
                best = None
                for item in pending:
                    if best is None or item > best:
                        best = item
                return best
            """,
            "DET002",
        )
        assert found == []

    def test_dict_view_into_append(self):
        found = findings_for(
            """
            def emit(table, rows):
                for key, value in table.items():
                    rows.append((key, value))
            """,
            "DET002",
        )
        assert len(found) == 1
        assert "table.items()" in found[0].message

    def test_dict_view_without_sink_is_clean(self):
        found = findings_for(
            """
            def total(table):
                acc = {}
                for key, value in table.items():
                    acc[key] = value
                return acc
            """,
            "DET002",
        )
        assert found == []

    def test_list_comprehension_over_set(self):
        found = findings_for(
            """
            def rows(items):
                pending = set(items)
                return [format(item) for item in pending]
            """,
            "DET002",
        )
        assert len(found) == 1

    def test_generator_into_sorted_is_clean(self):
        found = findings_for(
            """
            def rows(items):
                pending = set(items)
                return sorted(format(item) for item in pending)
            """,
            "DET002",
        )
        assert found == []

    def test_yield_is_a_sink(self):
        found = findings_for(
            """
            def stream(items):
                for item in set(items):
                    yield item
            """,
            "DET002",
        )
        assert len(found) == 1

    @pytest.mark.parametrize(
        "sink",
        ["append", "extend", "appendleft", "add_var", "add_constraint",
         "add_dense_constraint", "add_row", "add_complaints", "put", "write",
         "writerow"],
    )
    def test_every_sink_is_order_sensitive(self, sink):
        found = findings_for(
            f"def emit(items, out):\n    for item in set(items):\n"
            f"        out.{sink}(item)\n",
            "DET002",
        )
        assert len(found) == 1

    @pytest.mark.parametrize("call", ["submit", "submit_train", "submit_execute"])
    def test_pool_submission_is_not_a_sink(self, call):
        # No thread pool is left in the library to submit work to.
        found = findings_for(
            f"def emit(items, pool):\n    for item in set(items):\n"
            f"        pool.{call}(item)\n",
            "DET002",
        )
        assert found == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            def emit(table, rows):
                # repro: ignore[DET002] — insertion order fixed upstream
                for key, value in table.items():
                    rows.append((key, value))
            """,
            "DET002",
        )
        assert found == []


# -- DET003: global RNG ------------------------------------------------------


class TestDet003:
    @pytest.mark.parametrize(
        "call",
        [
            "np.random.shuffle(order)",
            "np.random.permutation(10)",
            "np.random.rand(3)",
            "numpy.random.seed(0)",
            "random.random()",
            "random.shuffle(order)",
            "random.randint(0, 5)",
        ],
    )
    def test_global_rng_calls(self, call):
        found = findings_for(f"def f(order):\n    return {call}\n", "DET003")
        assert len(found) == 1

    @pytest.mark.parametrize(
        "call",
        ["default_rng()", "np.random.default_rng()", "np.random.RandomState()"],
    )
    def test_argless_generators(self, call):
        found = findings_for(f"def f():\n    return {call}\n", "DET003")
        assert len(found) == 1
        assert "OS entropy" in found[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.default_rng(42)",
            "np.random.default_rng(child)",
            "np.random.SeedSequence(7)",
            "rng.shuffle(order)",
            "self.rng.integers(0, 5)",
        ],
    )
    def test_seeded_and_threaded_generators_are_clean(self, call):
        found = findings_for(
            f"def f(order, child, rng):\n    return {call}\n", "DET003"
        )
        assert found == []

    def test_experiments_are_exempt(self):
        found = findings_for(
            "def f():\n    return np.random.rand(3)\n",
            "DET003",
            path="src/repro/experiments/fig99.py",
        )
        assert found == []

    def test_inline_suppression(self):
        found = findings_for(
            """
            def f():
                return np.random.rand(3)  # repro: ignore[DET003] — demo only
            """,
            "DET003",
        )
        assert found == []


# -- KNOB001: environment reads ----------------------------------------------


class TestKnob001:
    @pytest.mark.parametrize(
        "expr",
        [
            'os.environ.get("REPRO_FOO", "0")',
            'os.environ["REPRO_FOO"]',
            'os.getenv("REPRO_FOO")',
            'environ["REPRO_FOO"]',
            'environ.get("REPRO_FOO")',
            '"REPRO_FOO" in os.environ',
            "dict(os.environ)",
            "os.environ.items()",
            'os.environ.setdefault("REPRO_FOO", "0")',
            "{**os.environ}",
            "os.environ.copy()",
            'os.environ.pop("REPRO_FOO", None)',
            "list(os.environ)",
            'system.environ["REPRO_FOO"]',
            'system.environ.get("REPRO_FOO")',
            'os.environb[b"REPRO_FOO"]',
            'system.environb.get(b"REPRO_FOO")',
        ],
    )
    def test_direct_reads(self, expr):
        found = findings_for(
            f"import os as system\n\ndef f():\n    return {expr}\n", "KNOB001"
        )
        assert len(found) == 1
        assert "explicit argument" in found[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "from os import environ as env\n\ndef f():\n    return env['X']\n",
            "from os import environb\n\ndef f():\n    return environb[b'X']\n",
            "from os import getenv as read\n\ndef f():\n    return read('X')\n",
            "def f():\n    import os as system\n    return system.environ['X']\n",
            "import os.path as path, os as system\n\nX = system.environ\n",
        ],
        ids=["environ-as", "environb", "getenv-as", "local-import", "import-list"],
    )
    def test_reads_through_import_aliases(self, source):
        assert len(findings_for(source, "KNOB001")) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "import settings as system\n\ndef f():\n    return system.environ['X']\n",
            "from settings import environ as env\n\ndef f():\n    return env['X']\n",
            "def f(system):\n    return system.environ['X']\n",
        ],
        ids=["module-alias", "environ-alias", "parameter"],
    )
    def test_aliases_of_other_modules_are_clean(self, source):
        assert findings_for(source, "KNOB001") == []

    @pytest.mark.parametrize(
        "stmt",
        [
            'os.environ["REPRO_FOO"] = "1"',
            'del os.environ["REPRO_FOO"]',
            'os.environ.update(REPRO_FOO="1")',
        ],
    )
    def test_environment_writes(self, stmt):
        found = findings_for(f"def f():\n    {stmt}\n", "KNOB001")
        assert len(found) == 1

    def test_getenv_imported_from_os(self):
        found = findings_for(
            """
            from os import getenv

            def f():
                return getenv("REPRO_FOO")
            """,
            "KNOB001",
        )
        assert len(found) == 1

    def test_any_getenv_call(self):
        found = findings_for(
            "def f(config):\n    return config.getenv('REPRO_FOO')\n", "KNOB001"
        )
        assert len(found) == 1

    def test_module_level_read(self):
        found = findings_for(
            """
            import os

            TIMEOUT = os.getenv("REPRO_TIMEOUT")
            """,
            "KNOB001",
        )
        assert [(f.line, f.col) for f in found] == [(4, 10)]

    def test_environ_attribute_of_other_object_is_clean(self):
        found = findings_for(
            "def f(settings):\n    return settings.environ['n_workers']\n",
            "KNOB001",
        )
        assert found == []

    def test_module_bound_environ_is_clean(self):
        found = findings_for(
            """
            environ = load_config()

            def f():
                return environ.get("n_workers")
            """,
            "KNOB001",
        )
        assert found == []

    def test_non_environment_call_is_clean(self):
        found = findings_for(
            "def f(config):\n    return config.get('n_workers')\n", "KNOB001"
        )
        assert found == []

    def test_environ_imported_from_os(self):
        found = findings_for(
            """
            from os import environ

            def f():
                return dict(environ)
            """,
            "KNOB001",
        )
        assert len(found) == 1

    def test_locally_bound_environ_is_clean(self):
        found = findings_for(
            "def f(environ):\n    return environ.get('n_workers')\n", "KNOB001"
        )
        assert found == []

    def test_former_registry_module_is_not_exempt(self):
        found = findings_for(
            "def read(name):\n    return os.environ.get(name, '')\n",
            "KNOB001",
            path="src/repro/analysis/knobs.py",
        )
        assert len(found) == 1

    def test_inline_suppression(self):
        found = findings_for(
            """
            def f():
                return os.getenv("CI")  # repro: ignore[KNOB001] — CI detection only
            """,
            "KNOB001",
        )
        assert found == []
