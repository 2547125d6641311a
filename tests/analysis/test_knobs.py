"""The env-knob registry and the call sites migrated onto it."""

import pytest

from repro.analysis import knobs


class TestRegistry:
    def test_registered_knobs(self):
        names = {knob.name for knob in knobs.all_knobs()}
        assert names == {"n_workers"}

    def test_all_knobs_is_sorted(self):
        names = [knob.name for knob in knobs.all_knobs()]
        assert names == sorted(names)

    def test_lookup_by_env_var(self):
        assert knobs.by_env("REPRO_N_WORKERS").name == "n_workers"
        assert knobs.by_env("REPRO_NO_SUCH_KNOB") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            knobs.register("n_workers", "REPRO_N_WORKERS_2", "0", "dup", "tests")
        with pytest.raises(ValueError, match="REPRO_N_WORKERS"):
            knobs.register("n_workers_2", "REPRO_N_WORKERS", "0", "dup", "tests")

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            knobs.get("no_such_knob")
        with pytest.raises(KeyError):
            knobs.read("no_such_knob")

    def test_read_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_WORKERS", raising=False)
        assert knobs.read("n_workers") == "0"
        monkeypatch.setenv("REPRO_N_WORKERS", "6")
        assert knobs.read("n_workers") == "6"

    def test_knob_table_lists_every_env_var(self):
        table = knobs.knob_table()
        for knob in knobs.all_knobs():
            assert knob.env_var in table
            assert knob.default in table


class TestMigratedResolvers:
    """resolve_workers keeps its pre-registry semantics, now reading
    through knobs.read()."""

    def test_resolve_workers_env(self, monkeypatch):
        from repro.core.sharding import resolve_workers

        monkeypatch.setenv("REPRO_N_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("REPRO_N_WORKERS")
        assert resolve_workers(None) == 0

    def test_resolve_workers_invalid(self, monkeypatch):
        from repro.errors import DebuggingError
        from repro.core.sharding import resolve_workers

        monkeypatch.setenv("REPRO_N_WORKERS", "lots")
        with pytest.raises(DebuggingError):
            resolve_workers(None)

    def test_env_var_aliases_preserved(self):
        # The pre-registry module constant stays importable (used by tests
        # and external scripts).
        from repro.core.sharding import WORKERS_ENV_VAR

        assert WORKERS_ENV_VAR == "REPRO_N_WORKERS"


class TestKnobDocs:
    def test_every_knob_documented_in_repo(self, repo_root):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(repo_root) == []

    def test_undocumented_knob_is_flagged(self, tmp_path):
        from repro.analysis.rules import check_knob_docs

        (tmp_path / "README.md").write_text("no knobs documented here\n")
        found = check_knob_docs(tmp_path)
        assert len(found) == len(knobs.all_knobs())
        assert all(f.rule == "KNOB001" for f in found)

    def test_no_docs_corpus_opts_out(self, tmp_path):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(tmp_path) == []
