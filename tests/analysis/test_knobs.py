"""The env-knob registry mechanics, exercised on a knob the test registers."""

import pytest

from repro.analysis import knobs

TEST_ENV_VAR = "REPRO_TEST_ONLY_KNOB"


@pytest.fixture()
def test_knob():
    """Register a throwaway knob; remove it from the registry afterwards."""
    knob = knobs.register(
        "test_only_knob", TEST_ENV_VAR, "7", "Registry mechanics fixture.", "tests"
    )
    try:
        yield knob
    finally:
        knobs._REGISTRY.pop(knob.name, None)
        knobs._BY_ENV.pop(knob.env_var, None)


class TestRegistry:
    def test_registered_knob_is_listed(self, test_knob):
        assert test_knob in knobs.all_knobs()
        assert knobs.get("test_only_knob") is test_knob

    def test_all_knobs_is_sorted(self, test_knob):
        names = [knob.name for knob in knobs.all_knobs()]
        assert names == sorted(names)

    def test_lookup_by_env_var(self, test_knob):
        assert knobs.by_env(TEST_ENV_VAR) is test_knob
        assert knobs.by_env("REPRO_NO_SUCH_KNOB") is None

    def test_duplicate_registration_rejected(self, test_knob):
        with pytest.raises(ValueError, match="test_only_knob"):
            knobs.register("test_only_knob", "REPRO_OTHER", "0", "dup", "tests")
        with pytest.raises(ValueError, match=TEST_ENV_VAR):
            knobs.register("other_knob", TEST_ENV_VAR, "0", "dup", "tests")

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            knobs.get("no_such_knob")
        with pytest.raises(KeyError):
            knobs.read("no_such_knob")

    def test_read_default_and_env(self, test_knob, monkeypatch):
        monkeypatch.delenv(TEST_ENV_VAR, raising=False)
        assert knobs.read("test_only_knob") == "7"
        monkeypatch.setenv(TEST_ENV_VAR, "6")
        assert knobs.read("test_only_knob") == "6"

    def test_knob_table_lists_every_env_var(self, test_knob):
        table = knobs.knob_table()
        for knob in knobs.all_knobs():
            assert knob.env_var in table
            assert knob.default in table

    def test_fixture_knob_is_removed_afterwards(self):
        assert knobs.by_env(TEST_ENV_VAR) is None


class TestKnobDocs:
    def test_every_knob_documented_in_repo(self, repo_root):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(repo_root) == []

    def test_documented_knob_is_clean(self, tmp_path, test_knob):
        from repro.analysis.rules import check_knob_docs

        (tmp_path / "README.md").write_text(f"`{TEST_ENV_VAR}` does things\n")
        assert check_knob_docs(tmp_path) == []

    def test_undocumented_knob_is_flagged(self, tmp_path, test_knob):
        from repro.analysis.rules import check_knob_docs

        (tmp_path / "README.md").write_text("no knobs documented here\n")
        found = check_knob_docs(tmp_path)
        assert len(found) == len(knobs.all_knobs()) >= 1
        assert all(f.rule == "KNOB001" for f in found)
        assert any(TEST_ENV_VAR in f.message for f in found)

    def test_no_docs_corpus_opts_out(self, tmp_path, test_knob):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(tmp_path) == []
