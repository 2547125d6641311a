"""CLI runner tests."""

import inspect

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table3", "thm_a1"):
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_every_experiment_registered(self):
        assert len(EXPERIMENTS) == 18

    def test_every_runner_takes_seed(self):
        for name, (runner, _) in EXPERIMENTS.items():
            assert "seed" in inspect.signature(runner).parameters, name

    def test_runner_type_error_propagates(self, monkeypatch):
        calls = []

        def broken(seed=0):
            calls.append(seed)
            raise TypeError("bug inside the experiment")

        monkeypatch.setitem(EXPERIMENTS, "thm_c1", (broken, "broken"))
        with pytest.raises(TypeError, match="bug inside the experiment"):
            main(["run", "thm_c1", "--seed", "3"])
        assert calls == [3]  # no silent rerun with the default seed

    def test_run_fast_experiment(self, capsys, tmp_path):
        assert main(["run", "thm_c1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "thm_c1_value_of_complaints" in out
        assert (tmp_path / "thm_c1_value_of_complaints.txt").exists()
