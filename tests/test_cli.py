"""Command-line interface: calculators, experiments, scenario runs."""

import json
import pathlib
import shlex

import pytest

from mqsim.cli import main
from trace_corpus import blake2b64


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    for line in reversed(out):
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON in output: {out}")


def _transcript(name):
    """``$ mqsim ...`` command lines in a file beside this one, each followed
    by its exact output: [[command, output line, ...], ...]."""
    blocks = []
    path = pathlib.Path(__file__).with_name(name)
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            blocks.append([line[2:].strip()])
        else:
            blocks[-1].append(line)
    return blocks


class TestBoundsCli:
    def test_comm_worked_example(self, capsys):
        rc = main(["bounds", "comm", "--cs", "2", "--ts", "10", "--cd", "3",
                   "--td", "15", "--req", "5", "--resp", "4"])
        assert rc == 0
        payload = last_json(capsys)
        assert payload["W"] == 48
        assert payload["W_shifted"] == 49

    def test_comm_sound_segments(self, capsys):
        rc = main(["bounds", "comm", "--cs", "2", "--ts", "10", "--cd", "3",
                   "--td", "15", "--req", "5", "--resp", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sound.at_observed.observation" in out
        sound = json.loads(out.strip().splitlines()[-1])["sound"]
        assert (sound["completion"], sound["observed"]) == (49, 50)
        assert sound["at_observed"] == {"sigma": 0, "request": 21, "response": 28,
                                        "observation": 1, "completion": 49,
                                        "observed": 50}

    def test_comm_oracle_flag(self, capsys):
        rc = main(["bounds", "comm", "--cs", "2", "--ts", "10", "--cd", "3",
                   "--td", "15", "--req", "5", "--resp", "4", "--oracle"])
        assert rc == 0
        payload = last_json(capsys)
        assert payload["observed_max"] == "49"

    def test_comm_oracle_on_rational_inputs(self, capsys):
        """The worked example halved: the oracle sweeps half ticks and
        prints half its maximum, equal to the sound ``completion``."""
        rc = main(["bounds", "comm", "--cs", "1", "--ts", "5", "--cd", "3/2",
                   "--td", "15/2", "--req", "5/2", "--resp", "2", "--oracle"])
        assert rc == 0
        payload = last_json(capsys)
        assert payload["observed_max"] == "49/2"
        assert payload["observed_over_completion"] == 1.0

    @pytest.mark.parametrize("params, w_shifted", [
        pytest.param(["3", "3", "2", "2", "1", "4"], 0, id="zero-w-shifted"),
        pytest.param(["1", "1", "1", "1", "1", "0"], -1, id="negative-w-shifted"),
    ])
    def test_comm_oracle_ratio_is_null_without_positive_w_shifted(
            self, capsys, params, w_shifted):
        """The paper variant's W' can be zero or negative on valid inputs;
        the ratio to it is then null, not a crash or a negative number."""
        flags = ["--cs", "--ts", "--cd", "--td", "--req", "--resp"]
        argv = [x for pair in zip(flags, params) for x in pair]
        assert main(["bounds", "comm", *argv, "--oracle"]) == 0
        payload = last_json(capsys)
        assert payload["W_shifted"] == w_shifted
        assert payload["observed_over_bound"] is None
        assert payload["observed_over_completion"] == 1.0

    @pytest.mark.parametrize("command, expected", [
        pytest.param(block[0], "".join(block[1:]), id=block[0][len("mqsim "):])
        for block in _transcript("bounds_comm_oracle.txt")])
    def test_comm_oracle_full_output(self, capsys, command, expected):
        """The whole table and JSON line, pinned byte for byte: integer,
        rational, fig12-sized, zero-gap with zero response, and ``--k``."""
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == expected

    def test_migration_violation(self, capsys):
        rc = main(["bounds", "migration", "--delta", "20", "--cm", "10",
                   "--tm", "50", "--es", "79.8"])
        assert rc == 0
        payload = last_json(capsys)
        assert payload["bound"] == "100"
        assert payload["verdict"] == "violated"

    @pytest.mark.parametrize("extra", [["--cm", "0"], ["--cm", "10", "--es", "0"]])
    def test_migration_refuses_degenerate_input(self, extra):
        with pytest.raises(ValueError):
            main(["bounds", "migration", "--delta", "20", "--tm", "50", *extra])

    def test_adjust(self, capsys):
        rc = main(["bounds", "adjust", "--tscd", "1000", "--tscs", "400",
                   "--rdtsc", "10", "--ipi", "100"])
        assert rc == 0
        assert last_json(capsys)["delta_adj"] == "480"

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "comm", "--cs", "2"])
        assert exc.value.code == 2


class TestExperimentCli:
    def test_tables(self, capsys):
        rc = main(["experiment", "tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "small-space" in out and "eligible" in out
        assert out.count("violated") == 3

    def test_tables_artifact(self, tmp_path):
        rc = main(["experiment", "tables", "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "tables.json").read_text())["rows"]
        verdicts = {r["delta_s_ms"]: r["verdict"] for r in rows}
        assert verdicts == {"5.4": "eligible", "20": "violated",
                            "26.4": "violated", "891.4": "violated"}


class TestRunCli:
    def test_builtin_scenario_short(self, capsys, tmp_path):
        rc = main(["run", "table1", "--until", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "trace.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "trace_hash" in summary

    def test_trace_artifact_reproducible(self, tmp_path):
        main(["run", "table1", "--until", "1", "--out", str(tmp_path / "a")])
        main(["run", "table1", "--until", "1", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_summary_hash_is_the_written_trace(self, tmp_path, capsys):
        rc = main(["run", "table1", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert json.loads(capsys.readouterr().out) == summary
        written = (tmp_path / "trace.csv").read_bytes()
        assert summary["trace_hash"] == f"{blake2b64(written):016x}"
        assert summary["trace_rows"] == written.count(b"\n") - 1

    def test_rowless_run_reports_its_trace(self, capsys):
        """Without ``--out`` the run keeps no rows, yet reports the hash and
        the size of its trace."""
        assert main(["run", "table1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["trace_hash"], summary["trace_rows"]) == ("b73dece29e4a00bd", 11596)

    def test_unknown_scenario(self, capsys):
        with pytest.raises(Exception):
            main(["run", "missing.json"])


class TestVerifyCli:
    def test_json_lines(self, capsys, monkeypatch):
        from mqsim import acceptance
        cheap = acceptance.CRITERIA[:2] + [
            ("always-fails", lambda runs, fast=False: (False, "forced failure"))]
        monkeypatch.setattr(acceptance, "CRITERIA", cheap)
        rc = main(["verify", "--json"])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == [name for name, _ in cheap]
        assert [r["passed"] for r in records] == [True, True, False]
        for r in records:
            assert set(r) == {"name", "passed", "elapsed", "detail"}
            assert isinstance(r["elapsed"], float) and r["elapsed"] >= 0
        assert records[2]["detail"] == "forced failure"

    def test_text_summary(self, capsys, monkeypatch):
        from mqsim import acceptance
        monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:1])
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] 1-migration-bound-golden-values")
        assert out.strip().endswith("1/1 criteria passed")
