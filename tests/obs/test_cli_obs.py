"""CLI surface: --trace / --metrics flags and the profile subcommand."""

from repro import obs
from repro.cli import main


class TestTraceFlag:
    def test_campaign_trace_and_metrics(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        code = main(
            [
                "campaign", "--protocol", "naive", "--graph", "complete:4",
                "--links", "2", "--attempts", "10",
                "--trace", path, "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        assert "== telemetry summary ==" in out
        trace = obs.read_trace(path)
        assert trace["meta"]["events"] > 0
        # the CLI resets global telemetry after the run
        assert not obs.is_enabled()
        assert obs.get_log() is None

    def test_ring_overflow_warns_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        enable = obs.enable
        monkeypatch.setattr(obs, "enable", lambda: enable(capacity=64))
        path = str(tmp_path / "t.jsonl")
        args = [
            "campaign", "--protocol", "naive", "--graph", "complete:4",
            "--links", "2", "--attempts", "10", "--trace", path,
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        dropped = obs.read_trace(path)["meta"]["dropped"]
        assert dropped > 0
        assert captured.out.endswith(f"trace written to {path} (64 events)\n")
        assert "warning" not in captured.out
        (warning,) = captured.err.splitlines()
        assert warning.startswith(f"warning: {dropped} run events dropped")

        monkeypatch.setattr(obs, "enable", enable)
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    def test_trace_identical_across_jobs(self, tmp_path, capsys):
        paths = []
        for jobs in ("1", "4"):
            path = str(tmp_path / f"jobs{jobs}.jsonl")
            paths.append(path)
            assert main(
                [
                    "campaign", "--protocol", "naive",
                    "--graph", "complete:4", "--links", "2",
                    "--attempts", "10", "--jobs", jobs, "--trace", path,
                ]
            ) == 0
        a, b = (open(p).read() for p in paths)
        assert a == b

    def test_attack_and_sweep_accept_flags(self, tmp_path, capsys):
        trace = str(tmp_path / "a.jsonl")
        assert main(
            [
                "attack", "--protocol", "naive", "--graph", "complete:4",
                "--faults", "1", "--attempts", "5", "--trace", trace,
            ]
        ) == 0
        assert obs.read_trace(trace)["meta"]["events"] > 0
        assert main(["sweep", "nodes", "--faults", "1", "--metrics"]) == 0
        assert "run.sweep.points" in capsys.readouterr().out


class TestProfile:
    def _write_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(
            [
                "campaign", "--protocol", "naive", "--graph", "complete:4",
                "--links", "2", "--attempts", "10", "--trace", path,
            ]
        )
        capsys.readouterr()
        return path

    def test_summary_events_metrics(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, capsys)
        assert main(["profile", "summary", path]) == 0
        assert "events by kind:" in capsys.readouterr().out
        assert main(
            ["profile", "events", path, "--kind", "round_end", "--limit", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "round_end" in out and "(2 of" in out
        assert main(["profile", "metrics", path]) == 0
        assert "run.rounds.total" in capsys.readouterr().out

    def test_negative_event_window_is_a_cli_error(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, capsys)
        for name in ("limit", "offset"):
            assert main(["profile", "events", path, f"--{name}", "-2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {name} must be non-negative, got -2" in (
                captured.err
            )

    def test_missing_file_is_a_cli_error(self, tmp_path, capsys):
        assert main(["profile", "summary", str(tmp_path / "no.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCacheStatsMigration:
    def test_campaign_cache_stats_rendered_from_registry(self, capsys):
        assert main(
            [
                "campaign", "--protocol", "naive", "--graph", "complete:4",
                "--links", "2", "--attempts", "10", "--metrics",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "host.cache.hits{cache=behavior}" in out
        assert "host.cache.misses{cache=behavior}" in out
