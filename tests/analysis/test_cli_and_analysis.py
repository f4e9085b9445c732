"""CLI and analysis-layer tests."""

import pytest

from repro.analysis import (
    SWEEP_HEADERS,
    connectivity_sweep,
    diamond_figure,
    eight_ring_figure,
    format_table,
    hexagon_figure,
    node_bound_sweep,
    ring_figure,
    triangle_figure,
    witness_chain_figure,
)
from repro.cli import build_parser, main, parse_graph
from repro.graphs import GraphError, ring_cover_of_triangle


class TestTables:
    def test_basic_rendering(self):
        out = format_table(("a", "bb"), [(1, 2.34567), (None, True)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.346" in out
        assert "—" in out and "yes" in out

    def test_title(self):
        out = format_table(("x",), [(1,)], title="T")
        assert out.splitlines()[0] == "T"


class TestDiagrams:
    def test_static_figures_nonempty(self):
        for figure in (
            triangle_figure(),
            hexagon_figure(),
            diamond_figure(),
            eight_ring_figure(),
        ):
            assert figure.strip()

    def test_ring_figure(self):
        cm = ring_cover_of_triangle(6)
        inputs = {u: i for i, u in enumerate(cm.cover.nodes)}
        fig = ring_figure(cm, inputs)
        assert "A" in fig and "B" in fig and "C" in fig
        assert "wraps" in fig

    def test_chain_figure(self):
        fig = witness_chain_figure(["E1", "E2", "E3"], ["c", "a"])
        assert fig == "E1 --[c]-- E2 --[a]-- E3"


class TestSweeps:
    def test_node_sweep_shape(self):
        rows = node_bound_sweep((1,))
        assert [r.n_nodes for r in rows] == [3, 4, 5]
        assert "IMPOSSIBLE" in rows[0].outcome
        assert "SOLVED" in rows[1].outcome

    def test_connectivity_sweep_shape(self):
        rows = connectivity_sweep(1)
        assert len(rows) == 3
        assert len(SWEEP_HEADERS) == len(rows[0].as_tuple())


class TestCLI:
    def test_parse_graph_families(self):
        assert len(parse_graph("triangle")) == 3
        assert len(parse_graph("complete:5")) == 5
        assert len(parse_graph("ring:6")) == 6
        assert len(parse_graph("wheel:5")) == 6
        assert len(parse_graph("circulant:7:1,2")) == 7

    def test_parse_graph_rejects_garbage(self):
        with pytest.raises(GraphError):
            parse_graph("torus:3")
        with pytest.raises(GraphError):
            parse_graph("complete:xyz")

    def test_classify_command(self, capsys):
        assert main(["classify", "--graph", "triangle", "--faults", "1"]) == 0
        assert "INADEQUATE" in capsys.readouterr().out

    def test_refute_byzantine_command(self, capsys):
        assert main(["refute", "byzantine"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "chain links" in out

    def test_refute_connectivity_command(self, capsys):
        assert main(["refute", "connectivity", "--graph", "diamond"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_refute_eps_delta_command(self, capsys):
        assert main(["refute", "eps-delta"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_demo_eig_command(self, capsys):
        assert main(["demo", "eig", "--graph", "complete:4"]) == 0
        assert "all conditions satisfied" in capsys.readouterr().out

    def test_demo_sparse_command(self, capsys):
        code = main(
            ["demo", "sparse", "--graph", "circulant:7:1,2", "--faults", "1"]
        )
        assert code == 0

    def test_sweep_command(self, capsys):
        assert main(["sweep", "nodes", "--faults", "1"]) == 0
        out = capsys.readouterr().out
        assert "IMPOSSIBLE" in out and "SOLVED" in out

    def test_error_exit_code(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "--attempts", "3", "--checkpoint", store]) == 0
        capsys.readouterr()
        for argv in (
            ["classify", "--graph", "nope"],
            ["campaign", "--rounds", "-1"],
            ["campaign", "--frontier", "--rounds", "-1"],
            ["attack", "--attempts", "-5"],
            ["attack", "--rounds", "-1"],
            ["campaign", "--jobs", "-3", "--checkpoint", str(tmp_path / "c")],
            ["campaign", "--frontier", "--jobs", "0"],
            ["sweep", "nodes", "--jobs", "0"],
            ["attack", "--jobs", "0"],
            ["resume", store, "--jobs", "0"],
        ):
            assert main(argv) == 2, argv
            assert "error: " in capsys.readouterr().err, argv
        assert not (tmp_path / "c").exists()
        # Impossible node-fault budgets on K4 are rejected up front for
        # every seed, naming the budget and the node count.
        budget = str(tmp_path / "budget")
        for argv, message in (
            (
                ["--seed", "0", "campaign", "--graph", "complete:4",
                 "--faults", "5", "--links", "1", "--attempts", "50",
                 "--checkpoint", budget],
                "max_node_faults 5 exceeds the node count 4",
            ),
            (
                ["--seed", "1", "campaign", "--graph", "complete:4",
                 "--faults", "5", "--links", "1", "--attempts", "50"],
                "max_node_faults 5 exceeds the node count 4",
            ),
            (
                ["attack", "--graph", "complete:4", "--faults", "5"],
                "max_faults 5 is outside 0..4 (the node count)",
            ),
            (
                ["attack", "--graph", "complete:4", "--faults", "-1"],
                "max_faults -1 is outside 0..4 (the node count)",
            ),
        ):
            assert main(argv) == 2, argv
            assert f"error: {message}" in capsys.readouterr().err, argv
        assert not (tmp_path / "budget").exists()

    def test_parser_help_mentions_problems(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestMasterReport:
    @pytest.mark.slow
    def test_full_report_all_witnessed(self):
        from repro.analysis.report import full_report

        lines = full_report()
        assert len(lines) == 16
        assert all("witness:" in line.verdict for line in lines)
        results = {line.result for line in lines}
        for theorem in ("Thm 1", "Thm 2", "Thm 4", "Thm 5", "Thm 6", "Thm 8"):
            assert any(r.startswith(theorem) for r in results)

    @pytest.mark.slow
    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "FLM 1985, reproduced" in out
        assert "Cor 15" in out


class TestCLIWitnessOptions:
    def test_refute_verbose(self, capsys):
        assert main(["refute", "byzantine", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "full trace" in out

    def test_refute_json(self, tmp_path, capsys):
        target = tmp_path / "witness.json"
        assert main(["refute", "byzantine", "--json", str(target)]) == 0
        import json

        data = json.loads(target.read_text())
        assert data["found"] is True

    def test_refute_weak_command(self, capsys):
        assert main(["refute", "weak"]) == 0
        assert "weak-agreement" in capsys.readouterr().out

    def test_refute_firing_command(self, capsys):
        assert main(["refute", "firing"]) == 0
        assert "firing-squad" in capsys.readouterr().out


class TestAttackAndCampaignCommands:
    def test_attack_command_breaks_naive(self, capsys):
        assert main(
            ["attack", "--protocol", "naive", "--graph", "complete:4",
             "--faults", "1", "--attempts", "50"]
        ) == 0
        assert "broken" in capsys.readouterr().out

    def test_attack_seed_changes_search(self, capsys):
        main(["attack", "--attempts", "50"])
        first = capsys.readouterr().out
        main(["--seed", "1", "attack", "--attempts", "50"])
        second = capsys.readouterr().out
        main(["attack", "--attempts", "50"])
        again = capsys.readouterr().out
        assert first == again  # same seed reproduces exactly
        assert first != second

    def test_campaign_command_breaks_naive(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "2", "--attempts", "60", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "broken" in out and "shrunk" in out

    def test_campaign_eig_survives(self, capsys):
        assert main(
            ["campaign", "--protocol", "eig", "--graph", "complete:4",
             "--faults", "1", "--links", "0", "--attempts", "20"]
        ) == 0
        assert "survived" in capsys.readouterr().out

    def test_campaign_json_then_replay(self, tmp_path, capsys):
        target = tmp_path / "campaign.json"
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "2", "--attempts", "60", "--json", str(target)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--replay", str(target)]
        ) == 0
        assert "replayed" in capsys.readouterr().out

    def test_campaign_frontier(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "1", "--attempts", "40", "--frontier"]
        ) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        assert "agreement" in out


class TestOptimizationFlags:
    def test_campaign_cache_stats(self, capsys):
        assert main(
            ["campaign", "--protocol", "eig", "--graph", "complete:4",
             "--faults", "0", "--links", "1", "--attempts", "30",
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "host.cache.hits{cache=behavior}" in out

    def test_campaign_flags_do_not_change_output(self, capsys):
        args = ["campaign", "--protocol", "naive", "--graph", "complete:4",
                "--links", "2", "--attempts", "40"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert plain == parallel

    def test_frontier_cache_stats(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "1", "--attempts", "20", "--frontier",
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        assert "host.cache.hits{cache=behavior}" in out
