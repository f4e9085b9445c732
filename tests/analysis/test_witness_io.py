"""Witness serialization round-trips through JSON."""

import json

import pytest

from repro.analysis.witness_io import (
    load_campaign,
    load_json_file,
    save_witness,
    witness_to_dict,
)
from repro.core import refute_node_bound, refute_weak_agreement
from repro.graphs import triangle
from repro.protocols import ExchangeOnceWeakDevice, MajorityVoteDevice


def sync_witness():
    g = triangle()
    return refute_node_bound(
        g, {u: MajorityVoteDevice() for u in g.nodes}, 1, rounds=3
    )


class TestWitnessToDict:
    def test_structure(self):
        data = witness_to_dict(sync_witness())
        assert data["problem"] == "byzantine-agreement"
        assert data["found"] is True
        assert len(data["behaviors"]) == 3
        labels = [b["label"] for b in data["behaviors"]]
        assert labels == ["E1", "E2", "E3"]
        violated = [b for b in data["behaviors"] if not b["ok"]]
        assert violated and violated[0]["violations"]

    def test_json_safe(self):
        data = witness_to_dict(sync_witness(), include_traces=True)
        text = json.dumps(data)  # must not raise
        assert "message_traces" in text

    def test_timed_witness_serializes(self):
        g = triangle()
        witness = refute_weak_agreement(
            {u: (lambda: ExchangeOnceWeakDevice(2.0)) for u in g.nodes},
            delta=1.0,
            decision_deadline=3.0,
        )
        data = witness_to_dict(witness)
        json.dumps(data)
        assert data["extra"]["k"] == witness.extra["k"]

    def test_timed_traces_hold_the_sends(self):
        g = triangle()
        witness = refute_weak_agreement(
            {u: (lambda: ExchangeOnceWeakDevice(2.0)) for u in g.nodes},
            delta=1.0,
            decision_deadline=3.0,
        )
        data = witness_to_dict(witness, include_traces=True)
        traced = [b for b in data["behaviors"] if "message_traces" in b]
        assert traced
        for entry in traced:
            checked = next(
                c for c in witness.checked if c.label == entry["label"]
            )
            edges = checked.constructed.behavior.edge_behaviors
            expected = {
                f"{u}->{v}": eb.sends for (u, v), eb in edges.items()
            }
            assert entry["message_traces"] == json.loads(json.dumps(expected))
        sends = [
            send
            for entry in traced
            for trace in entry["message_traces"].values()
            for send in trace
        ]
        assert sends and all(len(send) == 3 for send in sends)

    def test_links_present(self):
        data = witness_to_dict(sync_witness())
        assert data["links"][0]["between"] == ["E1", "E2"]


class TestSaveWitness:
    def test_writes_file(self, tmp_path):
        path = save_witness(sync_witness(), tmp_path / "w.json")
        loaded = json.loads(path.read_text())
        assert loaded["max_faults"] == 1
        assert loaded["graph"]["nodes"] == ["a", "b", "c"]


class TestAtomicSaves:
    def test_save_witness_leaves_no_temp_files(self, tmp_path):
        save_witness(sync_witness(), tmp_path / "w.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]

    def test_save_witness_replaces_existing(self, tmp_path):
        target = tmp_path / "w.json"
        target.write_text("{}")
        save_witness(sync_witness(), target)
        assert json.loads(target.read_text())["found"] is True


class TestLoadJsonFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_json_file(tmp_path / "gone.json", "witness")

    def test_truncated_json_names_the_file(self, tmp_path):
        path = tmp_path / "half.json"
        path.write_text('{"kind": "campaign", "graph": {"nodes": ["a"')
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_json_file(path, "campaign summary")
        with pytest.raises(ValueError, match=str(path)):
            load_json_file(path, "campaign summary")

    def test_valid_json_round_trips(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"a": [1, 2]}')
        assert load_json_file(path) == {"a": [1, 2]}


class TestLoadCampaign:
    def test_rejects_non_campaign_payload(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "witness"}))
        with pytest.raises(ValueError, match="not a campaign file"):
            load_campaign(path)

    def test_cli_replay_of_corrupt_file_is_clean_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "broken.json"
        path.write_text('{"kind": "campaign", "found": {"faulty_no')
        code = main(["campaign", "--replay", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "corrupt or truncated" in captured.err
        assert "Traceback" not in captured.err
