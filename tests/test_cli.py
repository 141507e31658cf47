import json
import os

import numpy as np
import pytest

from blockedbandits.cli import RunConfig, main, parse_dataset
from blockedbandits.env import ConfigurationError, GeneratorSpec, generate_instance, instance_to_json


RUN_DOC = {
    "dataset": {"name": "d2", "users": 10, "items": 12, "clusters": 2,
                "horizon": 6, "budget": 1},
    "algorithm": {"name": "etc", "params": {"m_target": 2}},
    "seeds": 2,
}


class TestConfig:
    def test_round_trip_identity(self):
        cfg = RunConfig.from_doc(RUN_DOC)
        again = RunConfig.from_json(cfg.to_json())
        assert again.to_doc() == cfg.to_doc()

    def test_unknown_top_level_key_rejected(self):
        doc = dict(RUN_DOC)
        doc["extra"] = 1
        with pytest.raises(ConfigurationError, match="extra"):
            RunConfig.from_doc(doc)

    def test_unknown_dataset_key_rejected(self):
        doc = json.loads(json.dumps(RUN_DOC))
        doc["dataset"]["rows"] = 5
        with pytest.raises(ConfigurationError, match="rows"):
            RunConfig.from_doc(doc)

    def test_unknown_algorithm_rejected(self):
        doc = json.loads(json.dumps(RUN_DOC))
        doc["algorithm"]["name"] = "nonsense"
        with pytest.raises(ConfigurationError, match="nonsense"):
            RunConfig.from_doc(doc)

    def test_seed_count_expansion(self):
        cfg = RunConfig.from_doc(RUN_DOC)
        assert cfg.seeds == [0, 1]

    def test_parse_dataset_defaults(self):
        spec = parse_dataset({"name": "d3"})
        assert isinstance(spec, GeneratorSpec)
        assert spec.resolved().noise.kind == "sign"


class TestCommands:
    def test_run_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RUN_DOC))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out-dir",
                     str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out-dir",
                     str(out2), "--quiet"]) == 0
        assert (out1 / "run.csv").read_text() == (out2 / "run.csv").read_text()
        assert (out1 / "run_summary.json").read_text() == \
            (out2 / "run_summary.json").read_text()

    def test_run_exit_code_on_bad_config(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"dataset": {"name": "nope"}}))
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_missing_file_is_config_error(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    @pytest.mark.parametrize("command,key,value", [
        ("diag", "M", "abc"), ("diag", "noise", 5),
        ("run", "users", 0), ("run", "budget", 0)])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, key,
                                       value):
        if command == "diag":
            inst = generate_instance(
                GeneratorSpec(name="custom", n_users=6, n_items=8,
                              n_clusters=1, horizon=4, budget=1), seed=0)
            doc = json.loads(instance_to_json(inst))
            doc[key] = value
        else:
            doc = json.loads(json.dumps(RUN_DOC))
            doc["dataset"][key] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = ["diag", str(path)] if command == "diag" else \
            ["run", "--config", str(path), "--out-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 1
        assert "kind=config" in capsys.readouterr().err

    def test_diag_single_cluster_kappa_one(self, tmp_path, capsys):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=6, n_items=8, n_clusters=1,
                          horizon=4, budget=1, v_law="uniform"), seed=0)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        assert main(["diag", str(path)]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split() for line in out.strip().splitlines())
        assert float(fields["kappa"]) == pytest.approx(1.0)
        assert float(fields["tau"]) == 1.0

    def test_paperfig_csv_series(self, tmp_path):
        assert main(["paperfig", "d1", "0.2", "--seeds", "2", "--out-dir",
                     str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "paperfig_d1.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        algorithms = {r[1] for r in rows}
        assert len(algorithms) >= 4
        horizon = round(60 * 0.2)
        assert len(rows) == len(algorithms) * 2 * horizon
        assert (tmp_path / "plot_paperfig_d1.py").exists()
        assert (tmp_path / "paperfig_d1_summary.json").exists()

    def test_paperfig_d3_includes_greedy(self, tmp_path):
        assert main(["paperfig", "d3", "0.1", "--seeds", "1", "--out-dir",
                     str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "paperfig_d3.csv").read_text()
        assert "collab-greedy" in text

    def test_sweep_command(self, tmp_path):
        doc = {
            "datasets": [{"label": "tiny", "name": "d2", "users": 8,
                          "items": 10, "clusters": 2, "horizon": 5,
                          "budget": 1}],
            "algorithms": [{"name": "random"}, {"name": "oracle"}],
            "seeds": 2,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg), "--out-dir",
                     str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * 2 * 5

    def test_bb_threads_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BB_THREADS", "2")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RUN_DOC))
        assert main(["run", "--config", str(cfg_path), "--out-dir",
                     str(tmp_path), "--quiet"]) == 0
