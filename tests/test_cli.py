import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from blockedbandits.cli import (
    _ALGO_KEYS,
    _DATASET_KEYS,
    _NOISE_KEYS,
    _RUN_KEYS,
    main,
    parse_dataset,
)
from blockedbandits.env import (
    ConfigurationError,
    GeneratorSpec,
    generate_instance,
    instance_to_json,
)
from blockedbandits.harness import ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]

RUN_DOC = {
    "dataset": {"name": "d2", "users": 10, "items": 12, "clusters": 2,
                "horizon": 6, "budget": 1},
    "algorithm": {"name": "etc", "params": {"m_target": 2}},
    "seeds": 2,
}

SWEEP_DOC = {
    "datasets": [{"label": "tiny", "name": "d2", "users": 8, "items": 10,
                  "clusters": 2, "horizon": 5, "budget": 1}],
    "algorithms": [{"name": "random"}, {"name": "oracle"}],
    "seeds": 2,
}


def run_cli(tmp_path, command, doc, *extra):
    """Run `command` on config `doc`; outputs go to tmp_path / "out"."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), "--out-dir",
                 str(tmp_path / "out"), "--quiet", *extra])


def edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


class TestConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", dict(RUN_DOC, extra=1)) == 1
        assert "extra" in capsys.readouterr().err

    def test_unknown_dataset_key_rejected(self, tmp_path, capsys):
        doc = edited(RUN_DOC, lambda d: d["dataset"].update(rows=5))
        assert run_cli(tmp_path, "run", doc) == 1
        assert "rows" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        doc = edited(RUN_DOC, lambda d: d["algorithm"].update(name="nonsense"))
        assert run_cli(tmp_path, "run", doc) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_seed_count_expansion(self, tmp_path):
        assert run_cli(tmp_path, "run", RUN_DOC) == 0
        lines = (tmp_path / "out" / "run.csv").read_text().splitlines()[1:]
        assert {line.split(",")[2] for line in lines} == {"0", "1"}

    def test_parse_dataset_defaults(self):
        spec = parse_dataset({"name": "d3"})
        assert isinstance(spec, GeneratorSpec)
        assert spec.resolved().noise.kind == "sign"

    def test_schema_matches_reader(self):
        schema = json.loads((ROOT / "docs" / "run_config.schema.json").read_text())
        dataset = schema["$defs"]["dataset"]["properties"]
        algorithm = schema["$defs"]["algorithm"]["properties"]
        assert set(schema["properties"]) == _RUN_KEYS
        assert set(dataset) == _DATASET_KEYS
        assert set(dataset["noise"]["properties"]) == _NOISE_KEYS
        assert set(algorithm) == _ALGO_KEYS
        assert sorted(algorithm["name"]["enum"]) == sorted(ALGORITHMS)

    def test_examples_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((ROOT / "docs" / "run_config.schema.json").read_text())
        readme = (ROOT / "README.md").read_text()
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        for doc in (RUN_DOC, example):
            jsonschema.validate(doc, schema)

    @pytest.mark.parametrize("name,key,value,valid", [
        ("d3", "noise", {"kind": "gaussian", "sigma": 0.5}, False),
        ("d1", "v_law", "uniform", False),
        ("d2", "v_scale", 2.0, False),
        ("custom", "noise", {"kind": "gaussian", "sigma": 0.5}, True),
        ("custom", "v_scale", 2.0, True)])
    def test_schema_and_reader_fix_canonical_dataset_keys(self, name, key,
                                                          value, valid):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((ROOT / "docs" / "run_config.schema.json").read_text())
        dataset = {"name": name, key: value}
        assert jsonschema.Draft202012Validator(schema).is_valid(
            {"dataset": dataset}) == valid
        if valid:
            parse_dataset(dataset)
        else:
            with pytest.raises(ConfigurationError, match="fixes"):
                parse_dataset(dataset)

    @pytest.mark.parametrize("laws,valid", [
        ({}, False),
        ({"v_law": "uniform", "v_scale": 2.0}, False),
        ({"v_law": "normal", "v_scale": 0.5}, False),
        ({"v_scale": 0.5}, True),
        ({"v_law": "uniform", "v_scale": 1.0}, True),
        ({"v_law": "grid"}, True)])
    def test_schema_and_reader_take_sign_noise_in_unit_interval(self, laws,
                                                               valid):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((ROOT / "docs" / "run_config.schema.json").read_text())
        dataset = {"name": "custom", "noise": {"kind": "sign"}, **laws}
        assert jsonschema.Draft202012Validator(schema).is_valid(
            {"dataset": dataset}) == valid
        if valid:
            parse_dataset(dataset)
        else:
            with pytest.raises(ConfigurationError, match="sign feedback"):
                parse_dataset(dataset)


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
        cfg_path.write_text(json.dumps({"dataset": {"name": "nope"},
                                        "algorithm": {"name": "random"}}))
        assert main(["run", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("command,edit", [
        ("run", lambda d: d["dataset"].update(users="abc")),
        ("run", lambda d: d["dataset"].update(noise=5)),
        ("run", lambda d: d["dataset"].update(noise={"kind": "gaussian",
                                                     "sigma": "x"})),
        ("run", lambda d: d["dataset"].update(name="nope")),
        ("run", lambda d: d["algorithm"].update(params={"bogus": 1})),
        ("run", lambda d: d.update(algorithm={"name": "random",
                                              "params": {"bogus": 1}})),
        ("run", lambda d: d.update(algorithm={"name": "oracle",
                                              "params": {"bogus": 1}})),
        ("run", lambda d: d.update(algorithm=5)),
        ("sweep", lambda d: d["datasets"][0].update(users="x")),
        ("sweep", lambda d: d["datasets"][0].update(item_clusters="x")),
        ("sweep", lambda d: d.update(seeds="ab")),
        ("sweep", lambda d: d.update(datasets=5)),
        ("sweep", lambda d: d["algorithms"].extend(
            [{"name": "etc", "params": {"m_target": 2}}] * 2)),
        ("sweep", lambda d: d.update(datasets=[
            {"name": "d3", "users": 8, "items": 10, "horizon": 5},
            {"name": "d3", "users": 12, "items": 10, "horizon": 5}])),
        ("run", lambda d: d["dataset"].update(users=10.7)),
        ("run", lambda d: d["dataset"].update(budget=True)),
        ("run", lambda d: d.update(seeds=[0, 1.9])),
        ("sweep", lambda d: d.update(seeds=True)),
        ("run", lambda d: d.update(algorithms=[{"name": "random"}])),
        ("run", lambda d: d["algorithm"].update(params={"m_target": "x"})),
        ("run", lambda d: d["algorithm"].update(params={"m_target": True})),
        ("run", lambda d: d.update(algorithm={
            "name": "practical", "params": {"centroid_smoothing": "no"}})),
        ("run", lambda d: d["dataset"].update(v_scale=True)),
        ("run", lambda d: d["dataset"].update(v_scale="5")),
        ("run", lambda d: d["dataset"].update(noise={"kind": "gaussian",
                                                     "sigma": True})),
        ("run", lambda d: d["algorithm"].update(params={"constant": 2.0})),
        ("run", lambda d: d.update(algorithm={
            "name": "practical", "params": {"elbow_threshold": 0.2}})),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"max_phases": 3}})),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="d3"),
                                   algorithm={"name": "collab-greedy",
                                              "params": {"agreement": 0.4}})),
        ("run", lambda d: d.update(dataset=dict(
            d["dataset"], name="custom",
            noise={"kind": "gaussian", "sigma": float("nan")}))),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="custom",
                                                v_scale=-5.0))),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="custom",
                                                v_scale=float("inf")))),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"mu_bound": float("nan")}})),
        ("run", lambda d: d["algorithm"].update(
            params={"p_override": float("nan")})),
        ("run", lambda d: d["algorithm"].update(
            params={"m_target": float("inf")})),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="d3"),
                                   algorithm={"name": "collab-greedy",
                                              "params": {"theta": float("nan")}})),
        ("run", lambda d: d["dataset"].update(
            name="d3", noise={"kind": "gaussian", "sigma": 0.5})),
        ("run", lambda d: d["dataset"].update(name="d1", v_law="uniform")),
        ("sweep", lambda d: d["datasets"][0].update(v_scale=2.0)),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="d3"),
                                   algorithm={"name": "collab-greedy",
                                              "params": {"theta": -1.0,
                                                         "alpha": -2.0}})),
        ("run", lambda d: d.update(dataset=dict(d["dataset"], name="d3"),
                                   algorithm={"name": "collab-greedy",
                                              "params": {"theta": 0.0}})),
        ("sweep", lambda d: d.update(
            datasets=[dict(d["datasets"][0], name="d3")],
            algorithms=[{"name": "collab-greedy", "params": {"alpha": 0}}])),
        ("sweep", lambda d: d.update(
            datasets=[dict(d["datasets"][0], name="d1")],
            algorithms=[{"name": "collab-greedy"}])),
        ("run", lambda d: d.update(algorithm={
            "name": "practical",
            "params": {"phase_length_base": 0, "phase_length_slope": 0}})),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"mu_bound": -1.0}})),
        ("run", lambda d: d["algorithm"].update(params={"m_target": -3.0})),
        ("run", lambda d: d["dataset"].update(name="custom",
                                              noise={"kind": "sign"})),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"n_clusters": 2}})),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"sigma": 0.5}})),
        ("run", lambda d: d.update(algorithm={
            "name": "phased", "params": {"reward_ceiling": 5.0}})),
        ("run", lambda d: d["algorithm"].update(params={"p_override": 0.5})),
    ], ids=["users-abc", "noise-5", "sigma-x", "dataset-name", "etc-param",
            "random-param", "oracle-param", "algorithm-not-object",
            "sweep-users-x", "item-clusters-x", "seeds-ab",
            "datasets-not-list", "same-algorithm-label", "same-dataset-label",
            "users-fraction", "budget-bool", "seed-fraction", "seeds-bool",
            "algorithm-and-algorithms", "param-str-for-float",
            "param-bool-for-float", "param-str-for-bool", "v-scale-bool",
            "v-scale-str", "sigma-bool", "etc-constant",
            "practical-elbow-threshold", "phased-max-phases",
            "collab-greedy-agreement", "sigma-nan", "v-scale-negative",
            "v-scale-infinite", "phased-mu-bound-nan", "etc-p-override-nan",
            "etc-m-target-inf", "collab-greedy-theta-nan", "d3-noise",
            "d1-v-law", "d2-v-scale", "collab-greedy-negative-exponents",
            "collab-greedy-theta-zero", "collab-greedy-alpha-zero",
            "collab-greedy-gaussian-noise", "practical-zero-phase-length",
            "phased-mu-bound-negative", "etc-m-target-negative",
            "custom-sign-noise-default-law", "phased-n-clusters",
            "phased-sigma", "phased-reward-ceiling", "etc-p-override"])
    def test_bad_config_exits_before_any_cell(self, tmp_path, capsys,
                                             command, edit):
        base = RUN_DOC if command == "run" else SWEEP_DOC
        assert run_cli(tmp_path, command, edited(base, edit)) == 1
        assert "kind=config" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*.csv"))

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-0.5"])
    def test_paperfig_bad_scale_is_config_error(self, tmp_path, capsys, scale):
        assert main(["paperfig", "d1", scale, "--out-dir", str(tmp_path),
                     "--quiet"]) == 1
        assert "kind=config" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["run"], ["paperfig", "d9", "1.0"], ["paperfig", "d1", "abc"],
        ["sweep", "--config", "{config}", "--threads", "two"], ["bogus"],
        ["sweep", "--config", "{config}", "--threads", "0"],
        ["sweep", "--config", "{config}", "--threads", "-2"],
        ["diag", "{instance}", "--threads", "8"],
        ["diag", "{instance}", "--seeds", "3"],
        ["diag", "{instance}", "--out-dir", "/nonexistent/x"],
        ["diag", "{instance}", "--quiet"]],
        ids=["run-without-config", "paperfig-unknown-dataset",
             "paperfig-scale-not-number", "threads-not-integer",
             "unknown-subcommand", "threads-zero", "threads-negative",
             "diag-threads", "diag-seeds", "diag-out-dir", "diag-quiet"])
    def test_usage_error_is_one_config_line(self, tmp_path, capsys, argv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(SWEEP_DOC))
        instance = tmp_path / "instance.json"
        instance.write_text(instance_to_json(generate_instance(
            GeneratorSpec(name="d2", n_users=4, n_items=5, n_clusters=2,
                          horizon=3), seed=0)))
        argv = [arg.format(config=config, instance=instance) for arg in argv]
        if argv[0] != "diag":  # diag writes nothing and takes no options
            argv += ["--out-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error kind=config msg=")
        assert len(captured.err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: blockedbandits" in capsys.readouterr().out

    def test_missing_file_is_config_error(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    @pytest.mark.parametrize("command,key,value", [
        ("diag", "M", "abc"), ("diag", "noise", 5),
        ("run", "users", 0), ("run", "budget", 0),
        ("diag", "M", 7), ("diag", "N", 5), ("diag", "P", [0.5] * 8),
        ("diag", "cluster_of", [0] * 5), ("diag", "P", [[None] * 8] * 6),
        ("diag", "item_cluster_of", [0] * 3), ("diag", "M", 6.7),
        ("diag", "B", 1.9), ("diag", "T", 4.5), ("diag", "C", True)])
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
        assert run_cli(tmp_path, "sweep", SWEEP_DOC) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * 2 * 5

    def test_sweep_unlabelled_params_give_separate_rows(self, tmp_path):
        doc = edited(SWEEP_DOC, lambda d: d.update(algorithms=[
            {"name": "etc", "params": {"m_target": 2}},
            {"name": "etc", "params": {"m_target": 4}}]))
        assert run_cli(tmp_path, "sweep", doc) == 0
        rows = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert [(r["algorithm"], r["n"]) for r in rows] == \
            [("etc-m_target2", 2), ("etc-m_target4", 2)]

    def test_threads_do_not_change_output(self, tmp_path):
        doc = {k: v for k, v in RUN_DOC.items() if k != "algorithm"}
        doc["algorithms"] = [{"name": "random"}, RUN_DOC["algorithm"]]
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            assert run_cli(tmp_path / threads, "run", doc, "--threads", threads) == 0
        for name in ("run.csv", "run_summary.json"):
            assert (tmp_path / "1" / "out" / name).read_bytes() == \
                (tmp_path / "2" / "out" / name).read_bytes()


def test_cli_import_loads_no_scipy():
    probe = ("import sys, blockedbandits.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
