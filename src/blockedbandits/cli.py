"""Command-line interface: single runs, sweeps, the paper-figure experiment,
and instance diagnostics.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  Errors print
one machine-parsable line to stderr: ``error kind=<config|runtime> msg=...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .completion import diagnostics
from .env import ConfigurationError, GeneratorSpec, NoiseModel, instance_from_json
from .harness import (
    SweepSpec,
    aggregate,
    summary_json,
    sweep,
    write_csv,
)


def _integer(value) -> int:
    """An integral number; a bool or a fraction is an error, not truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# dataset key -> (GeneratorSpec field, type); absent keys take its defaults
_DATASET_FIELDS = {
    "name": ("name", str), "users": ("n_users", _integer),
    "items": ("n_items", _integer), "clusters": ("n_clusters", _integer),
    "horizon": ("horizon", _integer), "budget": ("budget", _integer),
    "v_law": ("v_law", str), "v_scale": ("v_scale", float),
    "item_clusters": ("item_clusters", _integer),
}
_DATASET_KEYS = set(_DATASET_FIELDS) | {"noise"}
_NOISE_KEYS = {"kind", "sigma"}
_ALGO_KEYS = {"name", "params"}
_RUN_KEYS = {"dataset", "algorithm", "algorithms", "seeds", "out_dir"}
_SWEEP_KEYS = {"datasets", "algorithms", "seeds", "out_dir"}


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {doc!r}")
    return doc


def _reject_unknown(doc, allowed: set[str], where: str) -> None:
    unknown = set(_object(doc, where)) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _convert(convert, value, where: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid {where}: {value!r}") from exc


def _entries(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a list, got {value!r}")
    return value


def parse_dataset(doc: dict) -> GeneratorSpec:
    _reject_unknown(doc, _DATASET_KEYS, "dataset")
    kwargs = {}
    for key, value in doc.items():
        if key == "noise":
            _reject_unknown(value, _NOISE_KEYS, "dataset.noise")
            kwargs["noise"] = NoiseModel(
                value.get("kind"),
                _convert(float, value.get("sigma", 0.0), "dataset.noise.sigma"))
        elif not (key == "item_clusters" and value is None):
            field, convert = _DATASET_FIELDS[key]
            kwargs[field] = _convert(convert, value, f"dataset.{key}")
    return GeneratorSpec(**kwargs)


def _seed_list(value) -> list[int]:
    """An integer n means seeds 0..n-1; otherwise an explicit list."""
    if isinstance(value, list):
        return [_integer(s) for s in value]
    return list(range(_integer(value)))


def _parse_algorithm(doc: dict, allowed: set[str]) -> tuple[str, str, dict]:
    """(label, name, params); without a label, the name plus -<key><value>
    for each param in key order."""
    _reject_unknown(doc, allowed, "algorithm")
    name = doc.get("name")
    params = _object(doc.get("params") or {}, "algorithm params")
    label = doc.get("label", f"{name}" + "".join(
        f"-{k}{v}" for k, v in sorted(params.items())))
    return label, name, params


def _emit(results, out_dir: Path, stem: str, quiet: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    write_csv(results, str(csv_path))
    (out_dir / f"{stem}_summary.json").write_text(summary_json(results))
    if not quiet:
        for (ds, alg), stats in sorted(aggregate(results).items()):
            print(f"{ds} {alg}: regret {stats['mean']:.4f} "
                  f"+/- {stats['stderr']:.4f} (n={stats['n']}, "
                  f"failed={stats['failed']})")
        print(f"wrote {csv_path}")
    failed = [r for r in results if r.failed]
    if failed:
        raise RuntimeError(f"{len(failed)} cell(s) failed: {failed[0].error}")


def _run_grid(args, doc: dict, datasets: list, algo_docs: list,
              algo_keys: set[str], stem: str) -> int:
    """The part `run` and `sweep` share: algorithms, seeds, output."""
    algorithms = [_parse_algorithm(a, algo_keys)
                  for a in _entries(algo_docs, "algorithms")]
    seeds = _convert(_seed_list, doc.get("seeds", [0]), "seeds")
    if args.seeds is not None:
        seeds = list(range(args.seeds))
    spec = SweepSpec.make(datasets, algorithms, seeds)
    out_dir = _convert(Path, args.out_dir or doc.get("out_dir") or ".", "out_dir")
    _emit(sweep(spec, threads=max(1, args.threads)), out_dir, stem, args.quiet)
    return 0


def cmd_run(args) -> int:
    """A sweep over the one dataset, labelled "dataset"."""
    doc = json.loads(Path(args.config).read_text())
    _reject_unknown(doc, _RUN_KEYS, "run config")
    if "dataset" not in doc:
        raise ConfigurationError("run config needs a 'dataset' section")
    if ("algorithm" in doc) == ("algorithms" in doc):
        raise ConfigurationError(
            "run config needs one of 'algorithm' and 'algorithms'")
    algo_docs = doc.get("algorithms", [doc.get("algorithm")])
    return _run_grid(args, doc, [("dataset", parse_dataset(doc["dataset"]))],
                     algo_docs, _ALGO_KEYS, "run")


def cmd_sweep(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    _reject_unknown(doc, _SWEEP_KEYS, "sweep config")
    datasets = []
    for entry in _entries(doc.get("datasets", []), "datasets"):
        _reject_unknown(entry, _DATASET_KEYS | {"label"}, "sweep dataset")
        label = entry.pop("label", entry.get("name", "dataset"))
        datasets.append((label, parse_dataset(entry)))
    return _run_grid(args, doc, datasets, doc.get("algorithms", []),
                     _ALGO_KEYS | {"label"}, "sweep")


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Auto-generated plotting script: cumulative regret and round-wise reward.
# Requires matplotlib and a CSV produced by the experiment run.
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else {csv_name!r}
series = defaultdict(lambda: defaultdict(list))  # alg -> seed -> rows
with open(path) as fh:
    for row in csv.DictReader(fh):
        series[row["algorithm"]][int(row["seed"])].append(
            (int(row["t"]), float(row["roundwise_mean_reward"]),
             float(row["cumulative_regret"])))

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
for alg, by_seed in sorted(series.items()):
    horizon = max(t for rows in by_seed.values() for t, _, _ in rows)
    n = len(by_seed)
    reward = [0.0] * horizon
    regret = [0.0] * horizon
    for rows in by_seed.values():
        for t, rw, rg in rows:
            reward[t - 1] += rw / n
            regret[t - 1] += rg / n
    ts = range(1, horizon + 1)
    ax1.plot(ts, regret, label=alg)
    ax2.plot(ts, reward, label=alg)
ax1.set_xlabel("round"); ax1.set_ylabel("cumulative regret"); ax1.legend()
ax2.set_xlabel("round"); ax2.set_ylabel("round-wise mean reward")
fig.tight_layout()
out = path.rsplit(".", 1)[0] + ".png"
fig.savefig(out, dpi=150)
print("wrote", out)
"""


def cmd_paperfig(args) -> int:
    name = args.dataset.lower()
    if name not in ("d1", "d2", "d3"):
        raise ConfigurationError("paperfig dataset must be one of d1, d2, d3")
    scale = float(args.scale)
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    size = max(2, round(150 * scale))
    horizon = max(2, round(60 * scale))
    spec = GeneratorSpec(name=name, n_users=size, n_items=size,
                         n_clusters=4, horizon=horizon, budget=1)
    spec = spec.resolved()
    algorithms = [
        ("practical", "practical", {}),
        ("etc-m10", "etc", {"m_target": 10.0 * scale}),
        ("etc-m30", "etc", {"m_target": 30.0 * scale}),
        ("random", "random", {}),
        ("oracle", "oracle", {}),
    ]
    if name == "d3":
        algorithms.append(("collab-greedy", "collab-greedy", {}))
    seeds = list(range(args.seeds if args.seeds is not None else 5))
    out_dir = Path(args.out_dir or ".")
    results = sweep(SweepSpec.make([(name, spec)], algorithms, seeds),
                    threads=max(1, args.threads))
    stem = f"paperfig_{name}"
    _emit(results, out_dir, stem, args.quiet)
    script = out_dir / f"plot_{stem}.py"
    script.write_text(PLOT_SCRIPT.format(csv_name=f"{stem}.csv"))
    if not args.quiet:
        print(f"wrote {script}")
    return 0


def cmd_diag(args) -> int:
    inst = instance_from_json(Path(args.instance).read_text())
    diag = diagnostics(inst.rewards, inst.cluster_of)
    kappa = "inf" if np.isinf(diag.kappa) else f"{diag.kappa:.6g}"
    print(f"mu_row {diag.mu_row:.6g}")
    print(f"mu_col {diag.mu_col:.6g}")
    print(f"kappa {kappa}")
    print(f"tau {diag.tau:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockedbandits",
        description="Budget-constrained collaborative bandit experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seeds", type=int, default=None,
                       help="number of seeds (0..n-1), overriding the config")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run one dataset/algorithm config")
    p_run.add_argument("--config", required=True)
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a dataset x algorithm grid")
    p_sweep.add_argument("--config", required=True)
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("paperfig",
                           help="regret comparison on a synthetic dataset")
    p_fig.add_argument("dataset", choices=["d1", "d2", "d3"])
    p_fig.add_argument("scale", type=float)
    common(p_fig)
    p_fig.set_defaults(func=cmd_paperfig)

    p_diag = sub.add_parser("diag", help="incoherence/conditioning of an instance")
    p_diag.add_argument("instance", help="path to an instance JSON document")
    common(p_diag)
    p_diag.set_defaults(func=cmd_diag)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error kind=config msg={exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error kind=runtime msg={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
