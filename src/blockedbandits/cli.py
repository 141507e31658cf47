"""Command-line interface: single runs, sweeps, the paper-figure experiment,
and instance diagnostics.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  Errors print
one machine-parsable line to stderr: ``error kind=<config|runtime> msg=...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .completion import diagnostics
from .env import ConfigurationError, GeneratorSpec, NoiseModel, instance_from_json
from .harness import (
    ALGORITHMS,
    SweepSpec,
    aggregate,
    summary_json,
    sweep,
    write_csv,
)

_DATASET_KEYS = {"name", "users", "items", "clusters", "horizon", "budget",
                 "v_law", "v_scale", "noise", "item_clusters"}
_NOISE_KEYS = {"kind", "sigma"}
_ALGO_KEYS = {"name", "params"}
_RUN_KEYS = {"dataset", "algorithm", "algorithms", "seeds", "out_dir"}


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def parse_dataset(doc: dict) -> GeneratorSpec:
    _reject_unknown(doc, _DATASET_KEYS, "dataset")
    noise_doc = doc.get("noise")
    kwargs = dict(
        name=doc.get("name", "custom"),
        n_users=int(doc.get("users", 150)),
        n_items=int(doc.get("items", 150)),
        n_clusters=int(doc.get("clusters", 4)),
        horizon=int(doc.get("horizon", 60)),
        budget=int(doc.get("budget", 1)),
        v_law=doc.get("v_law", "uniform"),
        v_scale=float(doc.get("v_scale", 5.0)),
        item_clusters=doc.get("item_clusters"),
    )
    if noise_doc is not None:
        _reject_unknown(noise_doc, _NOISE_KEYS, "dataset.noise")
        kwargs["noise"] = NoiseModel(noise_doc["kind"],
                                     float(noise_doc.get("sigma", 0.0)))
    return GeneratorSpec(**kwargs)


def dataset_doc(spec: GeneratorSpec) -> dict:
    # serialised as-declared, not resolved, for round-trip fidelity
    return {
        "name": spec.name, "users": spec.n_users, "items": spec.n_items,
        "clusters": spec.n_clusters, "horizon": spec.horizon,
        "budget": spec.budget, "v_law": spec.v_law, "v_scale": spec.v_scale,
        "noise": {"kind": spec.noise.kind, "sigma": spec.noise.sigma},
        "item_clusters": spec.item_clusters,
    }


@dataclass
class RunConfig:
    dataset: GeneratorSpec
    algorithms: list[tuple[str, str, dict]]  # (label, registry name, params)
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str | None = None

    @staticmethod
    def from_doc(doc: dict) -> "RunConfig":
        _reject_unknown(doc, _RUN_KEYS, "run config")
        if "dataset" not in doc:
            raise ConfigurationError("run config needs a 'dataset' section")
        dataset = parse_dataset(doc["dataset"])
        algo_docs = doc.get("algorithms")
        if algo_docs is None:
            if "algorithm" not in doc:
                raise ConfigurationError("run config needs an 'algorithm' section")
            algo_docs = [doc["algorithm"]]
        algorithms = []
        for adoc in algo_docs:
            _reject_unknown(adoc, _ALGO_KEYS, "algorithm")
            name = adoc.get("name")
            if name not in ALGORITHMS:
                raise ConfigurationError(
                    f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
            params = adoc.get("params", {}) or {}
            label = name if not params else name + "-" + "-".join(
                f"{k}{v}" for k, v in sorted(params.items()))
            algorithms.append((label, name, params))
        seeds = doc.get("seeds", [0])
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        return RunConfig(dataset=dataset, algorithms=algorithms,
                         seeds=[int(s) for s in seeds],
                         out_dir=doc.get("out_dir"))

    def to_doc(self) -> dict:
        return {
            "dataset": dataset_doc(self.dataset),
            "algorithms": [{"name": name, "params": params}
                           for _, name, params in self.algorithms],
            "seeds": self.seeds,
            "out_dir": self.out_dir,
        }

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        return RunConfig.from_doc(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2)


def _threads(args) -> int:
    env = os.environ.get("BB_THREADS")
    if env is not None:
        return max(1, int(env))
    return max(1, args.threads)


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


def cmd_run(args) -> int:
    cfg = RunConfig.from_json(Path(args.config).read_text())
    if args.seeds is not None:
        cfg.seeds = list(range(args.seeds))
    out_dir = Path(args.out_dir or cfg.out_dir or ".")
    spec = SweepSpec.make([("dataset", cfg.dataset)], cfg.algorithms, cfg.seeds)
    results = sweep(spec, threads=_threads(args))
    _emit(results, out_dir, "run", args.quiet)
    return 0


def cmd_sweep(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    _reject_unknown(doc, {"datasets", "algorithms", "seeds", "out_dir"}, "sweep config")
    datasets = []
    for entry in doc.get("datasets", []):
        _reject_unknown(entry, _DATASET_KEYS | {"label"}, "sweep dataset")
        label = entry.pop("label", entry.get("name", "dataset"))
        datasets.append((label, parse_dataset(entry)))
    algorithms = []
    for adoc in doc.get("algorithms", []):
        _reject_unknown(adoc, _ALGO_KEYS | {"label"}, "sweep algorithm")
        name = adoc.get("name")
        if name not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {name!r}")
        algorithms.append((adoc.get("label", name), name, adoc.get("params", {}) or {}))
    seeds = doc.get("seeds", [0])
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    if args.seeds is not None:
        seeds = list(range(args.seeds))
    if not datasets or not algorithms or not seeds:
        raise ConfigurationError("sweep needs datasets, algorithms and seeds")
    out_dir = Path(args.out_dir or doc.get("out_dir") or ".")
    results = sweep(SweepSpec.make(datasets, algorithms, seeds),
                    threads=_threads(args))
    _emit(results, out_dir, "sweep", args.quiet)
    return 0


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
                    threads=_threads(args))
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
