#!/usr/bin/env python3
"""Benchmark runner for blockedbandits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in-process through `blockedbandits.cli.main` (`sweep`
commands on configs generated from the seed) until `--seconds` have passed,
and checks every output.

`--trace 0` splits the workload's grids into short commands (parts) and runs
them round-robin, each at least three times.  It prints the end-to-end
metrics: wall and CPU time of the workload (the sum over its parts of each
part's median repetition), peak memory, set-up time (median of several fresh
interpreters), mean final regret and the share of cells that passed.
`--trace 1` repeats rounds of every grid as one untraced command, then every
grid as one traced command, all with one sweep worker, and prints the
per-layer metrics of `layers.py`.  Either way the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` next to this directory; without it the
runner exits with code 2 and prints no result.  Outputs go to
`.perfbench_out/` at the repository root.
"""

from __future__ import annotations

import os

# BLAS must be single-threaded before numpy is first imported, in this
# process and in every child it starts.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
os.environ.pop("BB_THREADS", None)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import TINY, WORKLOADS, Workload, config_cells  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "regret_mean": "regret", "ok_cell_ratio": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def setup(workload: Workload, seed: int, run_dir: Path):
    """Import the program and write the workload's configs; returns cli."""
    if not (SRC / "blockedbandits" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401

    from blockedbandits import cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SourceMissing(f"blockedbandits imported from {cli.__file__}")
    run_dir.mkdir(parents=True, exist_ok=True)
    for g, grid in enumerate(workload.grids):
        (run_dir / f"grid{g}.json").write_text(json.dumps(grid.config(seed), indent=2))
    for i, (_, part, _) in enumerate(workload.parts(seed)):
        (run_dir / f"part{i}.json").write_text(json.dumps(part, indent=2))
    return cli


def setup_seconds(args, run_dir: Path) -> float:
    """Set-up time of a fresh interpreter, as it measures itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(run_dir / "probe")]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_command(main, config: Path, out_dir: Path, threads: int) -> dict:
    argv = ["sweep", "--config", str(config), "--out-dir", str(out_dir),
            "--threads", str(threads), "--quiet"]
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - t0
    return {"code": code, "wall_s": wall, "cpu_s": cpu_seconds() - cpu0}


def check_outputs(workload: Workload, part: int, config: dict, code: int,
                  out_dir: Path) -> dict:
    """Output checks of one command; a cell that fails any of them is failed.

    The CLI exits 0; the summary reports no failed cell; the CSV holds
    exactly T rows for every cell; every final regret is >= -1e-9 and every
    oracle regret is 0.
    """
    cells = config_cells(config)
    problems: list[str] = []
    result = {"part": part, "cells": len(cells), "regrets": {}, "csv": None,
              "digest": None, "problems": problems}
    if code != 0:
        problems.append(f"cli exit code {code}")
        return dict(result, failed=len(cells))
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    summary_failed = sum(entry["failed"] for entry in summary)
    if summary_failed:
        problems.append(f"summary reports {summary_failed} failed cell(s)")
    data = (out_dir / "sweep.csv").read_bytes()
    rows: dict[tuple, list[tuple[int, float]]] = {}
    for row in csv.DictReader(data.decode("utf-8").splitlines()):
        key = (row["dataset"], row["algorithm"], int(row["seed"]))
        rows.setdefault(key, []).append((int(row["t"]),
                                         float(row["cumulative_regret"])))
    expected_rows = sum(workload.horizon(ds) for ds, _, _ in cells)
    if sum(map(len, rows.values())) != expected_rows:
        problems.append(f"csv has {sum(map(len, rows.values()))} rows, "
                        f"expected {expected_rows}")
    if set(rows) - set(cells):
        problems.append(f"unexpected cells {sorted(set(rows) - set(cells))[:3]}")
    failed: set = set()
    regrets: dict[tuple, float] = {}
    for cell in cells:
        ds, alg, _ = cell
        trace = rows.get(cell, [])
        horizon = workload.horizon(ds)
        if [t for t, _ in trace] != list(range(1, horizon + 1)):
            failed.add(cell)
            continue
        final = trace[-1][1]
        regrets[cell] = final
        if final < -1e-9 or (alg == "oracle" and final != 0.0):
            problems.append(f"cell {cell}: final regret {final!r}")
            failed.add(cell)
    return dict(result, failed=max(len(failed), summary_failed),
                regrets=regrets, csv=data,
                digest=hashlib.sha256(data).hexdigest())


def assemble_csv(parts: list[bytes], cells: list[tuple]) -> bytes:
    """One CSV from the CSVs of several commands: the header, then each
    cell's rows in the order of `cells`.  For one grid's parts this is what
    a single command over the grid writes."""
    header = b""
    rows: dict[tuple, list[bytes]] = {}
    for data in parts:
        lines = data.splitlines(keepends=True)
        header = lines[0]
        for line, row in zip(lines[1:], csv.reader(
                line.decode("utf-8") for line in lines[1:])):
            rows.setdefault((row[0], row[1], int(row[2])), []).append(line)
    return header + b"".join(line for cell in cells for line in rows.get(cell, []))


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: blas[k] for k in ("blas", "lapack") if k in blas}
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = "unavailable"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=False).stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in PINNED},
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def rounds(seconds: float, n_parts: int, minimum: int):
    """Yield part indices round-robin until every part has had `minimum`
    rounds, then while the next part, as long as its last round, would still
    end within `seconds`."""
    start = time.perf_counter()
    last = [0.0] * n_parts
    for i in itertools.count():
        part = i % n_parts
        began = time.perf_counter()
        if i >= minimum * n_parts and began - start + last[part] > seconds:
            return
        yield part
        last[part] = time.perf_counter() - began


def untraced(args, workload, main, run_dir: Path) -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0))
    parts = workload.parts(args.seed)
    reps, checks, setups = [], [], []
    # set-up probes are spread evenly over the run, so they see the same
    # machine load as the commands without crowding them out
    next_probe = time.perf_counter()
    for part in rounds(args.seconds, len(parts), MIN_REPS):
        if time.perf_counter() >= next_probe:
            setups.append(setup_seconds(args, run_dir))
            next_probe += args.seconds / SETUP_PROBES
        out_dir = run_dir / "out"
        _, config, threads = parts[part]
        rep = run_command(main, run_dir / f"part{part}.json", out_dir,
                          min(threads, nproc))
        reps.append(dict(rep, part=part))
        checks.append(check_outputs(workload, part, config, rep["code"], out_dir))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(args, run_dir))
    result = summarise(workload, args.seed, checks, [])
    # each cell once, however often its part ran
    regrets = list({cell: r for c in checks
                    for cell, r in c["regrets"].items()}.values())

    def per_part(metric: str, grid: str | None = None) -> float:
        # many short parts, each timed many times over the whole run: the
        # median of a part rides out the host's bursts of load
        return sum(statistics.median(r[metric] for r in reps if r["part"] == part)
                   for part, (name, _, _) in enumerate(parts)
                   if grid in (None, name))

    result["grid_wall_s"] = {grid.name: per_part("wall_s", grid.name)
                             for grid in workload.grids}
    result["metrics"] = {
        "wall_s": per_part("wall_s"),
        "cpu_s": per_part("cpu_s"),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
        "regret_mean": statistics.fmean(regrets) if regrets else 0.0,
        "ok_cell_ratio": 1.0 - result["failed"] / result["attempted"],
    }
    result["units"] = END_TO_END_UNITS
    return result, {"reps": reps, "setup_s": setups}


def traced(args, workload, main, run_dir: Path) -> tuple[dict, dict]:
    import layers

    grids = [(run_dir / f"grid{g}.json", grid.config(args.seed))
             for g, grid in enumerate(workload.grids)]
    cells = workload.cells(args.seed)
    reps, checks, layer_runs, spans = [], [], [], []
    for _ in rounds(args.seconds, 1, 1):
        out_dir = run_dir / "out"
        plain_s = 0.0
        for g, (path, config) in enumerate(grids):
            plain = run_command(main, path, out_dir, 1)
            plain_s += plain["wall_s"]
            reps.append(dict(plain, part=g, traced=False))
            checks.append(check_outputs(workload, g, config, plain["code"], out_dir))
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced_main = tracer.wrap("cli.main", main)
            for g, (path, config) in enumerate(grids):
                rep = run_command(traced_main, path, out_dir, 1)
                reps.append(dict(rep, part=g, traced=True))
                checks.append(check_outputs(workload, g, config, rep["code"],
                                            out_dir))
        finally:
            tracer.uninstall()
        # the tracer numbers cells in the order they start: grid after grid
        bad = [cell for i, cell in enumerate(cells)
               if not (i in tracer.cells and tracer.cells[i].within_budget
                       and tracer.cells[i].all_rounds)]
        if bad:
            checks[-1]["failed"] = max(checks[-1]["failed"], len(bad))
            checks[-1]["problems"].append(f"ledger or round check failed: {bad[:3]}")
        layer_runs.append(tracer.metrics(plain_s))
        spans += [dict(row, rep=len(layer_runs)) for row in tracer.span_rows()]
    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for row in spans:
            fh.write(json.dumps(row) + "\n")
    unsteady = [f"traced count {name} differs between commands"
                for name, unit in layers.PER_LAYER.items()
                if unit == "count" and len({run[name] for run in layer_runs}) > 1]
    result = summarise(workload, args.seed, checks, unsteady)
    result["metrics"] = layers.median_metrics(layer_runs)
    result["units"] = layers.PER_LAYER
    return result, {"reps": reps, "layers": layer_runs}


def summarise(workload: Workload, seed: int, checks: list[dict],
              problems: list[str]) -> dict:
    """Correctness over all commands of a run: every check passed and every
    repetition of a command wrote the same CSV.  The digest is that of the
    workload's CSV (header, then every cell's rows in `workload.cells`
    order), put together from the commands' CSVs."""
    problems = [p for c in checks for p in c["problems"]] + problems
    latest: dict[int, bytes] = {}
    for part in sorted({c["part"] for c in checks}):
        digests = sorted({c["digest"] for c in checks
                          if c["part"] == part and c["digest"]})
        if len(digests) > 1:
            problems.append(f"csv digests of part {part} differ between "
                            f"commands: {digests}")
        latest[part] = next((c["csv"] for c in reversed(checks)
                             if c["part"] == part and c["csv"]), None)
    digests = []
    if all(latest.values()):
        whole = assemble_csv(list(latest.values()), workload.cells(seed))
        digests.append(hashlib.sha256(whole).hexdigest())
    failed = sum(c["failed"] for c in checks)
    return {"correct": not problems and failed == 0,
            "attempted": sum(c["cells"] for c in checks),
            "failed": failed, "digests": digests, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's shrunken workloads")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]

    if args.probe_setup:
        t0 = time.perf_counter()
        setup(workload, args.seed, Path(args.out))
        print(time.perf_counter() - t0)
        return 0

    run_dir = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     + ("-tiny" if args.tiny else ""))
    try:
        cli = setup(workload, args.seed, run_dir)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    measure = traced if args.trace else untraced
    result, raw = measure(args, workload, cli.main, run_dir)
    env = environment()
    ratio = result["failed"] / result["attempted"]

    print(f"env {json.dumps(env)}")
    for digest in result["digests"]:
        print(f"csv_sha256 {args.workload} {digest}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"metric failed_cell_ratio {ratio!r} ratio")
    for name, value in result["metrics"].items():
        print(f"metric {name} {value!r} {result['units'][name]}")
    for name, value in result.get("grid_wall_s", {}).items():
        print(f"grid {name} wall_s {value!r}")
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "env": env, "failed_cell_ratio": ratio, **result, "raw": raw},
        indent=2))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
