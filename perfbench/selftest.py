#!/usr/bin/env python3
"""Fast self-test of the benchmark runner, on shrunken workloads.

    python3 perfbench/selftest.py

For each workload it runs `run.py --tiny` once untraced and twice traced, and
checks that:
  * every metric of BENCHMARK.json is printed with its unit, and the result
    is correct with no failed cell;
  * traced counts repeat exactly across the two traced runs;
  * the CSV digest is the same untraced and traced;
  * each layer is exercised where the workload is meant to exercise it.
It also checks that the paperfig-d1 grid's sweep config reproduces
`blockedbandits paperfig d1` byte for byte, and that the runner exits nonzero
without a result when the program source is missing.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"

# counts that must be nonzero (True) or zero (False) on the tiny workloads
EXERCISED = {
    "solver-mix": {"completion.svd_calls": True, "baselines.kmeans_calls": True,
                   "phased.similarity_components_calls": True,
                   "item_phased.run_s": True},
    "policy-loop": {"completion.estimate_calls": False, "env.recommend_calls": True,
                    "baselines.run_collab_greedy_s": True},
}
REPEATED = ("completion.iters", "env.recommend_calls", "completion.svd_calls")


def run(workload: str, trace: int) -> tuple[dict, dict, list[str]]:
    """(metric name -> (value, unit) printed, final JSON, csv digests)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    printed = {}
    digests = []
    problems = []
    for line in lines[:-1]:
        words = line.split()
        if words[0] == "metric":
            printed[words[1]] = (float(words[2]), words[3])
        elif words[0] == "csv_sha256":
            digests.append(words[2])
        elif line.startswith("check failed:"):
            problems.append(line)
    result = json.loads(lines[-1])
    result["problems"] = problems
    return printed, result, digests


def check_workload(name: str, bench: dict, failures: list[str]) -> None:
    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{name}: {what}")

    plain, plain_json, plain_digests = run(name, 0)
    traced = [run(name, 1) for _ in range(2)]
    for section, (printed, result, _) in (("end_to_end", (plain, plain_json, None)),
                                          ("per_layer", traced[0])):
        for metric in bench[section]:
            got = result["metrics"].get(metric["name"])
            expect(got is not None and got["unit"] == metric["unit"]
                   and printed.get(metric["name"], (None, None))[1] == metric["unit"],
                   f"{metric['name']} not printed with unit {metric['unit']}")
        expect(set(result["metrics"]) == {m["name"] for m in bench[section]},
               f"{section} metrics differ from BENCHMARK.json")
        expect(result["correct"] and result["failed"] == 0,
               f"{section} run not correct: {result['problems']}")
    expect(plain.get("failed_cell_ratio", (None, None))[1] == "ratio",
           "failed_cell_ratio not printed")
    first, second = (t[1]["metrics"] for t in traced)
    for count in REPEATED:
        expect(first[count]["value"] == second[count]["value"],
               f"traced {count} differs: {first[count]} vs {second[count]}")
    digests = set(plain_digests) | {d for t in traced for d in t[2]}
    expect(len(plain_digests) == 1 and len(digests) == 1,
           f"csv digests differ between untraced and traced runs: {digests}")
    for count, nonzero in EXERCISED[name].items():
        expect((first[count]["value"] > 0) == nonzero,
               f"{count} = {first[count]['value']}, expected "
               f"{'nonzero' if nonzero else 'zero'}")


def check_paperfig(failures: list[str]) -> None:
    """The tiny paperfig-d1 grid at seed 0 is `paperfig d1 0.2 --seeds 1`."""
    sys.path.insert(0, str(HERE))
    from workloads import TINY

    grid = next(g for g in TINY["solver-mix"].grids if g.name == "paperfig-d1")
    out = SCRATCH / "paperfig"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(grid.config(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("BB_THREADS", None)
    csvs = []
    for argv, name in ((["paperfig", "d1", "0.2", "--seeds", "1"], "paperfig_d1.csv"),
                       (["sweep", "--config", str(out / "config.json")], "sweep.csv")):
        done = subprocess.run(
            [sys.executable, "-m", "blockedbandits.cli", *argv, "--out-dir",
             str(out), "--quiet"],
            capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
        if done.returncode != 0:
            failures.append(f"{argv[0]} exited {done.returncode}: {done.stderr}")
            return
        csvs.append((out / name).read_bytes())
    if csvs[0] != csvs[1]:
        failures.append("paperfig-d1 grid does not reproduce paperfig d1")


def check_without_source(failures: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: the runner must fail, silently."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        bench["command"] + ["--workload", "policy-loop", "--seed", "0",
                            "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"without src/: exit {done.returncode}, "
                        f"stdout {done.stdout[-200:]!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in bench["workloads"]:
        check_workload(workload["name"], bench, failures)
    check_paperfig(failures)
    check_without_source(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
