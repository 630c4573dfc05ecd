"""
Benchmark two commits in alternating pairs and write a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent e51c381 --change HEAD --first-seed 3210 \\
        --claim "what the change claims, or none" --out BENCH_pr32.json

Each commit is exported with `git archive` into a fresh directory, and every
run is

    PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S --seconds 10

from that directory, so neither side reads the other's files or a bytecode
cache.  Pair i uses seed first_seed + i on both sides and runs the parent
first when i is even, the change first when i is odd.  The workloads, the
run length (`run_seconds`), the end-to-end metrics and which way each is
better come from the change's BENCHMARK.json.  The file is rewritten
after every run, so an interrupted run keeps what it measured.  It reads
the commits of the repository it sits in; standard library and git only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

COMMAND = (
    "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py"
    " --workload <workload> --seed <seed> --seconds {seconds}"
)
ORDER = (
    "pair i runs the parent first when i is even, the change first when i is odd;"
    " both sides of a pair use the same seed"
)
QUARTILES = (
    "statistics.quantiles(parent runs, n=4, method='inclusive');"
    " a pair counts for the change only when strictly better"
)
SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Write the tree of rev into dest, an empty directory."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[int | None, dict | None]:
    """The exit code and the final JSON line of one benchmark run (None when absent)."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=30 * seconds + 300)
    except subprocess.TimeoutExpired:
        return None, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result if isinstance(result, dict) else None


def _value(run: dict, metric: str) -> float | None:
    try:
        return run["result"]["metrics"][metric]["value"]
    except (KeyError, TypeError):
        return None


def _failed(run: dict) -> bool:
    """A run fails when it exits non-zero, prints no result, or reports a wrong or failed call."""
    result = run["result"]
    return run["exit"] != 0 or result is None or not result.get("correct") or result["failed"] != 0


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The medians, summary and failed-run count of one workload's runs.

    better maps each end-to-end metric to "higher" or "lower".
    """
    medians, summary = {}, {}
    for metric, direction in better.items():
        values = {side: [v for r in runs if r["side"] == side
                         and (v := _value(r, metric)) is not None] for side in SIDES}
        if not values["parent"] or not values["change"]:
            continue
        parent, change = (statistics.median(values[side]) for side in SIDES)
        medians[metric] = {"parent": parent, "change": change}
        by_pair = {(r["pair"], r["side"]): _value(r, metric) for r in runs}
        wins = 0
        for pair in {r["pair"] for r in runs}:
            p, c = by_pair.get((pair, "parent")), by_pair.get((pair, "change"))
            if p is not None and c is not None and (c > p if direction == "higher" else c < p):
                wins += 1
        if len(values["parent"]) > 1:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        else:
            q1 = q3 = parent
        summary[metric] = {
            "change_vs_parent": round((change - parent) / parent, 4),
            "change_better_pairs": wins,
            "parent_iqr": round(q3 - q1, 6),
            "parent_iqr_rel": round((q3 - q1) / parent, 4),
            "median_gap_exceeds_parent_iqr": abs(change - parent) > q3 - q1,
        }
    return {"medians": medians, "summary": summary,
            "failed_runs": sum(1 for r in runs if _failed(r))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("--parent", required=True, help="the commit the change is measured against")
    parser.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    parser.add_argument("--first-seed", type=int, required=True, help="pair i uses this seed + i")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default every one in BENCHMARK.json)")
    parser.add_argument("--claim", default="none", help="what the change claims, in one line")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {side: _git("rev-parse", "--short", rev).decode().strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    benchmark = json.loads(_git("show", f"{revs['change']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    report = {
        "what": f"Final JSON line of every perfbench/run.py run, {args.pairs} alternating"
                " parent/change pairs per workload",
        "command": COMMAND.format(seconds=seconds),
        "parent": revs["parent"],
        "order": ORDER,
        "machine": f"{os.cpu_count()}-core {platform.system()} machine,"
                   f" {platform.python_implementation()} {platform.python_version()};"
                   " times are rescaled to reference speed by perfbench/speed.py;"
                   " each side runs from its own fresh tree without a bytecode cache",
        "quartiles": QUARTILES,
        "claim": args.claim,
        "workloads": {},
    }
    seeds = [args.first_seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            export(revs[side], tree)
        for workload in workloads:
            runs: list[dict] = []
            for pair, seed in enumerate(seeds):
                first = SIDES[pair % 2]
                for side in (first, SIDES[1 - pair % 2]):
                    code, result = run_once(trees[side], workload, seed, seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, "first": first,
                                 "exit": code, "result": result})
                    print(f"{workload} pair {pair} seed {seed} {side}: exit {code}",
                          file=sys.stderr)
                    report["workloads"][workload] = {"seeds": seeds, **summarize(runs, better),
                                                     "runs": runs}
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(w["failed_runs"] for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
