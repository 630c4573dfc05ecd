"""
Determinism check of the benchmark itself.

    python3 perfbench/determinism.py [--seed 1] [--workload NAME ...]

For each workload, two traced runs with the same seed must report
identical exact counts (every `*.calls`, `*.per_letter*`, `*.cases`,
`*.failures`, `*.useful` and `trace.letters`) and identical output
digests, and a run with the next seed must pass every correctness gate.
Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

EXACT_SUFFIXES = (".calls", ".cases", ".failures", ".useful", "trace.letters")


def traced_run(workload: str, seed: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("output_digest "))
    exact = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(EXACT_SUFFIXES) or ".per_letter" in name
    }
    return result, digest, exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        first, digest1, exact1 = traced_run(workload, args.seed)
        _second, digest2, exact2 = traced_run(workload, args.seed)
        other, _digest, _exact = traced_run(workload, args.seed + 1)
        problems = [
            f"{name}: {exact1[name]} then {exact2.get(name)}"
            for name in exact1
            if exact1[name] != exact2.get(name)
        ]
        if digest1 != digest2:
            problems.append(f"output digest {digest1} then {digest2}")
        for seed, result in ((args.seed, first), (args.seed + 1, other)):
            if not result["correct"] or result["failed"]:
                problems.append(
                    f"seed {seed}: correct {result['correct']}, failed {result['failed']}"
                )
        ok = ok and not problems
        verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
        summary = f"{len(exact1)} exact counts, digest {digest1[:16]}"
        print(f"{workload}: {summary}: {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
