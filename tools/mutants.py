"""
Score the test suite by mutants: small deliberate faults in the package,
each of which some test should catch.

    python tools/mutants.py

A mutant names a file of the tree (relative to its root), an exact text
in it, the text's replacement and one line on what the change breaks.
For each mutant the tree is copied into a fresh temporary directory
(without .git and the caches of Python, pytest and hypothesis), the text
is replaced there, and

    python -m pytest -x -q

runs in the copy, with the copy's src first on PYTHONPATH, under a
wall-clock timeout of TIMEOUT seconds: a mutant can make a test loop far
longer than the whole suite runs.  A mutant whose text is not found
exactly once is refused and not run.  Each mutant prints one JSON line: its status (killed,
survived, timeout or refused), the first failing test that killed it and
the seconds taken.  The exit status is 0 when every mutant was killed.
The working tree is only read.  Standard library only.
"""
from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT = 600
COMMAND = ("-m", "pytest", "-x", "-q")
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)  # a test id may hold spaces


class Mutant(NamedTuple):
    module: str  # a path relative to the tree's root
    text: str
    replacement: str
    breaks: str


MUTANTS = (
    Mutant(
        "src/braidnf/lattice.py",
        "        _check_strands(len(p))\n",
        "",
        "from_permutation(()) builds a set on zero strands instead of raising",
    ),
    Mutant(
        "src/braidnf/lattice.py",
        "    return InversionSet(r1.n, _interval_closed_fixpoint(",
        "    return InversionSet._trusted(r1.n, _interval_closed_fixpoint(",
        "meet returns a broken fixpoint's set unchecked",
    ),
    Mutant(
        "src/braidnf/lattice.py",
        "full_bits(r.n) ^ r.bits)",
        "full_bits(r.n) ^ r.bits ^ 1)",
        "complement gets the pair (1, 2) wrong",
    ),
    Mutant(
        "src/braidnf/normalform.py",
        "inverse = map(neg, islice(reversed(b), tail, len(b) - head))",
        "inverse = islice(reversed(b), tail, len(b) - head)",
        "equal reads R2 reversed but not negated as R2^-1",
    ),
    Mutant(
        "src/braidnf/normalform.py",
        "map(neg, islice(reversed(b), tail, len(b) - head))",
        "map(neg, islice(b, head, len(b) - tail))",
        "equal reads R2 negated but not reversed as R2^-1",
    ),
    Mutant(
        "src/braidnf/normalform.py",
        "return not form.delta_power and not form.factors",
        "return not form.delta_power",
        "equal calls R1 R2^-1 trivial when it has no half twist",
    ),
    Mutant(
        "src/braidnf/normalform.py",
        "return not form.delta_power and not form.factors",
        "return not form.factors",
        "equal calls R1 R2^-1 trivial when it has no simple factor",
    ),
    Mutant(
        "src/braidnf/textio.py",
        "if not 0 < abs(k) < n:",
        "if not 0 < abs(k) <= n:",
        "parse_word takes generator n on n strands",
    ),
)


def _run(tree: pathlib.Path) -> tuple[str, str | None]:
    """Run the suite in tree: (killed, survived or timeout; the first failing test)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, *COMMAND], cwd=tree, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.communicate()
        return "timeout", None
    if proc.returncode == 0:
        return "survived", None
    failed = _FAILED.search(out)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def score(root: pathlib.Path, mutant: Mutant) -> dict:
    """Apply one mutant to a copy of root, run the suite there and report."""
    report = {"module": mutant.module, "breaks": mutant.breaks}
    source = (root / mutant.module).read_text(encoding="utf-8")
    found = source.count(mutant.text)
    if found != 1:
        return {**report, "status": "refused", "reason": f"text found {found} times"}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=_IGNORE)
        (tree / mutant.module).write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        status, killer = _run(tree)
    seconds = round(time.perf_counter() - start, 1)
    return {**report, "status": status, "killed_by": killer, "seconds": seconds}


def main(root: pathlib.Path = ROOT, mutants: Sequence[Mutant] = MUTANTS) -> int:
    """Score every mutant of the tree at root, one JSON line each; 0 when all are killed."""
    statuses = []
    for number, mutant in enumerate(mutants, 1):
        report = {"mutant": number, **score(root, mutant)}
        statuses.append(report["status"])
        print(json.dumps(report), flush=True)
    return 0 if all(status == "killed" for status in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
