import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import code_lines  # noqa: E402
import mutants  # noqa: E402


def bench_number(path):
    """k for a file BENCH_pr<k>.json, else -1."""
    digits = path.stem.removeprefix("BENCH_pr")
    return int(digits) if digits.isdigit() else -1


# tools/bench_pairs.py wrote every BENCH_pr<k>.json with k >= 30
BENCH_FILES = [
    path.name for path in sorted(ROOT.glob("BENCH_pr*.json"), key=bench_number)
    if bench_number(path) >= 30
]


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_pairs_summary_matches_the_checked_in_files(name):
    # each file was written with inclusive quartiles and strict pair wins
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    report = json.loads((ROOT / name).read_text())
    assert report["quartiles"] == bench_pairs.QUARTILES and report["order"] == bench_pairs.ORDER
    for workload, body in report["workloads"].items():
        assert list(body) == ["seeds", "medians", "summary", "failed_runs", "runs"], workload
        summary = bench_pairs.summarize(body["runs"], better)
        assert {"seeds": body["seeds"], **summary, "runs": body["runs"]} == body, workload


FIXTURE = '''"""
Module docstring,
over three lines.
"""
# a comment line

import os  # a trailing comment does not hide code


class Box:
    """Class docstring."""

    # an indented comment line
    def total(self):
        """
        Function docstring.
        """

        return (1 +
                2 +
                os.sep.count("/"))
'''


def test_code_lines_counts_code_tokens_outside_docstrings(tmp_path, capsys):
    # counted: the import, the class and def lines, and the three lines
    # of the return statement; docstrings, comments and blanks are not
    (tmp_path / "box.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text("# only a comment\n\n", encoding="utf-8")
    assert code_lines.code_lines(FIXTURE) == 6
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "box.py                6",
        "empty.py              0",
        "total                 6",
    ]


def test_mutants_reports_killed_survived_and_refused_mutants(tmp_path, capsys):
    # a fixture package whose one test, with a space in its id, catches a
    # wrong sign but never calls unused(); the tool copies the tree, so the
    # fixture stays unchanged
    (tmp_path / "calc.py").write_text(
        "def absolute(x):\n    return x if x >= 0 else -x\n\n\ndef unused():\n    return 1\n",
        encoding="utf-8",
    )
    (tmp_path / "test_calc.py").write_text(
        "import calc\nimport pytest\n\n\n@pytest.mark.parametrize('x', [-3], ids=['minus three'])\n"
        "def test_absolute(x):\n    assert calc.absolute(x) == 3\n",
        encoding="utf-8",
    )
    before = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    fixture = [
        mutants.Mutant("calc.py", "else -x", "else x", "absolute keeps the sign"),
        mutants.Mutant("calc.py", "return 1", "return 2", "unused returns 2"),
        mutants.Mutant("calc.py", "return", "yield", "found twice, so refused"),
    ]
    assert mutants.main(tmp_path, fixture) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["mutant"], r["status"]) for r in reports] == [
        (1, "killed"), (2, "survived"), (3, "refused"),
    ]
    assert reports[0]["killed_by"] == "test_calc.py::test_absolute[minus three]"
    assert reports[1]["killed_by"] is None
    assert reports[2]["reason"] == "text found 2 times"
    assert all(r["seconds"] >= 0 for r in reports[:2])
    assert sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir()) == before


def test_every_mutant_text_occurs_once():
    # the tool refuses a mutant whose text is not found exactly once, so a
    # change to the package that orphans one fails here instead
    found = [
        (mutant.breaks, (ROOT / mutant.module).read_text(encoding="utf-8").count(mutant.text))
        for mutant in mutants.MUTANTS
    ]
    assert found == [(mutant.breaks, 1) for mutant in mutants.MUTANTS]
