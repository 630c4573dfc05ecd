import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf import cli, oracle
from braidnf.cli import main
from braidnf.textio import MAX_LETTERS, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "n=3; 1 2 1")
    assert code == 0 and out == "D^1 :\n"
    code, out, _ = run_cli(capsys, "normalize", "n=3;")
    assert code == 0 and out == "D^0 :\n"
    code, out, _ = run_cli(capsys, "normalize", "n=3; 1 -1")
    assert code == 0 and out == "D^0 :\n"


def test_normalize_json(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--json", "n=3; 1 2")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"n": 3, "delta_power": 0, "factors": [[3, 1, 2]]}


def test_normalize_parse_error(capsys):
    code, out, err = run_cli(capsys, "normalize", "n=3; 7")
    assert code == 2 and out == "" and "error:" in err


MALFORMED_WORDS = [
    # missing header
    ("1 2 1", "missing 'n=<int>;' header"),
    ("n=3 1", "missing 'n=<int>;' header"),
    # bad header, including other scripts' digits and NBSP
    ("m=3; 1", "bad header 'm=3'; expected 'n=<int>;'"),
    ("n=\u0663; 1 2", "bad header 'n=\u0663'; expected 'n=<int>;'"),
    ("n\u00a0=3; 1", "bad header 'n\\xa0=3'; expected 'n=<int>;'"),
    # strand count
    ("n=0;", "strand count 0 out of range 1..1024"),
    ("n=1025;", "strand count 1025 out of range 1..1024"),
    # body characters
    ("n=3; \u0661 \u0662", "bad character '\u0661' in word"),
    ("n=12; 1_0", "bad character '_' in word"),
    ("n=3; 1\u00a02", "bad character '\\xa0' in word"),
    # bad tokens
    ("n=3; x", "bad token 'x'"),
    ("n=3; --D", "bad token '--D'"),
    # index zero
    ("n=3; 0", "generator index 0 is not allowed"),
    ("n=3; -0", "generator index 0 is not allowed"),
    # index out of range
    ("n=3; 3", "generator index 3 out of range 1..2"),
    ("n=3; -3", "generator index 3 out of range 1..2"),
    ("n=1; 1", "generator index 1 out of range 1..0"),
    # runs past int()'s 4,300 digits: significant ones are out of range
    pytest.param(
        "n=" + "9" * 4301 + ";", f"strand count {'9' * 4301} out of range 1..1024", id="long-count"
    ),
    pytest.param(
        "n=3; -00" + "9" * 4301, f"generator index {'9' * 4301} out of range 1..2", id="long-index"
    ),
    # word length, checked before any token
    pytest.param(
        "n=3; " + "1 " * (MAX_LETTERS + 1), "word has more than 1000000 tokens", id="too-long"
    ),
]


@pytest.mark.parametrize("text,message", MALFORMED_WORDS)
def test_malformed_word_error_lines(capsys, text, message):
    assert run_cli(capsys, "normalize", text) == (2, "", f"error: {message}\n")


def test_leading_zeros_of_any_length_read_as_unpadded(capsys):
    zeros = "0" * 5000
    for padded, plain in [
        (("normalize", f"n=3; {zeros}1 2"), ("normalize", "n=3; 1 2")),
        (("normalize", f"n={zeros}3; 1 2"), ("normalize", "n=3; 1 2")),
        (("transfer", f"[{zeros}2 1]", "[1 2]"), ("transfer", "[2 1]", "[1 2]")),
    ]:
        assert run_cli(capsys, *padded) == run_cli(capsys, *plain)
    assert run_cli(capsys, "normalize", f"n=3; {zeros}1 2")[:2] == (0, "D^0 : [3 1 2]\n")


def test_word_at_the_letter_limit_parses():
    assert MAX_LETTERS == 1_000_000
    word = parse_word("n=3; " + "-1 D " * (MAX_LETTERS // 2) + "\n")
    assert len(word.symbols) == MAX_LETTERS and word.symbols[-2:] == (-1, 3)


def test_render_inverse_token_error_line(capsys):
    assert run_cli(capsys, "render", "n=3; 1 -2") == (
        2, "", "error: word contains an inverse token; only positive words lift letterwise\n",
    )


def test_normalize_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=3; 2 1 2"))
    code, out, _ = run_cli(capsys, "normalize", "-")
    assert code == 0 and out == "D^1 :\n"


def test_eq(capsys):
    code, out, _ = run_cli(capsys, "eq", "n=3; 1 2 1", "n=3; 2 1 2")
    assert code == 0 and out == "equal\n"
    code, out, _ = run_cli(capsys, "eq", "n=4; 1 3", "n=4; 3 1")
    assert code == 0 and out == "equal\n"
    code, out, _ = run_cli(capsys, "eq", "n=3; 1", "n=3; 2")
    assert code == 1 and out == "not-equal\n"
    assert run_cli(capsys, "eq", "n=3; 1", "n=4; 1") == (2, "", "error: words on 3 and 4 strands\n")


def test_eq_reads_standard_input_once(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=3; 1 2 1"))
    assert run_cli(capsys, "eq", "-", "-") == (
        2, "", "error: standard input can supply only one word\n"
    )
    code, out, _ = run_cli(capsys, "eq", "-", "n=3; 2 1 2")
    assert code == 0 and out == "equal\n"


def test_transfer(capsys):
    code, out, _ = run_cli(capsys, "transfer", "[3 1 7 8 4 5 2 6]", "[5 2 6 7 8 1 4 3]")
    assert code == 0
    assert out.splitlines() == [
        "x=[2 7 1 3 4 8 5 6]",
        "head=[1 2 5 6 3 4 7 8]",
        "tail=[6 5 7 8 4 3 2 1]",
    ]
    code, out, _ = run_cli(capsys, "transfer", "[3 5 4 2 6 1]", "[5 3 6 1 4 2]")
    assert out.splitlines() == [
        "x=[2 4 1 5 3 6]",
        "head=[1 3 5 4 6 2]",
        "tail=[6 5 4 3 1 2]",
    ]
    # a normal pair transfers nothing
    code, out, _ = run_cli(capsys, "transfer", "[2 1 3]", "[2 1 3]")
    assert out.splitlines()[0] == "x=[1 2 3]"
    code, _, err = run_cli(capsys, "transfer", "[2 1]", "[1 1]")
    assert code == 2 and "error:" in err
    assert run_cli(capsys, "transfer", "[2 1]", "[1 3 2]") == (
        2, "", "error: braids on 2 and 3 strands\n"
    )
    assert run_cli(capsys, "transfer", "[]", "[1]") == (2, "", "error: need at least one strand\n")


def test_verify_validity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "validity", "--n", "4")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["suite"] == "validity" and payload["failure_count"] == 0
    assert payload["cases"] == 64


def test_verify_gsb_has_diagnostics(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gsb", "--n", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    suites = {l["suite"] for l in lines}
    assert suites == {"gsb", "gsb-commuting-diagnostic", "gsb-strict"}
    gating = [l for l in lines if not l.get("diagnostic")]
    assert all(l["failure_count"] == 0 for l in gating)
    strict = next(l for l in lines if l["suite"] == "gsb-strict")
    assert strict["diagnostic"]
    assert (strict["cases"], strict["failure_count"]) == (36, 6)
    commuting = next(l for l in lines if l["suite"] == "gsb-commuting-diagnostic")
    assert commuting["diagnostic"] and commuting["cases"] == 36


@pytest.mark.parametrize("sizes", [("--n", "3"), ("--n", "3", "--samples", "40")])
def test_verify_gsb_fills_one_pair_table(capsys, monkeypatch, sizes):
    # the three sweeps of the suite share one pair table and one fill, so a
    # pair is transferred once per command; each report still lists the one
    # broken pair, byte for byte as a call of its own reports it
    real = oracle._transfer_words
    victim, calls = (2, 3, 1), collections.Counter()

    def swapped(a, b):
        calls[a, b] += 1
        head, tail = real(a, b)
        return (tail, head) if a == b == victim else (head, tail)

    monkeypatch.setattr(oracle, "_transfer_words", swapped)
    samples = int(sizes[-1]) if "--samples" in sizes else None
    alone = [oracle.verify_commuting(3), oracle.verify_gsb_strict(3), oracle.verify_gsb(3, samples)]
    calls.clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "gsb", *sizes)
    assert code == 1 and out.splitlines() == [report.to_json() for report in alone]
    assert len(calls) == 36 and set(calls.values()) == {1}
    for line in out.splitlines():
        assert ["crossing-conservation", list(victim), list(victim)] in json.loads(line)["failures"]


def test_verify_all_fills_s_n_once_per_strand_count(capsys, monkeypatch):
    # gsb's three row sweeps and stop's run at n = 3 under --all: one fill
    fills, dense = [], oracle._dense

    def counted(n):
        fills.append(n)
        return dense(n)

    monkeypatch.setattr(oracle, "_dense", counted)
    code, _, _ = run_cli(capsys, "verify", "--all", "--n", "3")
    assert code == 0 and fills == [3]


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--n", "3", "--samples", "100")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    gating = {l["suite"] for l in lines if not l.get("diagnostic")}
    assert gating == {"gsb", "stop", "strands", "meet", "validity", "confluence"}
    assert all(l["failure_count"] == 0 for l in lines if not l.get("diagnostic"))
    # past every bound, --all runs each suite at its largest size
    code, out, _ = run_cli(capsys, "verify", "--all", "--n", "9", "--samples", "20")
    assert code == 0
    sizes = {l["suite"]: l["n"] for l in map(json.loads, out.splitlines())}
    assert sizes == {
        "gsb-commuting-diagnostic": 4, "gsb-strict": 4, "gsb": 4, "stop": 4,
        "strands": 4, "meet": 5, "validity": 5, "confluence": 6,
    }


def test_verify_all_samples_only_where_a_suite_samples(capsys):
    # gsb samples triples and still runs every pair at n <= 5, stop samples
    # triples, meet pairs and confluence words; strands, validity and the
    # two diagnostics stay exhaustive
    code, out, _ = run_cli(capsys, "verify", "--all", "--n", "3", "--samples", "5")
    assert code == 0
    cases = {l["suite"]: l["cases"] for l in map(json.loads, out.splitlines())}
    assert cases == {
        "gsb-commuting-diagnostic": 36, "gsb-strict": 36, "gsb": 41, "stop": 5,
        "strands": 51, "meet": 5, "validity": 8, "confluence": 5,
    }


SWEEPS = [
    "verify_gsb", "verify_commuting", "verify_gsb_strict", "verify_stop",
    "verify_strand_lemma", "verify_meet", "verify_validity", "verify_confluence",
]


def count_calls(monkeypatch, names):
    """Wrap names of the cli module, as the benchmark's tracer does; counts calls per name."""
    calls = collections.Counter()
    for name in names:
        real = getattr(cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_a_wrapper_set_on_cli_is_what_the_command_calls(capsys, monkeypatch):
    calls = count_calls(monkeypatch, ["verify_validity", "verify_confluence", "build"])
    code, out, _ = run_cli(capsys, "verify", "--suite", "validity", "--n", "3")
    assert code == 0 and json.loads(out)["suite"] == "validity"
    # the confluence suite is called with keyword arguments
    code, out, _ = run_cli(capsys, "verify", "--suite", "confluence", "--n", "3", "--samples", "2")
    assert code == 0 and json.loads(out)["suite"] == "confluence"
    code, out, _ = run_cli(capsys, "automaton", "--n", "3")
    assert code == 0 and out.startswith("digraph braid_automaton_n3 {")
    assert calls == {"verify_validity": 1, "verify_confluence": 1, "build": 1}
    # commands are looked up by name on each call, so a wrapper set after
    # the parser exists is still what runs
    assert run_cli(capsys, "eq", "n=3; 1 2 1", "n=3; 2 1 2") == (0, "equal\n", "")
    commands = count_calls(monkeypatch, ["_cmd_eq"])
    assert run_cli(capsys, "eq", "n=3; 1 2 1", "n=3; 2 1 2") == (0, "equal\n", "")
    assert commands == {"_cmd_eq": 1}


def test_verify_all_refuses_one_strand_before_any_sweep(capsys, monkeypatch):
    calls = count_calls(monkeypatch, SWEEPS)
    code, out, err = run_cli(capsys, "verify", "--all", "--n", "1")
    assert (code, out, err) == (2, "", "error: confluence sweep is sized for 2 <= n <= 6, got 1\n")
    assert not calls
    # the first suite's own refusals keep their order and messages
    for argv, message in [
        (["--n", "1", "--samples", "0"], "samples must be at least 1, got 0"),
        (["--n", "0"], "need at least one strand"),
        (["--n", "-3", "--samples", "0"], "samples must be at least 1, got 0"),
    ]:
        code, out, err = run_cli(capsys, "verify", "--all", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_verify_requires_a_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("flags", [["--all", "--suite", "meet"], ["--suite", "meet", "--all"]])
def test_verify_refuses_a_suite_with_all(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags, "--n", "3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "not allowed with argument" in err


def test_sampled_suites_draw_without_listing_s_n(capsys, monkeypatch):
    # S_12 has 479 million elements: listing it would exhaust memory, so any
    # listing above the exhaustive diagnostics' five strands fails the test
    listing = oracle.all_permutations

    def small_listing(n):
        assert n <= 5, f"listed S_{n}"
        return listing(n)

    monkeypatch.setattr(oracle, "all_permutations", small_listing)
    for suite, cases in (("gsb", 6), ("stop", 3)):
        argv = ["verify", "--suite", suite, "--samples", "3", "--n"]
        code, out, _ = run_cli(capsys, *argv, "12")
        gating = [l for l in map(json.loads, out.splitlines()) if not l.get("diagnostic")]
        assert code == 0 and [(l["n"], l["cases"]) for l in gating] == [(12, cases)]
        # past the strand limit: a usage error before any report or sample
        code, out, err = run_cli(capsys, *argv, "1025")
        assert (code, out) == (2, "")
        assert err == "error: sampled triples need n <= 1024, got 1025\n"


def test_verify_meet_sampled(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "meet", "--n", "6", "--samples", "200", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out.strip())["failure_count"] == 0


def test_verify_meet_sampled_output_is_pinned(capsys):
    # the seeded sample of S_7 and the report, as printed before the sweep
    # read S_n from the weak-order table
    code, out, _ = run_cli(capsys, "verify", "--suite", "meet", "--n", "7", "--samples", "200")
    assert code == 0
    digest = "00787bf34d276f66757fdad31550852ad76d8c1142f0af5fc40327d032db6655"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_bounds_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "strands", "--n", "4")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--suite", "strands", "--n", "7")
    assert code == 2 and "error:" in err
    code, out, err = run_cli(capsys, "verify", "--suite", "meet", "--n", "9")
    assert code == 2 and out == ""
    assert err == "error: enumeration of S_9 is too large; need n <= 7\n"
    code, out, err = run_cli(capsys, "verify", "--suite", "confluence", "--n", "7")
    assert code == 2 and out == "" and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all"])
    assert exc.value.code == 2


def test_verify_rejects_bad_arguments(capsys):
    # each refusal is pinned as the whole error line
    for argv, message in [
        (["--suite", "meet", "--n", "6", "--samples", "-3"], "samples must be at least 1, got -3"),
        (["--suite", "gsb", "--n", "6", "--samples", "-2"], "samples must be at least 1, got -2"),
        (["--suite", "gsb", "--samples", "0"], "samples must be at least 1, got 0"),
        (["--suite", "confluence", "--samples", "0"], "samples must be at least 1, got 0"),
        (["--all", "--n", "1", "--samples", "0"], "samples must be at least 1, got 0"),
        (["--suite", "confluence", "--length", "-5"], "length must be at least 0, got -5"),
        (["--suite", "meet", "--n", "4", "--length", "-3"], "length must be at least 0, got -3"),
        (["--all", "--length", "-1"], "length must be at least 0, got -1"),
        (["--suite", "meet", "--length", "5"], "--length: suite meet draws no words"),
        (["--suite", "gsb", "--length", "20"], "--length: suite gsb draws no words"),
        (["--suite", "confluence", "--n", "1"], "confluence sweep is sized for 2 <= n <= 6, got 1"),
        (["--suite", "gsb", "--n", "0"], "need at least one strand"),
        (["--suite", "stop", "--n", "0"], "need at least one strand"),
        (["--suite", "stop", "--n", "-2"], "need at least one strand"),
        (["--suite", "strands", "--n", "-1"], "need at least one strand"),
        (["--all", "--length", "1000001"], "length must be at most 1000000, got 1000001"),
        (
            ["--suite", "confluence", "--length", "1000001"],
            "length must be at most 1000000, got 1000001",
        ),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_broken_pipe_exits_quietly():
    # about 820 KB of output, many times the 64 KiB pipe buffer, so the early
    # close always leaves a write to fail; the first bytes are read in a
    # thread with a deadline, so that a slow engine fails the test instead
    # of stalling the suite
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidnf", "normalize", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdin.write(("n=16; " + " 1" * 20000).encode())
    proc.stdin.close()
    first = []
    reader = threading.Thread(target=lambda: first.append(proc.stdout.read(100)), daemon=True)
    reader.start()
    reader.join(timeout=60)
    if reader.is_alive():
        proc.kill()
        pytest.fail("normalize wrote nothing within 60 s")
    assert first[0].startswith(b"D^0 : [2 1 3 4")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_verify_exhaustive_suites_reject_samples(capsys):
    for suite in ("strands", "validity"):
        for samples in ("-3", "5"):
            argv = ["--suite", suite, "--n", "3", "--samples", samples]
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: --samples") and "exhaustive" in err, argv
        # the seed is accepted: the benchmark passes it to every suite
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "3", "--seed", "7")
        assert code == 0 and json.loads(out)["suite"] == suite


def test_automaton_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "automaton", "--n", "3", "--dot", "-")
    assert code == 0
    assert out.startswith("digraph braid_automaton_n3 {")
    assert out.count("->") == 12
    path = tmp_path / "graph.dot"
    code, _, _ = run_cli(capsys, "automaton", "--n", "3", "--dot", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out
    unwritable = str(tmp_path / "missing" / "g.dot")
    code, out, err = run_cli(capsys, "automaton", "--n", "3", "--dot", unwritable)
    assert code == 2 and out == "" and "error:" in err
    code, _, err = run_cli(capsys, "automaton", "--n", "12")
    assert code == 2 and "error:" in err


def test_render(capsys):
    code, out, _ = run_cli(capsys, "render", "n=2; 1", "--ascii")
    assert code == 0 and out.count("\\") == 2
    code, out2, _ = run_cli(capsys, "render", "n=2; 1", "--svg")
    assert code == 0 and out2.startswith("<svg ")
    code, _, err = run_cli(capsys, "render", "n=3; -1")
    assert code == 2 and "error:" in err


def test_render_drawing_bound(capsys):
    # n=1024 would be some 6 GB of ASCII or 50 GB of SVG; it is refused at once
    for flags in ([], ["--svg"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "render", "n=1024; D", *flags)
        assert time.perf_counter() - start < 1, flags
        assert (code, out) == (2, ""), flags
        assert err == "error: drawing of 536347648 cells (rows x strands) over 262144\n"
    code, out, err = run_cli(capsys, "render", "n=64; D")
    assert (code, len(out), err) == (0, 1_536_696, "")
    code, out, err = run_cli(capsys, "render", "n=64; D", "--svg")
    assert (code, len(out), err) == (0, 12_950_374, "")


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "6", "--len", "300", "--seed", "42")
    assert code == 0
    assert out.startswith("n=6 letters=300 seed=42 ")
    assert "letters/s" in out


def test_bench_rejects_bad_arguments(capsys):
    for argv, message in [
        (["--n", "1"], "--n must be at least 2, got 1"),
        (["--n", "0"], "--n must be at least 2, got 0"),
        (["--n", "1025"], "--n must be at most 1024, got 1025"),
        (["--len", "0"], "--len must be at least 1, got 0"),
        (["--len", "-1"], "--len must be at least 1, got -1"),
        (["--n", "1", "--len", "0"], "--n must be at least 2, got 1"),
    ]:
        code, out, err = run_cli(capsys, "bench", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    code, out, _ = run_cli(capsys, "bench", "--n", "2", "--len", "1")
    assert code == 0 and out.startswith("n=2 letters=1 ")
    code, out, err = run_cli(capsys, "bench", "--len", "1000001")
    assert code == 2 and out == "" and err == "error: --len must be at most 1000000, got 1000001\n"


def test_strand_limit_is_a_usage_error(capsys):
    # without the limit, this header overflowed range() while building the
    # half twist and left with a traceback and exit code 1, "not equal"
    for argv in (
        ["normalize", "n=99999999999999999999999; 1"],
        ["eq", "n=1025; 1", "n=1025; 1"],
        ["render", "n=1025; 1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: strand count") and "1..1024" in err, argv
        assert err.count("\n") == 1, argv
    code, out, err = run_cli(capsys, "bench", "--n", "1025", "--len", "1")
    assert code == 2 and out == "" and err.startswith("error: --n must be at most 1024")
    code, out, _ = run_cli(capsys, "normalize", "n=1024; 1023")
    assert code == 0 and out.startswith("D^0 : [1 2 3 ")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "normalize_group", broken)
    code, out, err = run_cli(capsys, "normalize", "n=3; 1")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_determinism(capsys):
    first = run_cli(capsys, "normalize", "n=5; 1 2 3 4 1 2 3 1 -2")
    second = run_cli(capsys, "normalize", "n=5; 1 2 3 4 1 2 3 1 -2")
    assert first == second
    d1 = run_cli(capsys, "automaton", "--n", "4", "--dot", "-")
    d2 = run_cli(capsys, "automaton", "--n", "4", "--dot", "-")
    assert d1 == d2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    per_call = []
    for argv, code in [
        (["normalize", "n=3; 1 2"], 0),
        (["eq", "n=3; 1 2 1", "n=3; 2 1 2"], 0),
        (["verify", "--suite", "validity", "--n", "3"], 0),
        (["normalize"], 2),  # an argparse usage error
        (["normalize", "n=3; 1 2"], 0),
    ]:
        before = len(built)
        assert exit_code(argv) == code, argv
        per_call.append(len(built) - before)
    capsys.readouterr()
    # the first call builds the parser unless an earlier test already did
    assert per_call[1:] == [0, 0, 0, 0], per_call


def test_calls_do_not_leak_state_through_the_shared_parser(capsys, monkeypatch):
    first = run_cli(capsys, "normalize", "n=3; 1 2")
    assert first == (0, "D^0 : [3 1 2]\n", "")
    code, out, _ = run_cli(capsys, "normalize", "--json", "n=3; 1 2")
    assert code == 0 and json.loads(out)["factors"] == [[3, 1, 2]]
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--frobnicate", "n=3; 1 2"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "normalize", "n=3; 7")
    assert code == 2 and out == "" and err.startswith("error:")

    def broken(word):
        raise RuntimeError("boom")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "normalize_group", broken)
        assert run_cli(capsys, "normalize", "n=3; 1") == (
            3, "", "internal error: RuntimeError: boom\n"
        )
    assert run_cli(capsys, "normalize", "n=3; 1 2") == first
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: braidnf normalize")


# The command-line property's own budget: about 1 s of tier-1.
CLI_BUDGET = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _good_or_bad(good, bad):
    """A value drawn from good twice as often as from bad."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


_WORD_TEXTS = st.one_of(
    st.just("-"),  # standard input, which reads "n=3; 1 2"
    st.builds(
        "{} {}".format,
        _good_or_bad(["n=2;", "n=3;", " n = 4 ;"], ["n=0;", "n=1;", "n=1025;", "m=3;", "n=x;", "3"]),
        st.lists(
            _good_or_bad(["1", "2", "-1", "-2", "+1", "D", "-D"],
                         ["3", "0", "-0", "x", "--D", "1_0", "\x1c", "\u0661"]),
            max_size=8,
        ).map(" ".join),
    ),
)


def _permutation_texts(n):
    return st.permutations(range(1, n + 1)).map(lambda p: "[" + " ".join(map(str, p)) + "]")


_PERMUTATION_TEXTS = st.one_of(
    st.integers(1, 5).flatmap(_permutation_texts),
    st.sampled_from(["[]", "[1 1]", "[0 1]", "[2 3]", "[2 1", "[a]", "[1-2]", " [3 1 2] "]),
)
# a pair on one strand count, or two texts drawn apart
_PERMUTATION_PAIRS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.tuples(_permutation_texts(n), _permutation_texts(n))),
    st.tuples(_PERMUTATION_TEXTS, _PERMUTATION_TEXTS),
)


def _option(flag, good, bad):
    """Nothing, or the flag with a good or a bad value; "x" is not an int."""
    return st.one_of(st.just([]), _good_or_bad(good, bad).map(lambda v: [flag, str(v)]))


@st.composite
def _verify_argvs(draw):
    mode = draw(_good_or_bad([["--suite", s] for s in cli.ALL_SIZES] + [["--all"]],
                             [[], ["--suite", "nope"], ["--all", "--suite", "gsb"]]))
    # n <= 3; above that, only sizes refused before any sweep
    large = "--all" not in mode and draw(st.booleans())
    if large:
        n = draw(st.sampled_from([9, 50]))
        samples = draw(st.sampled_from([[], ["--samples", "0"], ["--samples", "-1"]]))
    else:
        n = draw(_good_or_bad([1, 2, 3], [-1, 0, "x"]))
        samples = draw(_option("--samples", [1, 3], [-1, 0]))
    return ["verify", *mode, "--n", str(n), *samples,
            *draw(_option("--length", [0, 4], [-1, 2_000_000])),
            *draw(_option("--seed", [0, -3], ["x"]))]


_ARGVS = st.one_of(
    st.builds(lambda flag, w: ["normalize", *flag, w], st.sampled_from([[], ["--json"]]), _WORD_TEXTS),
    st.builds(lambda a, b: ["eq", a, b], _WORD_TEXTS, _WORD_TEXTS),
    _PERMUTATION_PAIRS.map(lambda pair: ["transfer", *pair]),
    _verify_argvs(),
    st.builds(
        lambda n, dot: ["automaton", *n, *dot],
        _option("--n", [2, 3, 4], [-1, 0, 1, 9, "x"]),
        _option("--dot", ["-", "<tmp>/out.dot"], ["<tmp>/missing/out.dot"]),
    ),
    st.builds(
        lambda flags, w: ["render", *flags, w],
        _good_or_bad([[], ["--svg"], ["--ascii"]], [["--svg", "--ascii"]]),
        _WORD_TEXTS,
    ),
    st.builds(
        lambda n, length, seed: ["bench", *n, "--len", str(length), *seed],
        _option("--n", [2, 4, 16], [-1, 1, 2000, "x"]),
        _good_or_bad([1, 50], [-5, 0, 2_000_000, "x"]),
        _option("--seed", [0, -1], ["x"]),
    ),
    st.sampled_from([[], ["bogus"], ["eq", "n=3; 1"], ["normalize", "--bogus", "n=3;"]]),
)


@CLI_BUDGET
@given(_ARGVS)
def test_every_command_line_keeps_the_exit_code_contract(argv):
    """
    Exit code 0, 1 or 2 and no traceback for any command line; a usage
    error caught by main itself is one stderr line starting "error: ".
    argparse's own refusals exit through SystemExit(2).
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), mock.patch("sys.stdin", io.StringIO("n=3; 1 2")):
        try:
            code, by_main = main([arg.replace("<tmp>", tmp) for arg in argv]), True
        except SystemExit as exc:
            code, by_main = exc.code, False
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
    if code == 2 and by_main:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
