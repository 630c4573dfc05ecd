"""
Command-line interface.

One binary with subcommands: normalize and compare words, transfer
crossings between two simple braids, run the verification suites, export
the explicit automaton, render diagrams, and a normalisation benchmark.
Exit codes: 0 success (or "equal"), 1 semantic negative (not equal,
verification failures), 2 usage or parse errors, 3 an internal error (any
other exception, reported in one line), 141 (128 + SIGPIPE) when the
reader closes standard output early, with nothing on standard error.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time

from . import _lazy_getattr
from .normalform import equal, normalize_group, normalize_positive
from .simple import SimpleBraid, transfer
from .textio import (
    EXHAUSTIVE_MAX_STRANDS,
    MAX_LETTERS,
    MAX_STRANDS,
    ArtinWord,
    ParseError,
    _check_count,
    format_normal_form,
    format_permutation,
    parse_permutation,
    parse_word,
    render_diagram,
    word_to_simple_letters,
)

# The names of verify and automaton load when those commands first use
# them.  They stay attributes of this module, and the commands call them
# through it (_cli.name), so a wrapper set here is what runs.
_LAZY = dict.fromkeys(["build", "export_dot"], "automaton") | dict.fromkeys(
    ["_check_confluence_strands", "_one_fill", "verify_commuting", "verify_confluence",
     "verify_gsb", "verify_gsb_strict", "verify_meet", "verify_stop", "verify_strand_lemma",
     "verify_validity"],
    "oracle",
)
__getattr__ = _lazy_getattr(globals(), _LAZY)
_cli = sys.modules[__name__]


def _read_word_text(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _cmd_normalize(args) -> int:
    word = parse_word(_read_word_text(args.word))
    form = normalize_group(word)
    print(format_normal_form(form, "json" if args.json else "text"))
    return 0


def _cmd_eq(args) -> int:
    if args.word1 == args.word2 == "-":
        raise ParseError("standard input can supply only one word")
    w1 = parse_word(_read_word_text(args.word1))
    w2 = parse_word(_read_word_text(args.word2))
    if equal(w1, w2):
        print("equal")
        return 0
    print("not-equal")
    return 1


def _cmd_transfer(args) -> int:
    pa = parse_permutation(args.perm_a)
    pb = parse_permutation(args.perm_b)
    tr = transfer(SimpleBraid(pa), SimpleBraid(pb))
    print(f"x={format_permutation(tr.m)}")
    print(f"head={format_permutation(tr.head.perm)}")
    print(f"tail={format_permutation(tr.tail.perm)}")
    return 0


# The largest n each suite runs at under --all.
ALL_SIZES = {"gsb": 4, "stop": 4, "strands": 4, "meet": 5, "validity": 5, "confluence": 6}


def _suite_reports(suite: str, n: int, args) -> list:
    """The reports of one suite at n, in print order."""
    if suite == "gsb":
        gating = _cli.verify_gsb(n, args.samples, args.seed)  # first: it rejects large n unsampled
        small = min(n, EXHAUSTIVE_MAX_STRANDS)  # the diagnostics are exhaustive
        return [_cli.verify_commuting(small), _cli.verify_gsb_strict(small), gating]
    if suite == "stop":
        return [_cli.verify_stop(n, args.samples, args.seed)]
    if suite == "strands":
        return [_cli.verify_strand_lemma(n)]
    if suite == "meet":
        return [_cli.verify_meet(n, args.samples, args.seed)]
    if suite == "validity":
        return [_cli.verify_validity(n)]
    given = {"length": args.length, "samples": args.samples}  # unset: the oracle's defaults
    given = {name: value for name, value in given.items() if value is not None}
    return [_cli.verify_confluence(n, seed=args.seed, **given)]


def _cmd_verify(args) -> int:
    _check_count("length", args.length, 0, MAX_LETTERS)  # before any suite runs
    if args.all:
        runs = [(suite, min(args.n, size)) for suite, size in ALL_SIZES.items()]
        # before any sweep: the first check of gsb, the first suite, then
        # confluence's size, which refuses n = 1; gsb refuses n < 1 itself
        _check_count("samples", args.samples, 1)
        if args.n >= 1:
            _cli._check_confluence_strands(min(args.n, ALL_SIZES["confluence"]))
    elif args.suite:
        if args.suite in ("strands", "validity") and args.samples is not None:
            raise ParseError(f"--samples: suite {args.suite} is exhaustive")
        if args.suite != "confluence" and args.length is not None:
            raise ParseError(f"--length: suite {args.suite} draws no words")
        runs = [(args.suite, args.n)]
    else:
        raise ParseError("pass --suite <name> or --all")
    with _cli._one_fill():  # the row sweeps at one n share one pair table and its fill
        reports = [report for suite, n in runs for report in _suite_reports(suite, n, args)]
    for report in reports:
        print(report.to_json())
    return 0 if all(r.passed or r.diagnostic for r in reports) else 1


def _cmd_automaton(args) -> int:
    text = _cli.export_dot(_cli.build(args.n))
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.dot, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.dot!r}: {exc.strerror or exc}") from None
    return 0


def _cmd_render(args) -> int:
    word = parse_word(_read_word_text(args.word))
    positive = word_to_simple_letters(word)
    sys.stdout.write(render_diagram(positive, "svg" if args.svg else "ascii"))
    return 0


def _cmd_bench(args) -> int:
    _check_count("--n", args.n, 2, MAX_STRANDS)
    _check_count("--len", args.len, 1, MAX_LETTERS)
    rng = random.Random(args.seed)
    indices = [rng.randint(1, args.n - 1) for _ in range(args.len)]
    word = word_to_simple_letters(ArtinWord(args.n, tuple(indices)))
    start = time.perf_counter()
    form = normalize_positive(word)
    elapsed = time.perf_counter() - start
    rate = args.len / elapsed if elapsed > 0 else float("inf")
    print(
        f"n={args.n} letters={args.len} seed={args.seed} "
        f"factors={len(form.factors)} crossings={form.crossing_number()} "
        f"time={elapsed:.3f}s rate={rate:.0f} letters/s"
    )
    return 0


@functools.cache  # one parser per process, built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidnf",
        description="Greedy normal forms for braids in simple-braid generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical form of a signed word")
    p.add_argument("word", help="word text, or - to read standard input")
    p.add_argument("--json", action="store_true", help="emit the JSON form")

    p = sub.add_parser("eq", help="compare two words; exits 0 when equal, 1 when not")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("transfer", help="move the maximal tail between two simple braids")
    p.add_argument("perm_a", help="left factor in one-line notation, e.g. '[3 1 2]'")
    p.add_argument("perm_b", help="right factor in one-line notation")

    p = sub.add_parser("verify", help="run a verification suite; JSON-line reports")
    group = p.add_mutually_exclusive_group()  # not required: _cmd_verify refuses a bare verify
    group.add_argument("--suite", choices=list(ALL_SIZES))
    group.add_argument("--all", action="store_true", help="run every suite at safe sizes")
    p.add_argument("--n", type=int, default=4)
    p.add_argument(
        "--samples",
        type=int,
        help="sampled cases, at least 1: triples for gsb and stop, pairs for meet, words for"
        f" confluence; gsb's pairs at n <= {EXHAUSTIVE_MAX_STRANDS}, its diagnostics, strands and"
        " validity stay exhaustive",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--length", type=int, help="word length bound (confluence), default 20")

    p = sub.add_parser("automaton", help="build the explicit automaton and export DOT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", default="-", help="output path, - for standard output")

    p = sub.add_parser("render", help="draw a positive word")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--svg", action="store_true")
    group.add_argument("--ascii", action="store_true")

    p = sub.add_parser("bench", help="time the normalisation of a random positive word")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--len", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # by name, through the module: a wrapper set on cli is what runs
        return getattr(_cli, "_cmd_" + args.command)(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at /dev/null so that flushing it at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:  # a bug, not a verdict: keep it off exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
