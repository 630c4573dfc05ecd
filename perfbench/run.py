"""
The braidnf benchmark: one closed-loop client (each call waits for the
previous one) driving one workload in this process, from a seed.

    python3 perfbench/run.py --workload mixed-n64 --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the package from `src/`.
With `--trace 0` it times whole cycles of seeded calls, a fixed number
per workload scaled by `--seconds` / 10, at reference machine speed (see
speed.py), and reports the end-to-end metrics.  With `--trace 1` it runs
one cycle untraced and then traced (so every count repeats exactly for a
seed) and reports the per-layer metrics.  Either way every output is
checked against answers the benchmark builds itself (see answers.py), and
the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  Workloads, metrics and the
predictions they serve are described in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import layers
import speed
import words

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SUITES = ("gsb", "stop", "strands", "meet", "validity", "confluence")
LETTER_LAYERS = ("simple.transfer", "simple.is_normal", "perms.flip")


@dataclasses.dataclass(frozen=True)
class Workload:
    """Generator parameters of a workload; BENCHMARK.json says why each exists."""

    n: int
    lengths: tuple = ()  # one call of each kind per length in every cycle
    inverse_share: float = 0.0
    delta_share: float = 0.0
    kinds: tuple = ("normalize", "eq-equal", "eq-unequal")
    # Cycles in a run of --seconds 10: enough calls that a run's median and
    # tail repeat across seeds despite the spread of cost between words of
    # one length, and a count that puts the median's and the tail's ranks
    # inside a run of calls of one kind and length, not on the edge
    # between two.
    cycles: int = 1


WORKLOADS = {
    "mixed-n64": Workload(
        n=64,
        lengths=(64, 160, 256),
        inverse_share=0.5,
        cycles=6,
    ),
    "inverse-n4": Workload(
        n=4,
        lengths=(500, 2250, 4000),
        inverse_share=0.9,
        delta_share=0.02,
        cycles=3,
    ),
    "positive-n4": Workload(
        n=4,
        lengths=(500, 1125, 1750, 2375, 3000),
        kinds=("positive",),
        cycles=7,
    ),
    "verify-n4": Workload(
        n=4,
        kinds=SUITES + ("automaton",),
        cycles=4,
    ),
}


@dataclasses.dataclass
class Op:
    """One call of the closed loop, with what its check needs."""

    kind: str
    stratum: int  # index into Workload.lengths; -1 when the call has no letters
    argv: list = None  # cli.main arguments
    text: str = ""  # word text of a `positive` call
    tokens: list = None
    equal: bool = None  # known answer of an eq call
    letters: int = 0


def make_cycle(name: str, rng: random.Random) -> list:
    """One call of every kind at every length, in seeded order."""
    spec = WORKLOADS[name]
    ops = []
    if not spec.lengths:  # verify-n4: one cli.main call per suite, then the automaton
        seed = str(rng.randrange(2**31))
        for kind in spec.kinds:
            argv = ["verify", "--suite", kind, "--n", "4", "--seed", seed]
            ops.append(Op(kind, -1, ["automaton", "--n", "6"] if kind == "automaton" else argv))
        return ops
    for stratum, length in enumerate(spec.lengths):
        for kind in spec.kinds:
            if kind == "positive":
                tokens = words.positive_word(rng, spec.n, length)
                text = words.text(spec.n, tokens)
                ops.append(Op(kind, stratum, text=text, tokens=tokens, letters=length))
                continue
            tokens = words.signed_word(rng, spec.n, length, spec.inverse_share, spec.delta_share)
            if kind == "normalize":
                argv = ["normalize", words.text(spec.n, tokens)]
                ops.append(Op(kind, stratum, argv, tokens=tokens, letters=length))
            else:
                equal = kind == "eq-equal"
                other = words.eq_pair(rng, spec.n, tokens, equal)
                argv = ["eq", words.text(spec.n, tokens), words.text(spec.n, other)]
                ops.append(Op(kind, stratum, argv, equal=equal, letters=length + len(other)))
    rng.shuffle(ops)
    return ops


def warmup_op(name: str) -> Op:
    """A small call of the workload's kind, the same for every seed."""
    spec = WORKLOADS[name]
    rng = random.Random("warm-up")
    if name == "verify-n4":
        return Op("validity", -1, ["verify", "--suite", "validity", "--n", "4"])
    if spec.kinds == ("positive",):
        return Op("positive", 0, text=words.text(spec.n, words.positive_word(rng, spec.n, 200)))
    tokens = words.signed_word(rng, spec.n, 32, spec.inverse_share, spec.delta_share)
    return Op("normalize", 0, ["normalize", words.text(spec.n, tokens)])


def _call_code(op: Op) -> str:
    if op.kind == "positive":
        word = f"textio.word_to_simple_letters(textio.parse_word({op.text!r}))"
        return f"normalform.normalize_positive({word})"
    return f"cli.main({op.argv!r})"


_SETUP_PROBE = """\
import contextlib, io, sys, time
sys.path.insert(0, {here!r})
import speed
with speed.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, {src!r})
    from braidnf import cli, normalform, textio
    with contextlib.redirect_stdout(io.StringIO()):
        {call}
    wall = time.perf_counter() - t0
print(sampler.reference_seconds(wall))
"""


def measure_setup(name: str) -> float:
    """Median over fresh interpreters of: import braidnf, then one warm-up call (reference s)."""
    code = _SETUP_PROBE.format(here=str(HERE), src=str(SRC), call=_call_code(warmup_op(name)))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Calls and their checks


def execute(op: Op, pkg):
    """The timed call.  Module attributes are looked up at call time so traced bindings apply."""
    if op.kind == "positive":
        word = pkg.textio.word_to_simple_letters(pkg.textio.parse_word(op.text))
        return pkg.normalform.normalize_positive(word)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(op.argv)
    return code, out.getvalue()


def digest_of(op: Op, result) -> str:
    if op.kind == "positive" and not isinstance(result, BaseException):
        return repr([f.perm for f in result.factors])
    return repr(result)


def check(op: Op, result, pkg, n: int, counts: dict) -> list:
    """Errors in one call's result; the empty list accepts it."""
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    if op.kind == "positive":
        factors = [f.perm for f in result.factors]
        errors = answers.form_errors(n, op.tokens, 0, factors, group=False)
        word = pkg.textio.word_to_simple_letters(pkg.textio.parse_word(op.text))
        twin = pkg.normalform.gs_rewrite_to_fixpoint(word, "rightmost")
        if [f.perm for f in twin.factors] != factors:
            errors.append("differs from gs_rewrite_to_fixpoint(..., 'rightmost')")
        return errors
    code, out = result
    if op.kind == "normalize":
        parsed = answers.parse_form_text(out) if code == 0 else None
        if parsed is None:
            return [f"exit {code}, output {out[:80]!r}"]
        return answers.form_errors(n, op.tokens, parsed[0], parsed[1], group=True)
    if op.kind.startswith("eq"):
        want = (0, "equal\n") if op.equal else (1, "not-equal\n")
        return [] if (code, out) == want else [f"eq answered {(code, out)}, expected {want}"]
    if code != 0:
        return [f"{op.kind}: exit {code}"]
    if op.kind == "automaton":
        return answers.automaton_errors(6, out)
    return answers.verify_report_errors(op.kind, out, counts)


@dataclasses.dataclass
class Call:
    op: Op
    result: object  # what the call returned, or the exception it raised
    wall: float  # seconds, speed probes included
    ref: float  # seconds at reference machine speed (see speed.py)


def run_ops(ops, pkg) -> list:
    """Run calls back to back, sampling machine speed during each."""
    done = []
    for op in ops:
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                result = execute(op, pkg)
            except Exception as exc:  # a crash is a failed call, not a benchmark crash
                result = exc
            wall = time.perf_counter() - t0
        done.append(Call(op, result, wall, sampler.reference_seconds(wall)))
    return done


def judge(name: str, done, pkg, counts: dict):
    """Check every result outside the timed region; returns (failed, digest, first errors)."""
    n = WORKLOADS[name].n
    failed = 0
    messages = []
    digest = hashlib.sha256()
    for call in done:
        errors = check(call.op, call.result, pkg, n, counts)
        if errors:
            failed += 1
            messages.append(f"{call.op.kind} (stratum {call.op.stratum}): {errors[0]}")
        digest.update(digest_of(call.op, call.result).encode())
    return failed, digest.hexdigest(), messages


def work_of(op: Op) -> int:
    """Letters normalised by a call, or oracle cases checked by a gating suite."""
    return answers.VERIFY_CASES.get(op.kind, op.letters)


# ---------------------------------------------------------------------------
# Modes


def measure(name: str, seed: int, seconds: float, pkg):
    """
    Whole cycles, a number that depends only on the workload and `seconds`,
    so that two versions of the package run the same calls and their
    percentiles are taken over the same number of samples.
    """
    rng = random.Random(f"{name}:{seed}")
    cycles = max(1, round(WORKLOADS[name].cycles * seconds / 10))
    done = []
    for _ in range(cycles):
        done += run_ops(make_cycle(name, rng), pkg)
    failed, _digest, messages = judge(name, done, pkg, {})
    busy = sum(call.ref for call in done)
    wall = sum(call.wall for call in done)
    latencies = sorted(call.ref for call in done)
    n_calls = len(latencies)
    beyond = 10 if n_calls >= 11 else 0  # the highest percentile with ten samples beyond it
    tail, pct = latencies[n_calls - 1 - beyond], 100.0 * (n_calls - beyond) / n_calls
    work = sum(work_of(call.op) for call in done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "work_per_s": (work / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    work_name, work_unit = ("letters_per_s", "letters/s")
    if name == "verify-n4":
        work_name, work_unit = ("verify_cases_per_s", "cases/s")
    report = [
        f"calls {n_calls} in {cycles} cycles: {busy:.3f} s at reference speed, {wall:.3f} s wall",
        f"{work_name} {work / busy:.6g} {work_unit} (work_per_s)",
        f"op_p50_ms {metrics['op_p50_ms'][0]:.6g} ms",
        f"op_tail_ms {tail * 1000:.6g} ms at p{pct:.1f} ({n_calls} samples, {beyond} beyond)",
        f"peak_rss_mb {rss_mb:.6g} MB",
        f"failed_ops_ratio {failed / n_calls:.6g} ({failed}/{n_calls})",
    ]
    return n_calls, failed, messages, metrics, report


def trace(name: str, seed: int, pkg):
    rng = random.Random(f"{name}:{seed}")
    ops = make_cycle(name, rng)
    plain = run_ops(ops, pkg)
    tracer = layers.Tracer()
    traced, per_op = [], []
    tracer.install()
    try:
        for op in ops:
            before = tracer.calls()
            traced += run_ops([op], pkg)
            after = tracer.calls()
            per_op.append({layer: after[layer] - before[layer] for layer in after})
    finally:
        tracer.uninstall()
    failed, plain_digest, messages = judge(name, plain, pkg, {})
    counts = {}
    traced_failed, traced_digest, traced_messages = judge(name, traced, pkg, counts)
    failed += traced_failed
    messages += traced_messages
    if traced_digest != plain_digest:
        messages.append("traced outputs differ from untraced outputs")

    plain_ref = sum(call.ref for call in plain)
    traced_ref = sum(call.ref for call in traced)
    traced_wall = sum(call.wall for call in traced)
    calls = tracer.calls()
    self_s = tracer.self_times()
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")

    # exact per-letter counts over the whole cycle and its shortest and longest calls
    letters = sum(op.letters for op in ops)
    top = len(WORKLOADS[name].lengths) - 1
    for layer in LETTER_LAYERS:
        metrics[f"{layer}.per_letter"] = (calls[layer] / max(letters, 1), "count/letter")
        for label, stratum in (("short", 0), ("long", top)):
            picked = [k for k, op in enumerate(ops) if op.stratum == stratum and op.letters]
            n_letters = sum(ops[k].letters for k in picked)
            n_calls = sum(per_op[k].get(layer, 0) for k in picked)
            metrics[f"{layer}.per_letter_{label}"] = (n_calls / max(n_letters, 1), "count/letter")
    transfers = calls[layers.TRANSFER]
    metrics["simple.transfer.useful"] = (tracer.useful_transfers, "count")
    metrics["simple.transfer.useful_ratio"] = (
        tracer.useful_transfers / transfers if transfers else 0.0,
        "ratio",
    )
    for suite in SUITES + ("gsb-strict", "gsb-commuting"):
        if suite in SUITES:
            metrics[f"oracle.{suite}.cases"] = (counts.get(f"{suite}.cases", 0), "count")
        metrics[f"oracle.{suite}.failures"] = (counts.get(f"{suite}.failures", 0), "count")
    covered = sum(self_s.values())
    metrics["trace.letters"] = (letters, "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_ref / plain_ref, "ratio")
    metrics["trace.covered_share"] = (covered / traced_wall, "ratio")
    metrics["layers.absent"] = (len(tracer.absent), "count")

    TRACE_DIR.mkdir(exist_ok=True)
    out_file = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    spans = [
        {"op": k, "kind": op.kind, "stratum": op.stratum, "letters": op.letters,
         "start_s": sum(call.wall for call in traced[:k]), "dur_s": traced[k].wall}
        for k, op in enumerate(ops)
    ]
    out_file.write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "output_digest": traced_digest,
                "absent": tracer.absent,
                "ops": spans,
                "paths": tracer.paths(),
            },
            indent=1,
        )
    )
    shares = sorted(((s / traced_wall, layer) for layer, s in self_s.items()), reverse=True)
    report = [
        f"calls {len(ops)} untraced + {len(ops)} traced, {letters} letters per pass",
        f"trace overhead {traced_ref:.3f} s traced / {plain_ref:.3f} s untraced at reference speed"
        f" = {traced_ref / plain_ref:.2f}x",
        f"listed layers' self time covers {covered / traced_wall:.1%} of traced wall time",
        "self-time shares: " + ", ".join(f"{layer} {share:.1%}" for share, layer in shares[:6]),
        f"absent layers: {', '.join(tracer.absent) or 'none'}",
        f"output_digest {traced_digest}",
        f"trace written to {out_file.relative_to(ROOT)}",
    ]
    return 2 * len(ops), failed, messages, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidnf" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'braidnf'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidnf
    from braidnf import cli, normalform, textio

    if Path(braidnf.__file__).resolve().parent != SRC / "braidnf":
        print(f"error: imported braidnf from {braidnf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pkg = argparse.Namespace(cli=cli, normalform=normalform, textio=textio)

    setup_s = None if args.trace else measure_setup(args.workload)
    warm = run_ops([warmup_op(args.workload)], pkg)
    if isinstance(warm[0].result, BaseException):
        print(f"error: warm-up call raised {warm[0].result!r}", file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, messages, metrics, report = trace(args.workload, args.seed, pkg)
    else:
        attempted, failed, messages, metrics, report = measure(
            args.workload, args.seed, args.seconds, pkg
        )
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        report.insert(0, f"setup_s {setup_s:.6g} s (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report + messages[:20]:
        print(line)
    print(
        json.dumps(
            {
                "correct": not messages,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
