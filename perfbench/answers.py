"""
Answers the benchmark knows without asking the code under test.

A normal form is accepted when its factors are permutations, no factor is
trivial (nor, in the group form, the half twist), every adjacent pair is
left-weighted, and it has the input's exponent sum and permutation, both
computed here from the input tokens.  Permutations use the package's
one-line convention, products left to right: (p*q)(i) = q(p(i)).
"""
from __future__ import annotations

import json
import re

# Gating reports of `verify --suite <s> --n 4`, the sizes `verify --all --n 4` runs.
VERIFY_CASES = {
    "gsb": 14400,
    "stop": 13824,
    "strands": 1962,
    "meet": 576,
    "validity": 64,
    "confluence": 1000,
}


def half_twist_length(n: int) -> int:
    return n * (n - 1) // 2


def word_invariants(n: int, tokens: list[str]) -> tuple[int, tuple[int, ...]]:
    """Exponent sum and permutation of a signed word."""
    perm = list(range(1, n + 1))
    where = [v - 1 for v in range(n + 1)]  # where[v] = position of value v in perm
    expsum = 0
    for tok in tokens:
        if tok in ("D", "-D"):
            expsum += half_twist_length(n) * (1 if tok == "D" else -1)
            perm = [n + 1 - v for v in perm]
            for pos, v in enumerate(perm):
                where[v] = pos
            continue
        k = int(tok)
        expsum += 1 if k > 0 else -1
        i = abs(k)
        # right multiplication by s_i swaps the values i and i+1
        a, b = where[i], where[i + 1]
        perm[a], perm[b] = perm[b], perm[a]
        where[i], where[i + 1] = b, a
    return expsum, tuple(perm)


def _inversions(p) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def _left_weighted(a, b) -> bool:
    """No crossing at the bottom of a can slide into b: rdes(a) is inside ldes(b)."""
    pos = [0] * (len(a) + 1)
    for i, v in enumerate(a):
        pos[v] = i
    return all(b[i] > b[i + 1] for i in range(len(a) - 1) if pos[i + 1] > pos[i + 2])


def form_errors(n: int, tokens: list[str], delta_power: int, factors, group: bool) -> list[str]:
    """Why (delta_power, factors) is not the normal form of the word; empty when it may be."""
    ident = tuple(range(1, n + 1))
    top = tuple(range(n, 0, -1))
    errors = []
    for f in factors:
        if sorted(f) != list(ident):
            return [f"factor {f} is not a permutation of 1..{n}"]
        if f == ident or (group and n > 1 and f == top):
            errors.append(f"forbidden factor {f}")
    for a, b in zip(factors, factors[1:]):
        if not _left_weighted(a, b):
            errors.append(f"pair {a} {b} is not left-weighted")
            break
    expsum, perm = word_invariants(n, tokens)
    got_sum = delta_power * half_twist_length(n) + sum(_inversions(f) for f in factors)
    if got_sum != expsum:
        errors.append(f"exponent sum {got_sum}, expected {expsum}")
    got = top if delta_power % 2 else ident
    for f in factors:
        got = tuple(f[v - 1] for v in got)
    if got != perm:
        errors.append("permutation differs from the input's")
    return errors


_FORM = re.compile(r"^D\^(-?\d+) :((?: \[[\d ]+\])*)$")


def parse_form_text(out: str):
    """(delta_power, factors) from the text printed by `normalize`, or None."""
    match = _FORM.match(out.rstrip("\n"))
    if match is None:
        return None
    groups = re.findall(r"\[([\d ]+)\]", match.group(2))
    factors = [tuple(int(v) for v in grp.split()) for grp in groups]
    return int(match.group(1)), factors


def verify_report_errors(suite: str, out: str, counts: dict) -> list[str]:
    """
    Gate the output of `verify --suite <suite> --n 4`: exactly one gating
    report, for that suite, with the documented case count and no
    failures.  Diagnostic lines never gate; their failure counts are put
    into counts as `<name>.failures`, and the gating report's numbers as
    `<suite>.cases` / `<suite>.failures`.
    """
    gating = []
    for line in out.splitlines():
        try:
            report = json.loads(line)
        except ValueError:
            return [f"non-JSON line {line[:80]!r}"]
        if report.get("diagnostic"):
            name = str(report.get("suite")).removesuffix("-diagnostic")
            counts[f"{name}.failures"] = report.get("failure_count")
        else:
            gating.append(report)
    if len(gating) != 1 or gating[0].get("suite") != suite:
        return [f"expected one gating {suite} report, got {[r.get('suite') for r in gating]}"]
    report = gating[0]
    counts[f"{suite}.cases"] = report.get("cases")
    counts[f"{suite}.failures"] = report.get("failure_count")
    errors = []
    if report.get("failure_count") != 0:
        errors.append(f"{suite}: failure_count {report.get('failure_count')}")
    if report.get("cases") != VERIFY_CASES[suite]:
        errors.append(f"{suite}: {report.get('cases')} cases, expected {VERIFY_CASES[suite]}")
    return errors


def automaton_errors(n: int, dot: str) -> list[str]:
    """
    Gate `automaton --n <n>` DOT output: n! distinct states labelled by
    permutations, state s0 the identity, n-1 edges per state labelled
    1..n-1, the identity moving to s_i on generator i, and s_i looping on
    generator i (s_i s_i is not simple, so its maximal simple tail is s_i).
    """
    labels, edges = {}, {}
    for line in dot.splitlines():
        node = re.match(r'^  s(\d+) \[label="([\d ]+)"\];$', line)
        if node:
            labels[int(node.group(1))] = tuple(int(v) for v in node.group(2).split())
            continue
        edge = re.match(r'^  s(\d+) -> s(\d+) \[label="(\d+)"\];$', line)
        if edge:
            src, dst, gen = (int(g) for g in edge.groups())
            edges.setdefault(src, {})[gen] = dst
    expected_states = 1
    for k in range(2, n + 1):
        expected_states *= k
    ident = tuple(range(1, n + 1))
    if len(labels) != expected_states or len(set(labels.values())) != expected_states:
        return [f"{len(labels)} states, expected {expected_states} distinct"]
    if any(sorted(p) != list(ident) for p in labels.values()):
        return ["a state label is not a permutation"]
    if labels.get(0) != ident:
        return ["state s0 is not the identity"]
    index = {p: k for k, p in labels.items()}
    if any(sorted(edges.get(k, {})) != list(range(1, n)) for k in labels):
        return ["a state lacks an edge per generator"]
    for i in range(1, n):
        s = list(ident)
        s[i - 1], s[i] = s[i], s[i - 1]
        k = index[tuple(s)]
        if edges[0][i] != k or edges[k][i] != k:
            return [f"generator {i} transitions wrong"]
    return []
