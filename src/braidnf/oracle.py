"""
Brute-force references and verification sweeps.

Everything fast in this package has a slow twin here: the lattice meet is
checked against enumeration of the whole symmetric group, the inversion-set
criterion against enumeration of all pair subsets, and the transfer
operations against the algebraic identities and crossing bookkeeping they
must satisfy.  The sweeps return VerificationReport values; a report with
no failures is a pass, and reports serialise to JSON lines for archiving.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
from typing import Optional, Sequence

from .lattice import InversionSet, meet, meet_permutations
from .normalform import (
    PositiveWord,
    gs_rewrite_to_fixpoint,
    normalize_positive,
    rewrite_potential,
)
from .perms import (
    PairSet,
    act_on_bits,
    all_permutations,
    compose,
    inverse,
    inversion_bits,
    is_inversion_set,
    pair_count,
)
from .simple import (
    _is_clean_words,
    _is_normal_words,
    _transfer_words,
    commuting_characterization_check,
)

BRUTE_MAX_STRANDS = 7


@dataclasses.dataclass
class VerificationReport:
    """Outcome of one verification sweep; a diagnostic one never gates."""

    suite: str
    n: int
    cases: int
    failures: list
    diagnostic: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "n": self.n,
            "cases": self.cases,
            "failure_count": len(self.failures),
            "failures": self.failures[:100],
        }
        if self.diagnostic:
            payload["diagnostic"] = True
        return json.dumps(payload, default=str)


# ---------------------------------------------------------------------------
# Enumerations


@functools.lru_cache(maxsize=None)
def _inversion_groups(n: int) -> tuple:
    """All inversion-set bit arrays of S_n, grouped by cardinality."""
    groups: list[list] = [[] for _ in range(pair_count(n) + 1)]
    for p in all_permutations(n):
        bits = inversion_bits(p)
        groups[bits.bit_count()].append(bits)
    return tuple(tuple(g) for g in groups)


@functools.lru_cache(maxsize=None)
def _all_inversion_bits(n: int) -> frozenset:
    return frozenset(inversion_bits(p) for p in all_permutations(n))


def brute_meet(r1: InversionSet, r2: InversionSet) -> InversionSet:
    """
    The weak-order meet by enumeration: among all inversion sets contained
    in the intersection, the unique one of maximal cardinality.  Raises if
    the maximum is not unique, which would contradict the lattice
    structure.
    """
    if r1.n != r2.n:
        raise ValueError(f"inversion sets on {r1.n} and {r2.n} strands")
    n = r1.n
    if n > BRUTE_MAX_STRANDS:
        raise ValueError(f"enumeration of S_{n} is too large; need n <= {BRUTE_MAX_STRANDS}")
    not_target = ~(r1.bits & r2.bits)
    groups = _inversion_groups(n)
    for size in range(len(groups) - 1, -1, -1):
        hits = [bits for bits in groups[size] if not bits & not_target]
        if hits:
            if len(hits) > 1:
                raise AssertionError(
                    f"non-unique maximal lower bound at n={n}: {hits!r}"
                )
            return InversionSet(PairSet(n, hits[0]))
    raise AssertionError("unreachable: the empty set is always a lower bound")


def brute_validity(s: PairSet) -> bool:
    """Whether s is an inversion set, by enumerating S_n."""
    if s.n > BRUTE_MAX_STRANDS:
        raise ValueError(f"enumeration of S_{s.n} is too large; need n <= {BRUTE_MAX_STRANDS}")
    return s.bits in _all_inversion_bits(s.n)


# ---------------------------------------------------------------------------
# Colored strands


def _cross_in(x: Sequence[int], p: int, q: int) -> bool:
    """Whether the strands currently at positions p and q cross in factor x."""
    return (p < q) != (x[p - 1] < x[q - 1])


def strand_crossings(word: PositiveWord, s: int, t: int) -> tuple[bool, ...]:
    """
    Which factors of the word the two strands starting at top positions
    s and t cross in, tracked through the prefix permutations.
    """
    n = word.n
    if not 1 <= s < t <= n:
        raise ValueError(f"need 1 <= s < t <= {n}")
    p, q = s, t
    out = []
    for letter in word.letters:
        x = letter.perm
        out.append(_cross_in(x, p, q))
        p, q = x[p - 1], x[q - 1]
    return tuple(out)


def conserves_crossings(x, y, h, t) -> bool:
    """
    Whether replacing the two-factor window (x, y) by (h, t) preserves the
    per-strand-pair crossing counts.  The products being equal pins the
    set of pairs crossing an odd number of times, so it is enough to also
    compare the pairs crossing in both bands of the window.
    """
    if compose(x, y) != compose(h, t):
        return False
    both_before = inversion_bits(x) & act_on_bits(inverse(x), inversion_bits(y))
    both_after = inversion_bits(h) & act_on_bits(inverse(h), inversion_bits(t))
    return both_before == both_after


# ---------------------------------------------------------------------------
# Verification sweeps


def _checked_transfer(a, b, failures):
    _m, h, t = _transfer_words(a, b)
    if h != a and not conserves_crossings(a, b, h, t):  # h == a iff nothing moved
        failures.append(["crossing-conservation", a, b])
    return h, t


def verify_strand_lemma(n: int) -> VerificationReport:
    """
    For every pair of simple braids with a clean nontrivial transfer and
    every pair of strands, check the four equivalences tying crossings in
    the rewritten window (head, tail) to crossings in the original (a, b).

    "Clean" means star(a) intersected with the complement of R(b) is
    itself an inversion set, so the moved tail is exactly that
    intersection.  That is the operational content of the hypothesis the
    equivalences carry: when the intersection needs trimming down to the
    lattice meet, the moved tail is smaller and the per-pair equivalences
    genuinely fail (smallest examples on four strands).
    """
    if n > 4:
        raise ValueError("exhaustive over S_n x S_n; need n <= 4")
    failures: list = []
    perms = list(all_permutations(n))
    cases = 0
    for a in perms:
        for b in perms:
            if not _is_clean_words(a, b):
                continue
            _m, h, t = _transfer_words(a, b)
            for s in range(1, n + 1):
                for u in range(s + 1, n + 1):
                    cases += 1
                    c1 = _cross_in(a, s, u)
                    c2 = _cross_in(b, a[s - 1], a[u - 1])
                    d1 = _cross_in(h, s, u)
                    d2 = _cross_in(t, h[s - 1], h[u - 1])
                    checks = (
                        d1 == (c1 and c2),
                        (not d1) == ((not c1) or (c1 and not c2)),
                        d2 == (c2 or (c1 and not c2)),
                        (not d2) == ((not c1) and (not c2)),
                    )
                    if not all(checks):
                        failures.append(["strands", a, b, (s, u), checks])
    return VerificationReport("strands", n, cases, failures)


def _check_samples(samples: Optional[int]) -> None:
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _triples(n: int, samples: Optional[int], seed: int):
    """Triples of S_n, all of them or seeded samples; checks its arguments eagerly."""
    _check_samples(samples)
    perms = list(all_permutations(n))
    if samples is None:
        if n > 4:
            raise ValueError("exhaustive triples need n <= 4; pass samples for larger n")
        return itertools.product(perms, perms, perms)
    rng = random.Random(seed)
    return ((rng.choice(perms), rng.choice(perms), rng.choice(perms)) for _ in range(samples))


def _pairs(n: int, samples: Optional[int], seed: int):
    """Pairs of S_n: all of them for n <= 5, else the first two of sampled triples."""
    if n <= 5:
        return itertools.product(all_permutations(n), all_permutations(n))
    return ((x, y) for x, y, _ in _triples(n, samples, seed))


def _sweeps(a, b, c, failures):
    """
    Three checked transfers on (a, b, c) in each order, right pair first
    (a, b, c) -> (a, h, t) -> mid_r -> end_r, and left pair first
    (a, b, c) -> (h, t, c) -> mid_l -> end_l.  The exchange laws say end_r == end_l.
    """
    h_bc, t_bc = _checked_transfer(b, c, failures)
    h_a_bc, t_a_bc = _checked_transfer(a, h_bc, failures)
    h_ab, t_ab = _checked_transfer(a, b, failures)
    h_abc, t_abc = _checked_transfer(t_ab, c, failures)
    h_outer, t_outer = _checked_transfer(h_ab, h_abc, failures)
    h_mid, t_mid = _checked_transfer(t_a_bc, t_bc, failures)
    return (
        (h_a_bc, t_a_bc, t_bc),
        (h_a_bc, h_mid, t_mid),
        (h_ab, h_abc, t_abc),
        (h_outer, t_outer, t_abc),
    )


def verify_gsb(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    The identities the transfer pair satisfies and the rewriting system
    leans on: the two-sided triviality equivalence (head fixed iff tail
    fixed), normality of every transfer's output pair, normal pairs being
    fixed points, and the three ternary exchange laws.  Exhaustive for
    n <= 4, sampled above.  Crossing conservation is checked at every
    transfer taken.

    The unconditional idempotence and flush-pair clauses sometimes quoted
    alongside these are refuted by small counterexamples; they live in
    verify_gsb_strict as a documented divergence.
    """
    triples = _triples(n, samples, seed)  # before any work: it rejects n > 4 unsampled
    failures: list = []
    cases = 0
    for a, b in _pairs(n, samples, seed):
        cases += 1
        h_ab, t_ab = _checked_transfer(a, b, failures)
        if (h_ab == a) != (t_ab == b):
            failures.append(["trivial-iff", a, b])
        if not _is_normal_words(h_ab, t_ab):
            failures.append(["output-pair-normal", a, b])
        if _is_normal_words(a, b) and (h_ab != a or t_ab != b):
            failures.append(["normal-pair-fixed", a, b])
    for a, b, c in triples:
        cases += 1
        _mid_r, end_r, _mid_l, end_l = _sweeps(a, b, c, failures)
        for law, right, left in zip(("head-assoc", "middle-exchange", "tail-assoc"), end_r, end_l):
            if right != left:
                failures.append([law, a, b, c])
    return VerificationReport("gsb", n, cases, failures)


def verify_gsb_strict(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    The unconditional textbook-style clauses that do NOT hold for the
    transfer pair, kept so the divergence stays measured rather than
    assumed: idempotence (a flush of a braid against itself changing
    nothing) and the flush-pair normality statements that pair an
    original factor with a transfer output.

    Smallest counterexample to idempotence: the three-strand braid with
    one-line word (2,3,1); squaring it renormalises to the generator
    braid (1,3,2) followed by the half twist, so its self-transfer moves
    a crossing.  Idempotence fails exactly when the pair (a, a) is not
    normal.  The exhaustive sweeps report 2 idempotence and 4
    flush-pair-normal failures over the 36 cases at n = 3, and 14 and 136
    over the 576 cases at n = 4; the acceptance suite pins these against
    a brute-force twin.
    """
    failures: list = []
    cases = 0
    for a, b in _pairs(n, samples, seed):
        cases += 1
        _m, h_ab, t_ab = _transfer_words(a, b)
        if a == b and (h_ab != a or t_ab != a):
            failures.append(["idempotence", a])
        if not (_is_normal_words(a, t_ab) and _is_normal_words(h_ab, b)):
            failures.append(["flush-pair-normal", a, b])
    return VerificationReport("gsb-strict", n, cases, failures, diagnostic=True)


def verify_commuting(n: int) -> VerificationReport:
    """commuting_characterization_check over all ordered pairs of S_n, as a diagnostic."""
    failures = commuting_characterization_check(n)
    cases = math.factorial(n) ** 2
    return VerificationReport("gsb-commuting-diagnostic", n, cases, failures, diagnostic=True)


def verify_stop(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    The four stopping implications that make one-directional sweeps
    sufficient: normality survives on the appropriate flanks of a triple
    rewrite, unconditionally for the two inner pairs.
    """
    failures: list = []
    cases = 0
    for a, b, c in _triples(n, samples, seed):
        cases += 1
        mid_r, end_r, mid_l, end_l = _sweeps(a, b, c, failures)
        if _is_normal_words(a, b) and not _is_normal_words(mid_r[1], mid_r[2]):
            failures.append(["left-normal-survives", a, b, c])
        if _is_normal_words(b, c) and not _is_normal_words(mid_l[0], mid_l[1]):
            failures.append(["right-normal-survives", a, b, c])
        if not _is_normal_words(end_r[0], end_r[1]):
            failures.append(["inner-head-normal", a, b, c])
        if not _is_normal_words(end_l[1], end_l[2]):
            failures.append(["inner-tail-normal", a, b, c])
    return VerificationReport("stop", n, cases, failures)


def verify_confluence(
    n: int, length: int = 20, samples: int = 1000, seed: int = 42
) -> VerificationReport:
    """
    Random positive generator words: the leftmost strategy, the rightmost
    strategy and the append engine (normalize_positive) must produce
    identical normal forms, within the termination bound, conserving
    crossings at every rewrite step.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"confluence sweep is sized for 2 <= n <= 6, got {n}")
    if length < 0:
        raise ValueError(f"length must be at least 0, got {length}")
    _check_samples(samples)
    rng = random.Random(seed)
    failures: list = []
    for case in range(samples):
        ell = rng.randint(0, length)
        idxs = [rng.randint(1, n - 1) for _ in range(ell)]
        word = PositiveWord.from_generator_indices(n, idxs)
        bound = rewrite_potential(word)
        outcomes = []
        for strategy in ("leftmost", "rightmost"):
            steps = []  # the (x, y, h, t) window of every rewrite step
            nf = gs_rewrite_to_fixpoint(word, strategy, lambda i, *window: steps.append(window))
            outcomes.append(tuple(f.perm for f in nf.factors))
            if not all(conserves_crossings(*window) for window in steps):
                failures.append(["crossing-conservation", strategy, idxs])
            if len(steps) > bound:
                failures.append(["termination-bound", strategy, idxs, len(steps), bound])
        appended = tuple(f.perm for f in normalize_positive(word).factors)
        if not (outcomes[0] == outcomes[1] == appended):
            failures.append(["confluence", idxs, outcomes[0], outcomes[1], appended])
    return VerificationReport("confluence", n, samples, failures)


def verify_meet(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    Both meets against the enumeration meet: the lattice meet on inversion
    sets and meet_permutations, the one the normaliser runs.  Exhaustive
    over ordered pairs for n <= 5, sampled for larger n (still within the
    enumeration bound).
    """
    if n > BRUTE_MAX_STRANDS:
        raise ValueError(f"enumeration bound is n <= {BRUTE_MAX_STRANDS}")
    _check_samples(samples)
    failures: list = []
    elements = [(p, InversionSet.from_permutation(p)) for p in all_permutations(n)]
    if samples is None:
        if n > 5:
            raise ValueError("exhaustive meet sweep needs n <= 5; pass samples")
        pairs = itertools.product(elements, elements)
        cases = len(elements) ** 2
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(samples))
        cases = samples
    for (p, r1), (q, r2) in pairs:
        try:
            slow = brute_meet(r1, r2)
        except AssertionError as exc:
            failures.append(["uniqueness", r1.listing(), r2.listing(), str(exc)])
            continue
        try:
            fast = meet(r1, r2).bits
        except ValueError:  # the fixpoint is not an inversion set
            fast = None
        engine = inversion_bits(meet_permutations(p, q))
        for kind, bits in (("meet", fast), ("meet-permutations", engine)):
            if bits != slow.bits:
                got = None if bits is None else PairSet(n, bits).pairs()
                failures.append([kind, r1.listing(), r2.listing(), got, slow.listing()])
    return VerificationReport("meet", n, cases, failures)


def verify_validity(n: int) -> VerificationReport:
    """
    The two-condition inversion-set criterion against enumeration, over
    every subset of the pair slots.
    """
    if n > 6:
        raise ValueError("2^(n(n-1)/2) subsets; need n <= 6")
    good = _all_inversion_bits(n)
    failures: list = []
    total = 1 << pair_count(n)
    for bits in range(total):
        s = PairSet(n, bits)
        if is_inversion_set(s) != (bits in good):
            failures.append(["validity", s.pairs()])
    return VerificationReport("validity", n, total, failures)
