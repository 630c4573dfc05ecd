"""
Brute-force references and verification sweeps.

Everything fast in this package has a slow twin here: the lattice meet is
checked against enumeration of the whole symmetric group, the inversion-set
criterion against enumeration of all pair subsets, and the transfer
operations against the laws they must satisfy, one table (LAWS) that one
sweep evaluates.  Both enumeration twins read one cached table of S_n in
the weak order (_weak_order): each element's down-set is an int bitset
over the ranks, built from its lower covers, so a meet is the top bit of
two down-sets, and an inversion set is a key of the table's index.  Each
verification call interns its own states in one pair table (_PairTable),
which the row sweeps of one verify command share (_one_fill); only
verify_meet reads the engine's alphabet (normalform._alphabet), to check
its step entries against the normality test and the transfer.

The sweep has two paths through the same law statements.  Exhaustive
sweeps up to EXHAUSTIVE_MAX_STRANDS take the row path (_dense): S_n is
interned first, every pair's head, tail and verdict are filled once into
flat rows, and for each fixed prefix of a case, say (a, b), a law is
evaluated over the whole row of last entries c at once, with C-level
maps, translations and comparisons on bytes rows (_Row).  Only the laws
that fail on a row are evaluated again on it, case by case, so failure
records and their order are the scalar path's.  The scalar path
evaluates one case at a time; it runs the sampled sweeps, the strand
lemma and those re-runs, and it is the row path's twin in the tests.
The sweeps return VerificationReport values; a report with no failures
is a pass, and reports serialise to JSON lines for archiving.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import random
from typing import Optional, Sequence

from . import normalform
from .lattice import InversionSet, meet, meet_permutations
from .normalform import (
    PositiveWord,
    _rewrite_to_fixpoint,
    normalize_positive,
    rewrite_potential,
)
from .perms import (
    PairSet,
    _check_strands,
    _same_strands,
    _Value,
    adjacent_transposition,
    all_permutations,
    compose,
    identity,
    inverse,
    inversion_bits,
    is_inversion_set,
    length,
    pair_count,
)
from .simple import SimpleBraid, _is_clean_words, _is_normal_words, _transfer_words
from .textio import EXHAUSTIVE_MAX_STRANDS, MAX_LETTERS, MAX_STRANDS, _check_count

BRUTE_MAX_STRANDS = 7


class VerificationReport(_Value):
    """Outcome of one verification sweep; a diagnostic one never gates."""

    __slots__ = _fields = ("suite", "n", "cases", "failures", "diagnostic")

    def __init__(self, suite: str, n: int, cases: int, failures: list, diagnostic: bool = False):
        super().__init__(suite, n, cases, failures, diagnostic)

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


def _lower_covers(p: Sequence[int]):
    """
    The elements p covers in the weak order: p with an inverted pair of
    adjacent values, v + 1 placed before v, swapped back.  No value lies
    between the two, so the swap drops exactly their pair of positions
    from inversion_bits(p).
    """
    for v in range(1, len(p)):
        i, j = p.index(v + 1), p.index(v)
        if i < j:
            yield p[:i] + (v,) + p[i + 1 : j] + (v + 1,) + p[j + 1 :]


@functools.cache
def _listing(n: int) -> dict:
    """S_n in all_permutations order, each one-line word with its inversion set."""
    return {p: InversionSet.from_permutation(p) for p in all_permutations(n)}


@functools.cache
def _weak_order(n: int) -> tuple[tuple, dict, tuple]:
    """
    S_n in the weak order, the inclusion of inversion sets, a lattice
    graded by length.  Returns (bits, rank, down): bits[r] is the inversion
    bit array of rank r, ranked in order of length; rank reads it back;
    down[r] is its down-set, an int with bit s set for each rank s at or
    below r: bit r and the down-sets of its lower covers (_lower_covers),
    which are shorter and so come first.  Raises past BRUTE_MAX_STRANDS,
    the enumeration bound of brute_meet, brute_validity and verify_meet:
    at n = 8 the down-sets alone would take about 200 MB.
    """
    if n > BRUTE_MAX_STRANDS:
        raise ValueError(f"enumeration of S_{n} is too large; need n <= {BRUTE_MAX_STRANDS}")
    listing, down = _listing(n), {}
    for r, p in enumerate(sorted(listing, key=lambda p: len(listing[p]))):
        down[p] = functools.reduce(operator.or_, map(down.__getitem__, _lower_covers(p)), 1 << r)
    bits = tuple(listing[p].bits for p in down)
    return bits, {b: r for r, b in enumerate(bits)}, tuple(down.values())


def brute_meet(r1: InversionSet, r2: InversionSet) -> InversionSet:
    """
    The weak-order meet by enumeration: the greatest common lower bound,
    the top rank m in both down-sets.  Raises unless m's own down-set is
    their intersection, that is unless every common lower bound lies
    under m, which would contradict the lattice structure.  The result is
    read from the table, so the twin calls none of the fast code, the
    inversion-set criterion (is_inversion_set) included.
    """
    _same_strands("inversion sets", r1.n, r2.n)
    bits, rank, down = _weak_order(r1.n)
    common = down[rank[r1.bits]] & down[rank[r2.bits]]
    m = common.bit_length() - 1
    if down[m] != common:
        stray = [b for r, b in enumerate(bits) if (common & ~down[m]) >> r & 1]
        raise AssertionError(f"non-unique maximal lower bound at n={r1.n}: {[bits[m], *stray]}")
    return InversionSet._trusted(r1.n, bits[m])


def brute_validity(s: PairSet) -> bool:
    """Whether s is an inversion set: one of S_n's, enumerated."""
    return s.bits in _weak_order(s.n)[1]


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


def _conserves(bits, x, y, h, t) -> bool:
    """
    Whether replacing the two-factor window (x, y) by (h, t) preserves the
    per-strand-pair crossing counts.  The products being equal pins the
    set of pairs crossing an odd number of times, so it is enough to also
    compare the pairs crossing in both bands of the window: those crossing
    in the first band and not in the product.  The first band's bit
    arrays, of x and of h, are read through bits (inversion_bits or a memo
    of it).
    """
    product = compose(x, y)
    if product != compose(h, t):
        return False
    once = inversion_bits(product)
    return bits(x) & ~once == bits(h) & ~once


# ---------------------------------------------------------------------------
# The law table


class _Row(bytes):
    """
    Values of a law's term over a row of cases, entry c for the case whose
    last entry is the int c (S_n has at most 120 elements here); a row of
    verdicts holds 0 and 1.  ==, <= (implication) and & act entry by entry,
    also against an int or a bool, and a row of true entries reads True.
    """

    def _map(self, f, other):
        row = _Row(map(f, self, other if type(other) is _Row else itertools.repeat(other)))
        return all(row) or row

    def __eq__(self, other):
        return bytes.__eq__(self, other) is True or self._map(operator.eq, other)

    __le__ = functools.partialmethod(_map, operator.le)
    __ge__ = functools.partialmethod(_map, operator.ge)
    __and__ = __rand__ = functools.partialmethod(_map, operator.and_)


def _each(f, perm, *xs):
    """f on the one-line words perm[x] of the entries, entry by entry over a row among them."""
    if _Row not in map(type, xs):
        return f(*map(perm.__getitem__, xs))
    words = [map(perm.__getitem__, x) if type(x) is _Row else itertools.repeat(perm[x]) for x in xs]
    row = _Row(map(f, *words))
    return all(row) or row


def _commutes(a, b, head) -> bool:
    """h(a, b) == b != a iff a = x*b with x*b = b*x, b an involution, and crossings adding."""
    x = compose(a, inverse(b))
    commute = compose(b, b) == identity(len(b)) and compose(x, b) == compose(b, x)
    return (head == b != a) == (a != b and commute and length(a) == length(x) + length(b))


def _strand_lemma(h, t, N, a, b, pair) -> bool:
    """
    The strands starting at positions s < u cross in the new head iff they
    cross in a and in b, and in the new tail iff they cross in a or in b.
    """
    (s, u), a, b, head, tail = map(N.perm.__getitem__, (pair, a, b, h(a, b), t(a, b)))
    in_a, in_b = _cross_in(a, s, u), _cross_in(b, a[s - 1], a[u - 1])
    in_tail = _cross_in(tail, head[s - 1], head[u - 1])
    return _cross_in(head, s, u) == (in_a and in_b) and in_tail == (in_a or in_b)


# Each group of laws is a tuple of rows (name, law).  A law gets the two
# operations h(x, y) and t(x, y), the head and tail after moving the maximal
# tail of x into y, the normality test N(x, y), then the entries of one case,
# and returns True when it holds; p <= q is the implication, & the
# conjunction.  Every entry is an int of the call's pair table (_PairTable),
# and N.perm[x] reads x back.  The same statement checks a whole row of
# cases when its last entry is the row of all ints (_dense): terms then
# evaluate to rows (_Row), on which ==, <= and & act entry by entry, and
# _each lifts a function of one-line words; not, and, or and != do not act
# on rows, and the row/scalar twin test in tests/test_oracle.py holds every
# group to that.  A failure is recorded, in
# one-line words, as [name, *case], or as [name, *w] when the law returns a
# witness tuple w.  The exchange and stopping laws compare the sweep of a
# triple right pair first, (a, b, c) -> (a, h(b, c), t(b, c)) -> ..., with
# the sweep left pair first.
LAWS = {
    "pair": (
        ("trivial-iff", lambda h, t, N, a, b: (h(a, b) == a) == (t(a, b) == b)),
        ("output-pair-normal", lambda h, t, N, a, b: N(h(a, b), t(a, b))),
        ("normal-pair-fixed", lambda h, t, N, a, b: N(a, b) <= ((h(a, b) == a) & (t(a, b) == b))),
    ),
    "exchange": (
        ("head-assoc", lambda h, t, N, a, b, c: h(a, h(b, c)) == h(h(a, b), h(t(a, b), c))),
        (
            "middle-exchange",
            lambda h, t, N, a, b, c: h(t(a, h(b, c)), t(b, c)) == t(h(a, b), h(t(a, b), c)),
        ),
        ("tail-assoc", lambda h, t, N, a, b, c: t(t(a, h(b, c)), t(b, c)) == t(t(a, b), c)),
    ),
    "stop": (
        ("left-normal-survives", lambda h, t, N, a, b, c: N(a, b) <= N(t(a, h(b, c)), t(b, c))),
        ("right-normal-survives", lambda h, t, N, a, b, c: N(b, c) <= N(h(a, b), h(t(a, b), c))),
        ("inner-head-normal", lambda h, t, N, a, b, c: N(h(a, h(b, c)), h(t(a, h(b, c)), t(b, c)))),
        ("inner-tail-normal", lambda h, t, N, a, b, c: N(t(h(a, b), h(t(a, b), c)), t(t(a, b), c))),
    ),
    "strict": (
        ("idempotence", lambda h, t, N, a, b: (a == b) <= ((h(a, a), t(a, a)) == (a, a)) or (a,)),
        ("flush-pair-normal", lambda h, t, N, a, b: N(a, t(a, b)) & N(h(a, b), b)),
    ),
    "commuting": (("commuting", lambda h, t, N, a, b: _each(_commutes, N.perm, a, b, h(a, b))),),
    "strands": (("strands", _strand_lemma),),
}


class _PairTable(dict):
    """
    Pairs of simple braids for one verification call, on ints.  The table
    maps a one-line word (any case entry) to its int, interned in the
    order of first sight at every n, and perm reads an int back.  A
    pair's normality verdict and its (head, tail) are cached on first use,
    for this table only: a pair is tested for normality (_is_normal_words)
    once and transferred (_transfer_words) once, its crossing conservation
    checked then; a pair that breaks it goes into broken, and into
    failures as ["crossing-conservation", x, y] with x and y its one-line
    words.  Both functions are looked up in this module when a pair is
    first used; the engine's tables are never built or read.  Each word's
    inversion bits for those checks are computed once per table too.
    broken maps each broken pair to its record, in the order found.  h, t
    and N are the laws' head, tail and normality test on ints, and N.perm
    is perm; step is the rewriting step on ints, one cached call: None for
    a normal pair, else (head, tail).
    """

    def __init__(self):
        perm = self.perm = []
        self.broken, self.failures = {}, []
        bits = functools.cache(inversion_bits)

        @functools.cache
        def move(a, b) -> tuple[int, int]:
            x, y = perm[a], perm[b]
            head, tail = _transfer_words(x, y)
            # an unchanged window conserves everything
            if (head, tail) != (x, y) and not _conserves(bits, x, y, head, tail):
                self.broken[a, b] = record = ["crossing-conservation", x, y]
                self.failures.append(record)
            return self[head], self[tail]

        @functools.cache
        def N(a, b) -> bool:
            return _is_normal_words(perm[a], perm[b])

        N.perm, self.N = perm, N
        self.step = functools.cache(lambda a, b: None if N(a, b) else move(a, b))
        self.h, self.t = (lambda a, b: move(a, b)[0]), (lambda a, b: move(a, b)[1])

    def __missing__(self, p) -> int:
        self.perm.append(p)
        return self.setdefault(p, len(self))


def _dense(n: int):
    """
    The row path over S_n: returns a fresh pair table and failing(laws, k),
    which yields, in sweep order, the cases of every row of k-tuples that
    some law fails on, in one-line words, each with the laws that failed
    on its row.  S_n is interned in all_permutations order, the ints
    0, 1, ... of the table, and the row variable is the row (_Row) of
    them.  Each pair's head, tail and verdict are then filled once,
    through the table's own h, t and N, into a flat row per left int,
    padded to a translation table: a read of two ints is an entry, a read
    of an int and a row is a translation, and a read with a row on the
    left goes entry by entry.  A row of cases, the row variable as its
    last entry, fails a law that returns neither True nor a row of true
    entries.
    """
    table = _PairTable()
    ids = _Row(map(table.__getitem__, all_permutations(n)))

    def reader(op):
        rows = [bytes(map(op, itertools.repeat(a), ids)).ljust(256, b"\0") for a in ids]

        def read(x, y):
            if type(x) is int:
                return rows[x][y] if type(y) is int else _Row(y.translate(rows[x]))
            return _Row(map(operator.getitem, map(rows.__getitem__, x), y))

        return read

    h, t, N = reader(table.h), reader(table.t), reader(table.N)
    N.perm = words = table.perm

    def failing(laws, arity: int):
        for prefix in itertools.product(ids, repeat=arity - 1):
            verdicts = ((row, row[1](h, t, N, *prefix, ids)) for row in laws)
            failed = [row for row, v in verdicts if not (v is True or type(v) is _Row and all(v))]
            cases = itertools.product(*([words[x]] for x in prefix), words) if failed else ()
            yield from zip(cases, itertools.repeat(failed))

    return table, failing


# Inside _one_fill, the row path's fill: _dense, cached per n.
_fills: list = []


@contextlib.contextmanager
def _one_fill():
    """
    The row sweeps made inside share, at each n, one pair table and one
    dense fill; each report still starts with every crossing-conservation
    record of its table, as a report of its own table would.
    """
    _fills.append(functools.cache(_dense))
    try:
        yield
    finally:
        _fills.pop()


def _sweep(suite: str, n: int, *parts, diagnostic: bool = False) -> VerificationReport:
    """
    For each part (group, cases), evaluate every law of LAWS[group] on every
    case.  The entries of each case are interned to the ints of one pair
    table built for this call (_PairTable), or inside _one_fill shared
    with the other row sweeps at n, and the laws read head, tail and
    normality from it, so each distinct pair is transferred once, its
    crossing conservation checked then, and tested for normality once.
    The report's failures start with the table's crossing-conservation
    records so far.
    A part whose cases are an int k stands for every k-tuple of S_n, and
    takes the row path: the laws run over the rows of the dense table
    (_dense), and only the laws that fail on a row are evaluated again,
    case by case, on it, so the failure records and their order are the
    scalar sweep's.  Failure records read the ints back as the case's
    one-line words.
    """
    _check_strands(n)
    dense = any(type(c) is int for _, c in parts)
    table, failing = (_fills[-1] if _fills else _dense)(n) if dense else (_PairTable(), None)
    failures = table.failures = list(table.broken.values())
    cases, h, t, N, perm = 0, table.h, table.t, table.N, table.perm.__getitem__
    for group, group_cases in parts:
        laws, rows = LAWS[group], type(group_cases) is int
        if rows:
            cases += math.factorial(n) ** group_cases
        runs = failing(laws, group_cases) if rows else zip(group_cases, itertools.repeat(laws))
        for case, case_laws in runs:
            cases += not rows  # a row's cases were counted with it
            case = tuple(map(table.__getitem__, case))
            for name, law in case_laws:
                verdict = law(h, t, N, *case)
                if verdict is not True:
                    failures.append([name, *map(perm, verdict or case)])
    return VerificationReport(suite, n, cases, failures, diagnostic)


# ---------------------------------------------------------------------------
# Verification sweeps


def _triples(n: int, samples: Optional[int], seed: int):
    """
    Triples of S_n: all of them up to EXHAUSTIVE_MAX_STRANDS, by rows (3),
    else seeded samples; checks its arguments eagerly.
    """
    _check_count("samples", samples, 1)
    if samples is None:
        if n > EXHAUSTIVE_MAX_STRANDS:
            raise ValueError(
                f"exhaustive triples need n <= {EXHAUSTIVE_MAX_STRANDS}; pass samples for larger n"
            )
        return 3
    if n > MAX_STRANDS:
        raise ValueError(f"sampled triples need n <= {MAX_STRANDS}, got {n}")
    rng, letters = random.Random(seed), range(1, n + 1)
    return (tuple(tuple(rng.sample(letters, n)) for _ in range(3)) for _ in range(samples))


def _pairs(n: int, samples: Optional[int] = None, seed: int = 42):
    """
    Pairs of S_n: all of them up to EXHAUSTIVE_MAX_STRANDS, by rows (2),
    else the first two of sampled triples.
    """
    if n <= EXHAUSTIVE_MAX_STRANDS:
        return 2
    return ((x, y) for x, y, _ in _triples(n, samples, seed))


def verify_strand_lemma(n: int) -> VerificationReport:
    """
    The strand lemma for every pair of strands and every pair (a, b) with a
    clean transfer: star(a) intersected with the complement of R(b) is a
    nonempty inversion set, so the moved tail is exactly that intersection.
    The lemma fails on the pairs whose intersection is nonempty and not an
    inversion set, the smallest on three strands (README, Known divergences).
    """
    if n > 4:
        raise ValueError("exhaustive over S_n x S_n; need n <= 4")
    strand_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = itertools.product(all_permutations(n), repeat=2)
    clean = ((a, b, pair) for a, b in pairs if _is_clean_words(a, b) for pair in strand_pairs)
    return _sweep("strands", n, ("strands", clean))


def verify_gsb(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    The pair laws over pairs and the exchange laws over triples, exhaustive
    up to EXHAUSTIVE_MAX_STRANDS and sampled above.  The unconditional idempotence and
    flush-pair clauses sometimes quoted alongside them are refuted by small
    counterexamples; they live in verify_gsb_strict as a documented divergence.
    """
    triples = _triples(n, samples, seed)
    return _sweep("gsb", n, ("pair", _pairs(n, samples, seed)), ("exchange", triples))


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
    return _sweep("gsb-strict", n, ("strict", _pairs(n, samples, seed)), diagnostic=True)


def verify_commuting(n: int) -> VerificationReport:
    """The commuting characterisation of head_op(a, b) == b != a over all pairs of S_n."""
    if n > EXHAUSTIVE_MAX_STRANDS:
        raise ValueError(f"diagnostic sweep is exhaustive; keep n <= {EXHAUSTIVE_MAX_STRANDS}")
    return _sweep("gsb-commuting-diagnostic", n, ("commuting", _pairs(n)), diagnostic=True)


def verify_stop(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    The four stopping implications that make one-directional sweeps
    sufficient: normality survives on the appropriate flanks of a triple
    rewrite, unconditionally for the two inner pairs.
    """
    return _sweep("stop", n, ("stop", _triples(n, samples, seed)))


def _check_confluence_strands(n: int) -> None:
    if not 2 <= n <= 6:
        raise ValueError(f"confluence sweep is sized for 2 <= n <= 6, got {n}")


def verify_confluence(
    n: int, length: int = 20, samples: int = 1000, seed: int = 42
) -> VerificationReport:
    """
    Random positive generator words: the leftmost strategy, the rightmost
    strategy and the append engine (normalize_positive) must produce
    identical normal forms, within the termination bound, conserving
    crossings at every rewrite step.  The two strategies rewrite ints of
    one pair table built for this call (_PairTable), so each distinct pair
    is tested for normality once and, when it rewrites, transferred and
    checked for conservation once.  The rewriting loop yields the
    rewrites it makes, which the twin lists: a word fails conservation
    when one of them is a broken pair, and termination when there are
    more of them than the bound.  Each strategy's result is judged only
    by comparison with normalize_positive's validated form: a result that
    differs is a confluence failure, and one that equals it is that form,
    so the rewriting path reads no engine table.  Each generator has one
    SimpleBraid, built on first use and shared by the words, so its
    crossings are counted from one inversion set.
    """
    _check_confluence_strands(n)
    _check_count("length", length, 0, MAX_LETTERS)
    _check_count("samples", samples, 1)
    rng = random.Random(seed)
    failures: list = []
    table = _PairTable()
    ident, perm, step = table[identity(n)], table.perm, table.step
    braid = functools.cache(lambda x: SimpleBraid(perm[x]))  # one braid per generator
    letter = {i: table[adjacent_transposition(n, i)] for i in range(1, n)}
    for case in range(samples):
        ell = rng.randint(0, length)
        idxs = [rng.randrange(1, n) for _ in range(ell)]  # rng.randint(1, n - 1), one call
        letters, outcomes = list(map(letter.__getitem__, idxs)), []
        word = PositiveWord(n, tuple(map(braid, letters)))
        bound = rewrite_potential(word)
        for strategy in ("leftmost", "rightmost"):
            form = list(letters)
            rewrites = list(_rewrite_to_fixpoint(form, strategy, ident, step))
            outcomes.append(tuple(map(perm.__getitem__, form)))
            if table.broken and not table.broken.keys().isdisjoint(r[1:3] for r in rewrites):
                failures.append(["crossing-conservation", strategy, idxs])
            if len(rewrites) > bound:
                failures.append(["termination-bound", strategy, idxs, len(rewrites), bound])
        appended = tuple(f.perm for f in normalize_positive(word).factors)
        if not (outcomes[0] == outcomes[1] == appended):
            failures.append(["confluence", idxs, outcomes[0], outcomes[1], appended])
    return VerificationReport("confluence", n, samples, failures)


def verify_meet(n: int, samples: Optional[int] = None, seed: int = 42) -> VerificationReport:
    """
    Both meets against the enumeration meet: the lattice meet on inversion
    sets and meet_permutations, a view of the insertion pass the
    normaliser runs (lattice._meet_reads).  Exhaustive over ordered pairs
    up to EXHAUSTIVE_MAX_STRANDS, sampled for larger n, within the
    enumeration bound of the weak-order table (_weak_order), which is
    checked first; the pairs are drawn from the listing that table is
    built from (_listing).  Each pair's engine step, read from the
    engine's alphabet (normalform._alphabet: the rank tables' rows up to
    the table bound, the word alphabet's transfer above), is also checked
    against the normality test and the meet-based transfer; a
    disagreement is reported in one-line notation.
    """
    _weak_order(n)  # the enumeration bound, checked before the samples
    _check_count("samples", samples, 1)
    if samples is None and n > EXHAUSTIVE_MAX_STRANDS:
        raise ValueError(f"exhaustive meet sweep needs n <= {EXHAUSTIVE_MAX_STRANDS}; pass samples")
    failures: list = []
    elements = list(_listing(n).items())  # the weak-order table's listing
    if samples is None:
        pairs = itertools.product(elements, elements)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(samples))
    alphabet = normalform._alphabet(n)
    for (p, r1), (q, r2) in pairs:
        try:
            slow = brute_meet(r1, r2)
        except AssertionError as exc:
            failures.append(["uniqueness", r1.pairs(), r2.pairs(), str(exc)])
            continue
        try:
            fast = meet(r1, r2).bits
        except ValueError:  # the fixpoint is not an inversion set
            fast = None
        engine = inversion_bits(meet_permutations(p, q))
        for kind, bits in (("meet", fast), ("meet-permutations", engine)):
            if bits != slow.bits:
                got = None if bits is None else PairSet(n, bits).pairs()
                failures.append([kind, r1.pairs(), r2.pairs(), got, slow.pairs()])
        step = alphabet.step[alphabet.letter(p)][alphabet.letter(q)]
        if step is not None:
            step = (alphabet.braid(step[0]).perm, alphabet.braid(step[1]).perm)
        want = None if _is_normal_words(p, q) else _transfer_words(p, q)
        if step != want:
            failures.append(["table", p, q, step, want])
    return VerificationReport("meet", n, samples or len(elements) ** 2, failures)


def verify_validity(n: int) -> VerificationReport:
    """
    The two-condition inversion-set criterion (is_inversion_set) against
    its enumeration twin (brute_validity), over every subset of the pair
    slots.
    """
    if n > 6:
        raise ValueError("2^(n(n-1)/2) subsets; need n <= 6")
    failures: list = []
    total = 1 << pair_count(n)
    for bits in range(total):
        s = PairSet(n, bits)
        if is_inversion_set(s) != brute_validity(s):
            failures.append(["validity", s.pairs()])
    return VerificationReport("validity", n, total, failures)
