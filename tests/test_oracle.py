import collections
import hashlib
import itertools
import json
import math
import random
import time

import pytest

from braidnf import lattice, normalform, oracle, perms, simple
from braidnf.lattice import InversionSet, complement
from braidnf.normalform import PositiveWord, gs_rewrite_to_fixpoint, rewrite_pair_at
from braidnf.oracle import (
    VerificationReport,
    brute_meet,
    _conserves,
    brute_validity,
    strand_crossings,
    verify_confluence,
    verify_gsb,
    verify_meet,
    verify_stop,
    verify_strand_lemma,
    verify_validity,
)
from braidnf.perms import (
    PairSet,
    adjacent_transposition,
    all_permutations,
    compose,
    full_bits,
    identity,
    inverse,
    inversion_bits,
    is_inversion_set,
    omega,
)
from braidnf.simple import SimpleBraid, identity_braid, omega_braid


def inv(p):
    return InversionSet.from_permutation(p)


def test_brute_meet_values():
    a, b = (3, 5, 4, 2, 6, 1), (5, 3, 6, 1, 4, 2)
    got = brute_meet(inv(inverse(a)), inv(compose(b, omega(6))))
    assert got.pairs() == ((1, 3), (2, 3), (2, 5), (4, 5))
    r = inv((4, 2, 6, 1, 5, 3))
    assert brute_meet(r, r).bits == r.bits
    gap = brute_meet(inv(inverse((3, 5, 4, 2, 6, 1))), complement(inv((2, 1, 5, 6, 3, 4))))
    assert (2, 3) in gap and len(gap) > 0
    with pytest.raises(ValueError, match=r"^enumeration of S_8 is too large; need n <= 7$"):
        big = inv(tuple(range(1, 9)))
        brute_meet(big, big)


def test_brute_meet_equals_its_checked_twin():
    # brute_meet builds its result through _trusted, from its table
    sets = [inv(p) for p in all_permutations(4)]
    for r1, r2 in itertools.product(sets, repeat=2):
        got = brute_meet(r1, r2)
        assert got == InversionSet(4, got.bits)


def test_brute_validity():
    assert brute_validity(PairSet(3, 0))
    assert not brute_validity(PairSet.from_pairs(3, [(1, 2), (2, 3)]))
    assert brute_validity(PairSet(4, full_bits(4)))


def _position_swaps(p):
    """The wrong cover rule: swap back an inverted pair of adjacent positions."""
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            yield p[:i] + (p[i + 1], p[i]) + p[i + 2 :]


def _table_is_inclusion(n):
    """
    Whether each lower cover drops exactly one inversion, and whether the
    weak-order table, built afresh from oracle._lower_covers, puts p in
    down[q] exactly when p's inversion set is a subset of q's.
    """
    covers_drop_one = all(
        inversion_bits(c) | bit == inversion_bits(p) and bit.bit_count() == 1
        for p in all_permutations(n)
        for c in oracle._lower_covers(p)
        for bit in [inversion_bits(p) & ~inversion_bits(c)]
    )
    bits, rank, down = oracle._weak_order.__wrapped__(n)
    pairs = itertools.product(range(len(bits)), repeat=2)
    inclusion = all((down[q] >> p & 1) == (bits[p] & ~bits[q] == 0) for p, q in pairs)
    return covers_drop_one, inclusion


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weak_order_table_is_inclusion_of_inversion_sets(n, monkeypatch):
    bits, rank, down = oracle._weak_order(n)
    assert len(bits) == len(set(bits)) == math.factorial(n)
    assert [b.bit_count() for b in bits] == sorted(b.bit_count() for b in bits)
    assert all(rank[b] == r for r, b in enumerate(bits))
    assert _table_is_inclusion(n) == (True, True)
    # swapping adjacent positions instead of values breaks both from three strands
    monkeypatch.setattr(oracle, "_lower_covers", _position_swaps)
    assert _table_is_inclusion(n) == ((True, True) if n < 3 else (False, False))


def test_a_corrupt_down_set_fails_the_meet_twin(monkeypatch):
    bits, rank, down = oracle._weak_order(4)
    mutants = []
    for q, r in itertools.product(range(len(bits)), repeat=2):
        mutant = list(down)
        mutant[q] ^= 1 << r  # clear or set one bit
        monkeypatch.setattr(oracle, "_weak_order", lambda n: (bits, rank, mutant))
        r1, r2 = (InversionSet(4, bits[x]) for x in (q, r))
        try:
            slow = brute_meet(r1, r2).bits
        except AssertionError as exc:
            assert str(exc).startswith("non-unique maximal lower bound at n=4: ")
        else:
            assert slow != lattice.meet(r1, r2).bits, (q, r)
        mutants.append(mutant)
    for mutant in random.Random(23).sample(mutants, 8):
        monkeypatch.setattr(oracle, "_weak_order", lambda n: (bits, rank, mutant))
        report = verify_meet(4)
        assert report.cases == 576 and report.failures
        assert {f[0] for f in report.failures} <= {"uniqueness", "meet", "meet-permutations"}


def test_a_missing_index_entry_flips_brute_validity(monkeypatch):
    bits, rank, down = oracle._weak_order(3)
    for b in bits:
        index = {k: r for k, r in rank.items() if k != b}
        monkeypatch.setattr(oracle, "_weak_order", lambda n: (bits, index, down))
        assert not brute_validity(PairSet(3, b))
        assert verify_validity(3).failures == [["validity", PairSet(3, b).pairs()]]


# Three six-strand factors whose per-strand-pair crossing log was read off
# a hand-drawn diagram; the last entry of the third factor is pinned by
# bijectivity.
W3_A = (5, 3, 6, 1, 2, 4)
W3_B = (3, 4, 5, 1, 2, 6)
W3_C = (4, 5, 1, 6, 2, 3)


def test_strand_crossings_fixed_word():
    word = PositiveWord(6, (SimpleBraid(W3_A), SimpleBraid(W3_B), SimpleBraid(W3_C)))
    assert strand_crossings(word, 1, 2) == (True, True, True)
    assert strand_crossings(word, 1, 6) == (True, False, False)
    with pytest.raises(ValueError):
        strand_crossings(word, 2, 2)
    with pytest.raises(ValueError):
        strand_crossings(word, 0, 3)


def test_strand_crossings_trivial_factors():
    full = PositiveWord(4, (omega_braid(4),))
    empty = PositiveWord(4, (identity_braid(4),))
    for s, t in itertools.combinations(range(1, 5), 2):
        assert strand_crossings(full, s, t) == (True,)
        assert strand_crossings(empty, s, t) == (False,)


def test_strand_crossing_totals_invariant_under_rewrites():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(2, 6)
        letters = tuple(
            SimpleBraid(tuple(rng.sample(range(1, n + 1), n)))
            for _ in range(rng.randint(2, 6))
        )
        w = PositiveWord(n, letters)
        i = rng.randrange(len(letters) - 1)
        after = rewrite_pair_at(w, i)
        for s, t in itertools.combinations(range(1, n + 1), 2):
            assert sum(strand_crossings(w, s, t)) == sum(strand_crossings(after, s, t))


def test_conserves_crossings():
    s1 = (2, 1, 3)
    ident = (1, 2, 3)
    assert _conserves(inversion_bits, s1, ident, ident, s1)
    # cancelling a double crossing changes the count and must be rejected
    assert not _conserves(inversion_bits, s1, s1, ident, ident)
    # different products are always rejected
    assert not _conserves(inversion_bits, s1, ident, ident, ident)


def test_verify_strand_lemma():
    for n in (2, 3):
        report = verify_strand_lemma(n)
        assert report.passed, report.failures[:3]
    with pytest.raises(ValueError):
        verify_strand_lemma(5)


def test_strand_row_fails_exactly_on_gapped_intersections():
    # without the clean hypothesis the strand lemma fails exactly on the pairs
    # whose intersection star(a) & complement(R(b)) is nonempty and not an
    # inversion set; smallest: two pairs on three strands where nothing moves
    for n, count in ((3, 2), (4, 98)):
        perms = list(all_permutations(n))
        strand_pairs = list(itertools.combinations(range(1, n + 1), 2))
        cases = ((a, b, pair) for a in perms for b in perms for pair in strand_pairs)
        report = oracle._sweep("strands", n, ("strands", cases))
        assert report.cases == len(perms) ** 2 * len(strand_pairs)
        failing = {(f[1], f[2]) for f in report.failures}
        gapped = set()
        for a in perms:
            for b in perms:
                inter = complement(inv(b)).bits & inv(inverse(a)).bits
                if inter and not is_inversion_set(PairSet(n, inter)):
                    gapped.add((a, b))
        assert failing == gapped and len(failing) == count
        if n == 3:
            assert failing == {((2, 3, 1), (2, 1, 3)), ((3, 1, 2), (1, 3, 2))}
            for a, b in failing:
                head, _tail = simple._transfer_words(a, b)
                assert compose(inverse(a), head) == identity(3)  # head = a*m


def test_verify_gsb_and_stop_small():
    for n in (2, 3):
        assert verify_gsb(n).passed
        assert verify_stop(n).passed
    sampled = verify_gsb(5, samples=300, seed=1)
    assert sampled.passed
    assert verify_stop(5, samples=300, seed=1).passed
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_gsb(6, samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_stop(3, samples=samples)


def test_sampled_triples_are_seeded_permutations():
    # sampled sweeps draw each entry of a triple from random.Random(seed):
    # a seed fixes the triples, and so the report
    for n in (6, 9, 1024):
        triples = list(oracle._triples(n, 20, 1))
        assert len(triples) == 20
        for triple in triples:
            assert len(triple) == 3
            for p in triple:
                assert type(p) is tuple and sorted(p) == list(range(1, n + 1))
        assert list(oracle._triples(n, 20, 1)) == triples
        assert list(oracle._triples(n, 20, 2)) != triples
    assert verify_gsb(6, samples=30, seed=3) == verify_gsb(6, samples=30, seed=3)


def test_verify_gsb_and_stop_catch_a_short_transfer(monkeypatch):
    # a transfer that moves at most one crossing breaks every exchange law
    # and stopping implication; the counts pin how the sweeps wire them
    def first_common_descent(u, b):
        # the meet of u and b*omega cut to one crossing: read in that order
        m = identity(len(u))
        for i in range(1, len(u)):
            if u[i - 1] > u[i] and b[i - 1] < b[i]:
                m = adjacent_transposition(len(u), i)
                break
        order = inverse(m)
        return [u[p - 1] for p in order], [b[p - 1] for p in order]

    monkeypatch.setattr(normalform, "_TABLES", {})  # the mutant must not fill the tables
    monkeypatch.setattr(simple, "_meet_reads", first_common_descent)
    kinds = collections.Counter(f[0] for f in verify_gsb(3).failures)
    assert kinds == {
        "head-assoc": 52, "middle-exchange": 92, "tail-assoc": 52, "output-pair-normal": 7
    }
    kinds = collections.Counter(f[0] for f in verify_stop(3).failures)
    assert kinds == {
        "left-normal-survives": 30, "right-normal-survives": 30,
        "inner-head-normal": 74, "inner-tail-normal": 74,
    }


def test_sweep_transfers_each_pair_once_and_checks_conservation(monkeypatch):
    # a transfer that moves all of a into b breaks crossing conservation
    # exactly where some pair of strands crosses in both a and b; each
    # distinct pair is transferred once and tested for normality once
    calls = collections.Counter()
    tested = collections.Counter()
    normal = oracle._is_normal_words

    def move_everything(a, b):
        calls[a, b] += 1
        return identity(len(a)), compose(a, b)

    def counted_normal(a, b):
        tested[a, b] += 1
        return normal(a, b)

    monkeypatch.setattr(normalform, "_TABLES", {})
    monkeypatch.setattr(oracle, "_transfer_words", move_everything)
    monkeypatch.setattr(oracle, "_is_normal_words", counted_normal)
    report = verify_gsb(3)
    perms = list(all_permutations(3))
    assert set(calls) == set(itertools.product(perms, perms)) and set(calls.values()) == {1}
    assert tested and set(tested.values()) == {1}
    broken = [tuple(f[1:]) for f in report.failures if f[0] == "crossing-conservation"]
    doubled = {
        (a, b) for a in perms for b in perms if inv(inverse(a)).bits & inv(b).bits
    }
    assert len(broken) == len(set(broken)) and set(broken) == doubled


def test_sweep_caches_live_for_one_call(monkeypatch):
    # each sweep transfers every distinct pair afresh: caches kept across
    # calls would make a sweep depend on the ones before it
    calls = collections.Counter()
    real = oracle._transfer_words

    def counting(a, b):
        calls[a, b] += 1
        return real(a, b)

    monkeypatch.setattr(oracle, "_transfer_words", counting)
    first, second = verify_gsb(3), verify_gsb(3)
    assert first == second and first.passed
    assert len(calls) == 36 and set(calls.values()) == {2}


def test_conservation_reads_each_words_bits_once_per_table(monkeypatch):
    # a moved pair costs one inversion_bits call, for its product; the bits
    # of its first factor and of its new head are read once per word
    calls = 0
    real = oracle.inversion_bits

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)

    perms = list(all_permutations(4))
    moves = {(a, b): oracle._transfer_words(a, b) for a in perms for b in perms}
    moved = [(a, b, head) for (a, b), (head, tail) in moves.items() if (head, tail) != (a, b)]
    words = {a for a, _, _ in moved} | {head for _, _, head in moved}
    monkeypatch.setattr(oracle, "inversion_bits", counting)
    assert verify_gsb(4).passed
    assert calls == len(moved) + len(words)


def test_verify_gsb_checks_arguments_before_any_transfer(monkeypatch):
    transfers = 0
    real = oracle._transfer_words

    def counting(a, b):
        nonlocal transfers
        transfers += 1
        return real(a, b)

    monkeypatch.setattr(normalform, "_TABLES", {})
    monkeypatch.setattr(oracle, "_transfer_words", counting)
    with pytest.raises(ValueError, match="n <= 5"):
        verify_gsb(6)
    assert transfers == 0
    assert verify_gsb(2).cases == 4 + 8 and transfers > 0


def test_triples_are_exhaustive_up_to_five_strands():
    assert oracle._triples(5, None, 42) == 3  # every triple, by rows
    with pytest.raises(ValueError, match="n <= 5"):
        oracle._triples(6, None, 42)


def test_exhaustive_bound_is_one_constant(monkeypatch):
    monkeypatch.setattr(oracle, "EXHAUSTIVE_MAX_STRANDS", 3)
    assert oracle._pairs(3) == 2 and oracle._triples(3, None, 42) == 3
    for sweep, message in [
        (verify_gsb, "exhaustive triples need n <= 3; pass samples for larger n"),
        (verify_stop, "exhaustive triples need n <= 3; pass samples for larger n"),
        (oracle.verify_commuting, "diagnostic sweep is exhaustive; keep n <= 3"),
        (verify_meet, "exhaustive meet sweep needs n <= 3; pass samples"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(4)


def test_gsb_and_stop_run_every_triple_at_five_strands():
    # the row path makes the exhaustive n = 5 sweeps cheap enough for tier-1:
    # 1.9-2.5 s together on a 2-core VM; the bound leaves room for its swings
    started = time.perf_counter()
    gsb, stop = verify_gsb(5), verify_stop(5)
    elapsed = time.perf_counter() - started
    assert (gsb.cases, gsb.failures) == (120**2 + 120**3, [])
    assert (stop.cases, stop.failures) == (120**3, [])
    assert elapsed < 6.0, f"gsb and stop at n = 5 took {elapsed:.2f}s"


ARITY = {"pair": 2, "exchange": 3, "stop": 3, "strict": 2, "commuting": 2}


def _both_paths(n, group):
    """One group over every tuple of S_n: by rows (an int part), then case by case."""
    every = itertools.product(all_permutations(n), repeat=ARITY[group])
    return oracle._sweep(group, n, (group, ARITY[group])), oracle._sweep(group, n, (group, every))


def test_row_path_is_the_scalar_sweep():
    # the scalar sweep is the row path's twin: same cases, same failure
    # records in the same order; the strict group fails on 6 and 150 cases
    # and commuting on 4 at n = 4, so failing rows are re-run case by case
    failing = {(3, "strict"): 6, (4, "strict"): 150, (4, "commuting"): 4}
    for n in (3, 4):
        for group in ARITY:
            rows, scalar = _both_paths(n, group)
            assert rows == scalar, (n, group)
            assert rows.cases == math.factorial(n) ** ARITY[group]
            assert len(rows.failures) == failing.get((n, group), 0), (n, group)


def test_row_path_reruns_only_the_laws_a_row_fails(monkeypatch):
    # a failing row is evaluated again case by case for the laws it fails
    # only: at n = 4 the strict group's idempotence fails on 14 of the 24
    # rows and flush-pair-normal on 19
    for group in ("strict", "commuting"):
        scalar = collections.Counter()

        def counted(name, law):
            def run(h, t, N, *case):
                scalar[name] += type(case[-1]) is int
                return law(h, t, N, *case)

            return name, run

        laws = oracle.LAWS[group]
        monkeypatch.setitem(oracle.LAWS, group, tuple(counted(*row) for row in laws))
        report = oracle._sweep(group, 4, (group, 2))
        rows = {name: {f[1] for f in report.failures if f[0] == name} for name, _ in laws}
        assert scalar == {name: 24 * len(firsts) for name, firsts in rows.items()}, group
        if group == "strict":
            assert [len(rows["idempotence"]), len(rows["flush-pair-normal"])] == [14, 19]


def test_row_path_is_the_scalar_sweep_under_a_broken_transfer(monkeypatch):
    # a transfer that moves all of a into b breaks conservation and most
    # laws; the row path fills every pair before it evaluates a law, so its
    # crossing-conservation records come in fill order, first; the scalar
    # sweep records them at first use.  The rest match in order.
    def move_everything(a, b):
        return identity(len(a)), compose(a, b)

    monkeypatch.setattr(oracle, "_transfer_words", move_everything)
    for group in ARITY:
        rows, scalar = _both_paths(3, group)
        assert rows.cases == scalar.cases and rows.failures, group
        split = [
            ([f for f in r.failures if f[0] == "crossing-conservation"],
             [f for f in r.failures if f[0] != "crossing-conservation"])
            for r in (rows, scalar)
        ]
        (row_broken, row_laws), (scalar_broken, scalar_laws) = split
        assert row_laws == scalar_laws, group
        assert sorted(row_broken) == sorted(scalar_broken) and row_broken, group


def test_a_corrupt_transfer_entry_fails_both_paths(monkeypatch):
    # swapping the head and tail of one pair's transfer, (2,3,1) against
    # itself, is caught by the row path (exhaustive) and by the scalar one
    # (sampled triples), both recording the broken pair once
    real = oracle._transfer_words
    victim = (2, 3, 1)

    def swapped(a, b):
        head, tail = real(a, b)
        return (tail, head) if a == b == victim else (head, tail)

    monkeypatch.setattr(oracle, "_transfer_words", swapped)
    exchange = {"head-assoc", "middle-exchange", "tail-assoc"}
    stop = {"left-normal-survives", "right-normal-survives", "inner-head-normal", "inner-tail-normal"}
    reports = {
        "gsb rows": (verify_gsb(3), exchange),
        "stop rows": (verify_stop(3), stop),
        "gsb sampled": (verify_gsb(3, samples=200, seed=5), exchange),
        "stop sampled": (verify_stop(3, samples=200, seed=5), stop),
    }
    for path, (report, laws) in reports.items():
        kinds = collections.Counter(f[0] for f in report.failures)
        assert laws <= set(kinds), (path, kinds)
        assert kinds["crossing-conservation"] == 1, path
        assert ["crossing-conservation", victim, victim] in report.failures, path


def test_confluence_twin_transfers_each_pair_once_per_call(monkeypatch):
    # the rewriting twin reads the oracle's own pair table, built per call:
    # a table kept across calls would skip the second call's transfers
    calls = collections.Counter()
    real = oracle._transfer_words

    def counting(a, b):
        calls[a, b] += 1
        return real(a, b)

    monkeypatch.setattr(oracle, "_transfer_words", counting)
    first, second = verify_confluence(3, 10, 50, 1), verify_confluence(3, 10, 50, 1)
    assert first == second and first.passed
    assert calls and set(calls.values()) == {2}
    assert all(not oracle._is_normal_words(a, b) for a, b in calls)


def test_confluence_twin_rewrites_with_the_oracle_transfer(monkeypatch):
    # a transfer that moves all of a into b breaks crossing conservation and
    # confluence; the twin must take it from the oracle, not from a table
    # that an earlier, unpatched call filled
    def move_everything(a, b):
        return identity(len(a)), compose(a, b)

    assert verify_confluence(3, 10, 50, 1).passed
    monkeypatch.setattr(oracle, "_transfer_words", move_everything)
    kinds = collections.Counter(f[0] for f in verify_confluence(3, 10, 50, 1).failures)
    assert kinds == {"crossing-conservation": 35, "confluence": 20}


def test_confluence_twin_builds_only_the_engines_forms(monkeypatch):
    # the strategies' results are judged by comparison alone: one positive
    # form is built per word, the engine's own, and none for the strategies.
    # The value base looks __post_init__ up on the instance, so the wrapper
    # set on the class sees every construction
    built = []
    validate = normalform.PositiveNormalForm.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(normalform.PositiveNormalForm, "__post_init__", counted)
    assert verify_confluence(3, 10, 50, 1).passed
    assert len(built) == 50


# sha256 of verify_confluence(n, 20, 1000, seed).to_json(), as reported by the
# per-word implementation the call replaced: passing, and under a transfer
# that moves all of a into b, whose failure records carry the seeded words
CONFLUENCE_SHA256 = {
    3: "3085954630fcdd7da83569004605f5eaf90bf6f6e123d7e02604abdeea01487b",
    4: "2c4a3d194c94a42396fc078ab1135055aa474ddcbe7d34869ed676049accbd2b",
    5: "2885f373eb031732f5dbfd29f8d0e5c694891b17cfc2f6a9e97f82e2d203588a",
    6: "7e0c2dc72189ef9bba21d0ba0ed01423f15c34f3fd3103a2b51f125f18dcc4f2",
}
BROKEN_CONFLUENCE_SHA256 = {
    (3, 42): "93b69aa0fb809062a43505f19de7fd134878c043f151ed7bcd6e70f712b65954",
    (3, 577975213): "a3a2efe2e7c50eac5beb26146fa7559a4a3507f6c85e6bbd3b46f00c4c80a1f0",
    (4, 42): "9124e46300f845b94cab03c425c02090623fdbc70729d09a06e6660ab17fd52f",
    (4, 577975213): "432762094d5b0f44a728ce2d9f96a6482bb841ec6a5945238e1bb4dca42a3e53",
    (5, 42): "51572aefbfd855605450165b6d6810a43bc66c3ff8c1405f67c4cfe5de09be58",
    (5, 577975213): "673f243ddfc38bb283a0e62072762f705a703009b73105f0b55244d72adf6ec8",
    (6, 42): "2079637d254804e1502c91c168c860f0cbec246252d17aa1dfcefbade069e95e",
    (6, 577975213): "ad7182cefd3802482931a59e33a8b17daa590c68e9d0d719c2e9d757dc2658fa",
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_confluence_reports_are_pinned(n, monkeypatch):
    def sha256(report):
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    def move_everything(a, b):
        return identity(len(a)), compose(a, b)

    for seed in (42, 577975213):
        assert sha256(verify_confluence(n, 20, 1000, seed)) == CONFLUENCE_SHA256[n]
    monkeypatch.setattr(oracle, "_transfer_words", move_everything)
    for seed in (42, 577975213):
        assert sha256(verify_confluence(n, 20, 1000, seed)) == BROKEN_CONFLUENCE_SHA256[n, seed]


def test_confluence_reports_a_rewrite_count_over_the_bound(monkeypatch):
    # with a bound of 0 every word that rewrites at all is over it
    monkeypatch.setattr(oracle, "rewrite_potential", lambda word: 0)
    report = verify_confluence(3, length=6, samples=5, seed=1)
    assert not report.passed and len(report.failures) == 6
    assert report.failures[0] == ["termination-bound", "leftmost", [1, 2], 1, 0]
    assert {f[0] for f in report.failures} == {"termination-bound"}


def test_verify_confluence_small():
    report = verify_confluence(3, length=10, samples=300, seed=42)
    assert report.passed, report.failures[:3]
    assert report.cases == 300
    with pytest.raises(ValueError):
        verify_confluence(7)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_confluence(3, samples=0)
    with pytest.raises(ValueError, match="length must be at least 0"):
        verify_confluence(3, length=-5)
    with pytest.raises(ValueError, match="length must be at most 1000000"):
        verify_confluence(3, length=1_000_001)


def test_three_letter_words_close_for_all_s4_triples():
    # every way of resolving the overlapping pair in a three-letter word
    # ends at the same normal form
    braids = [SimpleBraid(p) for p in all_permutations(4)]
    for a, b, c in itertools.product(braids, braids, braids):
        w = PositiveWord(4, (a, b, c))
        assert gs_rewrite_to_fixpoint(w, "leftmost") == gs_rewrite_to_fixpoint(w, "rightmost")


def test_verify_meet_exhaustive_small():
    report = verify_meet(4)
    assert report.passed
    assert report.cases == 24 * 24
    sampled = verify_meet(6, samples=500, seed=9)
    assert sampled.passed
    with pytest.raises(ValueError, match=r"^enumeration of S_8 is too large; need n <= 7$"):
        verify_meet(8)
    with pytest.raises(ValueError):
        verify_meet(6)  # needs samples above the exhaustive bound
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_meet(6, samples=-3)


def test_verify_meet_reads_s_n_from_the_weak_order_table(monkeypatch):
    # the seeded pairs are rng.choice draws from S_n listed in
    # all_permutations order, and their inversion sets come from the table:
    # with it built, the only inversion_bits calls are the engine meets'
    oracle._weak_order(7)
    listed, rng = list(all_permutations(7)), random.Random(42)
    draws = [(rng.choice(listed), rng.choice(listed)) for _ in range(200)]
    seen, calls = [], collections.Counter()
    real_meet, real_bits = oracle.brute_meet, oracle.inversion_bits

    def recording(r1, r2):
        seen.append((r1.bits, r2.bits))
        return real_meet(r1, r2)

    def counting(p):
        calls[p] += 1
        return real_bits(p)

    monkeypatch.setattr(oracle, "brute_meet", recording)
    monkeypatch.setattr(oracle, "inversion_bits", counting)
    monkeypatch.setattr(perms, "inversion_bits", counting)  # under from_permutation
    assert verify_meet(7, samples=200).passed
    assert seen == [(real_bits(p), real_bits(q)) for p, q in draws]
    assert calls == collections.Counter(lattice.meet_permutations(p, q) for p, q in draws)


def test_verify_meet_reports_broken_meets(monkeypatch):
    monkeypatch.setattr(normalform, "_TABLES", {})
    with monkeypatch.context() as m:
        # the fixpoint deletes nothing: meet raises on gapped intersections
        m.setattr(lattice, "_interval_closed_fixpoint", lambda n, bits: bits)
        report = verify_meet(4)
        assert report.cases == 576 and report.failures
        assert {f[0] for f in report.failures} == {"meet"}
    monkeypatch.setattr(oracle, "meet_permutations", lambda u, v: identity(len(u)))
    report = verify_meet(4)
    assert report.failures
    assert {f[0] for f in report.failures} == {"meet-permutations"}


def test_verify_meet_checks_the_transition_table(monkeypatch):
    # step rows with head and tail swapped are caught on every pair they
    # rewrite into two different factors, and only there
    monkeypatch.setattr(normalform, "_TABLES", {})
    tables = normalform._alphabet(3)
    pairs = list(itertools.product(range(len(tables.step)), repeat=2))
    steps = {(a, b): tables.step[a][b] for a, b in pairs}
    swapped = [
        {b: None if step is None else step[::-1] for b, step in row.items()}
        for row in tables.step
    ]
    monkeypatch.setitem(normalform._TABLES, 3, tables._replace(step=swapped))
    report = verify_meet(3)
    assert report.cases == 36
    assert {f[0] for f in report.failures} == {"table"}
    differ = set()
    for (a, b), step in steps.items():
        if step is not None and step[0] != step[1]:
            differ.add((tables.braid(a).perm, tables.braid(b).perm))
    assert {(f[1], f[2]) for f in report.failures} == differ and differ
    # failure records stay in one-line notation
    assert all(len(p) == 3 for f in report.failures for p in (f[1], f[2], *f[3], *f[4]))


def test_verify_meet_checks_the_transition_table_at_six_strands(monkeypatch):
    # six strands have rank tables too, so the sampled sweep reads the step
    # rows; rows with head and tail swapped are caught on every drawn pair
    # they rewrite into two different factors, in draw order, and only there
    monkeypatch.setattr(normalform, "_TABLES", {})
    tables = normalform._alphabet(6)

    class SwappedRow(dict):
        def __init__(self, row):
            self.row = row

        def __missing__(self, b):
            step = self.row[b]
            return None if step is None else step[::-1]

    swapped = [SwappedRow(row) for row in tables.step]
    monkeypatch.setitem(normalform._TABLES, 6, tables._replace(step=swapped))
    report = verify_meet(6, samples=300, seed=17)
    assert report.cases == 300
    assert {f[0] for f in report.failures} == {"table"}
    listed, rng = list(all_permutations(6)), random.Random(17)
    draws = [(rng.choice(listed), rng.choice(listed)) for _ in range(300)]

    def differ(p, q):
        step = tables.step[tables.letter(p)][tables.letter(q)]
        return step is not None and step[0] != step[1]

    expected = [(p, q) for p, q in draws if differ(p, q)]
    assert [(f[1], f[2]) for f in report.failures] == expected and expected
    assert all(len(p) == 6 for f in report.failures for p in (f[1], f[2], *f[3], *f[4]))


def test_verify_meet_checks_the_transition_table_at_seven_strands(monkeypatch):
    # above the table bound the sweep reads the word alphabet's step; with
    # head and tail swapped in its transfer it is caught on every drawn pair
    # that rewrites into two different factors, in draw order, and only there
    step_words = normalform._step_words

    def swapped(a, b):
        step = step_words(a, b)
        return None if step is None else step[::-1]

    monkeypatch.setattr(normalform, "_step_words", swapped)
    report = verify_meet(7, samples=300, seed=17)
    assert report.cases == 300
    assert {f[0] for f in report.failures} == {"table"}
    listed, rng = list(all_permutations(7)), random.Random(17)
    draws = [(rng.choice(listed), rng.choice(listed)) for _ in range(300)]

    def differ(p, q):
        step = step_words(p, q)
        return step is not None and step[0] != step[1]

    expected = [(p, q) for p, q in draws if differ(p, q)]
    assert [(f[1], f[2]) for f in report.failures] == expected and expected
    assert all(len(p) == 7 for f in report.failures for p in (f[1], f[2], *f[3], *f[4]))
    assert 7 not in normalform._TABLES


def test_verify_validity():
    for n in (3, 4):
        report = verify_validity(n)
        assert report.passed
        assert report.cases == 1 << (n * (n - 1) // 2)
    with pytest.raises(ValueError):
        verify_validity(7)


def test_report_serialisation():
    report = VerificationReport("demo", 3, 10, [["item", (1, 2, 3)]])
    payload = json.loads(report.to_json())
    assert payload["suite"] == "demo"
    assert payload["n"] == 3
    assert payload["cases"] == 10
    assert payload["failure_count"] == 1
    assert not report.passed
    assert "diagnostic" not in payload
    assert VerificationReport("demo", 3, 10, []).passed
    diagnostic = VerificationReport("demo", 3, 10, [["item"]], diagnostic=True)
    assert json.loads(diagnostic.to_json())["diagnostic"] is True
