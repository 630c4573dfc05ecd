import itertools
import random

import pytest

from braidnf import lattice
from braidnf.lattice import (
    InversionSet,
    complement,
    deglex_compare,
    deglex_key,
    join,
    leq,
    meet,
    meet_permutations,
    star,
)
from braidnf.oracle import brute_meet
from braidnf.perms import (
    PairSet,
    all_permutations,
    adjacent_transposition,
    compose,
    full_bits,
    identity,
    inverse,
    inversion_bits,
    inversion_set,
    is_inversion_set,
    omega,
)
from twins import near_top

PI6 = (4, 2, 6, 1, 5, 3)

# a pair of six-strand braids whose transfer meet is nonempty even though
# the pairwise intersection violates betweenness; hand-checked and pinned
# against the enumeration oracle
A_GAP = (3, 5, 4, 2, 6, 1)
B_GAP = (2, 1, 5, 6, 3, 4)


def inv(p):
    return InversionSet.from_permutation(p)


def test_inversion_set_validation():
    with pytest.raises(ValueError):
        InversionSet.from_pairs(3, [(1, 2), (2, 3)])
    r = inv(PI6)
    assert len(r) == 8
    assert (1, 2) in r


def test_inversion_set_is_a_validated_pair_set():
    r = inv(PI6)
    assert isinstance(r, PairSet)
    gapped = PairSet.from_pairs(3, [(1, 2), (2, 3)]).bits
    with pytest.raises(ValueError) as caught:
        InversionSet(3, gapped)
    assert str(caught.value) == "not an inversion set: ((1, 2), (2, 3))"
    with pytest.raises(ValueError) as caught:
        InversionSet(3, full_bits(3) + 1)
    assert str(caught.value) == "bit array out of range for n=3"
    with pytest.raises(ValueError) as caught:
        InversionSet(0, 0)
    assert str(caught.value) == "need at least one strand"
    # _trusted runs no check; the constructor and from_pairs run both
    assert InversionSet._trusted(3, gapped).bits == gapped
    with pytest.raises(ValueError, match="need at least one strand"):
        InversionSet.from_permutation(())
    with pytest.raises(ValueError, match="not an inversion set"):
        InversionSet.from_pairs(3, [(1, 2), (2, 3)])
    assert type(InversionSet.from_pairs(3, [(1, 2)])) is InversionSet
    # an intersection need not be an inversion set
    assert type(r & complement(r)) is PairSet
    plain = PairSet(r.n, r.bits)
    assert r != plain and plain != r
    assert len({r, plain}) == 2
    for p in all_permutations(4):
        assert InversionSet.from_permutation(p) == InversionSet(4, inversion_bits(p))


def test_trusted_sets_equal_their_checked_twins():
    # from_permutation, complement and star build through _trusted: each
    # result must be the set the checked constructor accepts, with the
    # pair-set range test and the inversion-set test both run
    rng = random.Random(51)
    perms = [p for n in range(1, 6) for p in all_permutations(n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for n in (64, 64, 64, 1024)]
    for p in perms:
        r = InversionSet.from_permutation(p)
        for trusted in (r, complement(r), star(r, p)):
            assert trusted == InversionSet(len(p), trusted.bits)


def test_complement():
    got = complement(inv(PI6))
    assert got.pairs() == ((1, 3), (1, 5), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6))
    assert complement(inv(identity(5))).bits == full_bits(5)
    for p in all_permutations(4):
        r = inv(p)
        assert complement(complement(r)).bits == r.bits
        # complementing is appending the reversing permutation
        assert complement(r).bits == inversion_set(compose(p, omega(4))).bits


def test_star():
    a = (3, 5, 4, 2, 6, 1)
    got = star(inv(a), a)
    assert got.pairs() == (
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (4, 5),
    )
    assert star(inv(identity(4)), identity(4)).bits == 0
    assert star(inv(PI6), PI6).pairs() == inv(PI6).pairs()
    for p in all_permutations(4):
        s = star(inv(p), p)
        assert s.bits == inversion_set(inverse(p)).bits
        assert star(s, inverse(p)).bits == inv(p).bits
    with pytest.raises(ValueError):
        star(inv(a), PI6)


def test_meet_fixed_values():
    # transfer meet of a six-strand pair: intersection already valid
    a, b = (3, 5, 4, 2, 6, 1), (5, 3, 6, 1, 4, 2)
    got = meet(inv(inverse(a)), inv(compose(b, omega(6))))
    assert got.pairs() == ((1, 3), (2, 3), (2, 5), (4, 5))
    for p in all_permutations(4):
        assert meet(inv(p), inv(identity(4))).bits == 0


def test_meet_on_gapped_intersection():
    r1 = inv(inverse(A_GAP))
    r2 = complement(inv(B_GAP))
    inter = r1 & r2
    assert not is_inversion_set(inter)
    got = meet(r1, r2)
    assert got.bits == brute_meet(r1, r2).bits
    assert (2, 3) in got
    assert got.pairs() == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))


def test_meet_has_no_fallback(monkeypatch):
    # a fixpoint that deletes nothing leaves the gapped intersection, which
    # meet must reject rather than replace by another answer
    monkeypatch.setattr(lattice, "_interval_closed_fixpoint", lambda n, bits: bits)
    with pytest.raises(ValueError, match="not an inversion set"):
        meet(inv(inverse(A_GAP)), complement(inv(B_GAP)))


def test_meet_is_greatest_lower_bound_s4():
    perms = list(all_permutations(4))
    invs = {p: inv(p) for p in perms}
    for p, q in itertools.product(perms, perms):
        m = meet(invs[p], invs[q])
        assert is_inversion_set(m)
        assert leq(m, invs[p]) and leq(m, invs[q])
        # contains every common lower bound
        for r in perms:
            if leq(invs[r], invs[p]) and leq(invs[r], invs[q]):
                assert leq(invs[r], m)


def test_meet_matches_brute_force_s4():
    perms = list(all_permutations(4))
    for p, q in itertools.product(perms, perms):
        assert meet(inv(p), inv(q)).bits == brute_meet(inv(p), inv(q)).bits


def test_fixpoint_deletion_order_is_irrelevant():
    # deleting betweenness violations one at a time in random order reaches
    # the same fixpoint as the batch deletion inside meet
    rng = random.Random(11)
    perms6 = list(all_permutations(6))
    for _ in range(150):
        p, q = rng.choice(perms6), rng.choice(perms6)
        r1, r2 = inv(p), inv(q)
        bits = {pair for pair in r1 & r2}
        while True:
            violating = [
                (i, k)
                for (i, k) in bits
                if any(
                    (i, j) not in bits and (j, k) not in bits
                    for j in range(i + 1, k)
                )
            ]
            if not violating:
                break
            bits.discard(rng.choice(violating))
        assert PairSet.from_pairs(6, bits).bits == meet(r1, r2).bits


def test_join():
    s1, s2 = adjacent_transposition(3, 1), adjacent_transposition(3, 2)
    assert join(inv(s1), inv(s2)).bits == full_bits(3)
    top = InversionSet(4, full_bits(4))
    for p in all_permutations(4):
        assert join(inv(p), top).bits == top.bits
        assert join(inv(p), inv(p)).bits == inv(p).bits


def test_lattice_laws_s4():
    perms = list(all_permutations(4))
    invs = [inv(p) for p in perms]
    rng = random.Random(3)
    for _ in range(400):
        r1, r2 = rng.choice(invs), rng.choice(invs)
        assert meet(r1, r1).bits == r1.bits
        assert meet(r1, r2).bits == meet(r2, r1).bits
        assert join(r1, r2).bits == join(r2, r1).bits
        assert meet(r1, join(r1, r2)).bits == r1.bits
        assert join(r1, meet(r1, r2)).bits == r1.bits
        assert leq(meet(r1, r2), r1)
        assert leq(r1, join(r1, r2))


def test_complement_is_antitone():
    perms = list(all_permutations(4))
    for p, q in itertools.product(perms, perms):
        r1, r2 = inv(p), inv(q)
        if leq(r1, r2):
            assert leq(complement(r2), complement(r1))


def test_leq():
    s1 = inv(adjacent_transposition(3, 1))
    assert leq(inv(identity(3)), s1)
    assert leq(s1, inv((3, 1, 2)))
    assert not leq(s1, inv(adjacent_transposition(3, 2)))


def test_deglex():
    s1 = inv(adjacent_transposition(3, 1))
    s2 = inv(adjacent_transposition(3, 2))
    e = inv(identity(3))
    assert deglex_compare(e, s1) == -1
    assert deglex_compare(s1, s2) == -1  # equal degree, (1,2) before (2,3)
    assert deglex_compare(s2, s2) == 0
    # a total order: keys of S_4 are pairwise distinct and sortable
    keys = sorted(deglex_key(inv(p)) for p in all_permutations(4))
    assert len(set(keys)) == 24


def test_meet_permutations_matches_meet():
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for p, q in itertools.product(perms, perms):
            m = meet_permutations(p, q)
            assert inversion_set(m).bits == meet(inv(p), inv(q)).bits
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(5, 8)
        p = tuple(rng.sample(range(1, n + 1), n))
        q = tuple(rng.sample(range(1, n + 1), n))
        m = meet_permutations(p, q)
        assert inversion_set(m).bits == meet(inv(p), inv(q)).bits


def test_meet_permutations_near_the_top():
    # the engine's heaviest meets: omega with a few adjacent swaps, as
    # either argument or both, against the independent fixpoint meet
    rng = random.Random(11)
    for n, rounds in ((16, 25), (64, 3)):
        top = omega(n)
        assert meet_permutations(top, top) == top
        for _ in range(rounds):
            x, y = near_top(rng, n), near_top(rng, n)
            r = tuple(rng.sample(range(1, n + 1), n))
            for p, q in ((x, r), (r, y), (x, y)):
                m = meet_permutations(p, q)
                assert inversion_set(m).bits == meet(inv(p), inv(q)).bits


def test_meet_permutations_descents_are_the_common_descents():
    def descents(p):
        return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}

    rng = random.Random(12)
    hidden = 0  # pairs with common inversions but no common descent
    for _ in range(3000):
        n = rng.randint(2, 9)
        p, q = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
        m = meet_permutations(p, q)
        assert descents(m) == descents(p) & descents(q)
        if not descents(p) & descents(q):
            assert m == identity(n) and meet(inv(p), inv(q)).bits == 0
            hidden += inversion_set(p).bits & inversion_set(q).bits != 0
    assert hidden > 100


class _Counted(int):
    """An int that counts its < and > comparisons."""

    count = 0

    def __lt__(self, other):
        _Counted.count += 1
        return int.__lt__(self, other)

    def __gt__(self, other):
        _Counted.count += 1
        return int.__gt__(self, other)


def test_meet_pass_is_linear_past_crossing_boundaries():
    # a near-top left factor against a sparse right one, the engine's
    # commonest heavy pair: every entry that passes the whole list marks a
    # crossing boundary, and no later walk goes back past it
    for n in (64, 256, 1024):
        rng = random.Random(n)
        for _ in range(5):
            a = list(omega(n))
            for i in rng.sample(range(n - 1), n // 4):
                a[i], a[i + 1] = a[i + 1], a[i]
            b = list(identity(n))
            for _ in range(3):
                i = rng.randrange(n - 1)
                b[i], b[i + 1] = b[i + 1], b[i]
            _Counted.count = 0
            us, bs = lattice._meet_reads(
                [_Counted(x) for x in inverse(a)], [_Counted(x) for x in b]
            )
            assert _Counted.count <= 4 * n
            if n == 64:
                m = compose(inverse(a), inverse(us))
                want = meet(inv(inverse(a)), inv(compose(b, omega(n))))
                assert inversion_set(m).bits == want.bits
                assert tuple(bs) == compose(inverse(m), b)


def _block_sum(rng, sizes, skew):
    """Random blocks of the given sizes, placed low to high (a direct sum)
    or high to low (a skew sum)."""
    n, out, done = sum(sizes), [], 0
    for k in sizes:
        low = n - done - k if skew else done
        out += rng.sample(range(low + 1, low + k + 1), k)
        done += k
    return tuple(out)


def test_meet_permutations_on_block_sums():
    # skew sums put the largest values first, so their block boundaries are
    # the crossing boundaries at which the insertion pass starts its walks;
    # random permutations seldom have any
    def sizes(n):
        out = []
        while sum(out) < n:
            out.append(min(rng.randint(1, 6), n - sum(out)))
        return out

    rng = random.Random(13)
    for _ in range(3000):
        n = rng.randint(6, 40)
        su = sizes(n)
        sv = su if rng.random() < 0.5 else sizes(n)
        p = _block_sum(rng, su, rng.random() < 0.5)
        q = _block_sum(rng, sv, rng.random() < 0.5)
        got = inversion_set(meet_permutations(p, q)).bits
        assert got == meet(inv(p), inv(q)).bits
        if n <= 7:
            assert got == brute_meet(inv(p), inv(q)).bits
