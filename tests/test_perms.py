import random
import re
import time

import pytest

from braidnf.lattice import leq
from braidnf.perms import (
    PairSet,
    act_on_pairs,
    adjacent_transposition,
    all_permutations,
    check_permutation,
    compose,
    flip,
    full_bits,
    identity,
    inverse,
    inversion_bits,
    inversion_set,
    is_inversion_set,
    is_permutation,
    length,
    omega,
    pair_count,
    pair_slot,
    permutation_from_inversions,
)

# A six-strand permutation used across several fixed-value tests; its
# inversion set, complement and star were checked by hand and against the
# enumeration oracle.
PI6 = (4, 2, 6, 1, 5, 3)
PI6_INVERSIONS = {(1, 2), (1, 4), (1, 6), (2, 4), (3, 4), (3, 5), (3, 6), (5, 6)}


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((1,))
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1, 3))
    assert not is_permutation((0, 1))
    assert not is_permutation((2, 3))


@pytest.mark.parametrize("word", [(1.0, 2.0), (2, "1"), ("2", "1")])
def test_check_permutation_refuses_non_integer_entries(word):
    with pytest.raises(ValueError, match=rf"^not a permutation of 1\.\.2: {re.escape(repr(word))}$"):
        check_permutation(word)


def test_check_permutation_accepts_index_types():
    assert check_permutation((True,)) == (True,)
    assert check_permutation([2, 1]) == (2, 1)


def test_identity_and_omega():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)
    assert omega(6) == (6, 5, 4, 3, 2, 1)
    assert omega(2) == (2, 1)
    assert compose(omega(5), omega(5)) == identity(5)
    assert len(inversion_set(identity(6))) == 0
    with pytest.raises(ValueError):
        identity(0)


def test_adjacent_transposition():
    assert adjacent_transposition(3, 1) == (2, 1, 3)
    assert adjacent_transposition(3, 2) == (1, 3, 2)
    assert inversion_set(adjacent_transposition(3, 1)).pairs() == ((1, 2),)
    with pytest.raises(ValueError):
        adjacent_transposition(3, 3)
    with pytest.raises(ValueError):
        adjacent_transposition(3, 0)


def test_compose_left_factor_first():
    a = (3, 1, 7, 8, 4, 5, 2, 6)
    x = (2, 7, 1, 3, 4, 8, 5, 6)
    assert compose(a, x) == (1, 2, 5, 6, 3, 4, 7, 8)
    s1, s2 = adjacent_transposition(3, 1), adjacent_transposition(3, 2)
    assert compose(s1, s2) == (3, 1, 2)
    assert compose(a, identity(8)) == a
    with pytest.raises(ValueError):
        compose(s1, identity(4))


def test_inverse():
    assert inverse((3, 1, 7, 8, 4, 5, 2, 6)) == (2, 7, 1, 5, 6, 8, 3, 4)
    assert inverse((2, 7, 1, 3, 4, 8, 5, 6)) == (3, 1, 4, 5, 7, 8, 2, 6)
    assert inverse(identity(5)) == identity(5)
    for p in all_permutations(5):
        assert compose(p, inverse(p)) == identity(5)


def test_flip():
    assert flip(adjacent_transposition(3, 1)) == adjacent_transposition(3, 2)
    assert flip(omega(4)) == omega(4)
    for p in all_permutations(4):
        assert flip(flip(p)) == p
        assert flip(p) == compose(compose(omega(4), p), omega(4))
        assert len(inversion_set(flip(p))) == len(inversion_set(p))


def test_inverse_and_flip_keep_bytes():
    # on bytes, up to the 255 strands a byte can number, inverse and flip
    # are table calls that return bytes, the tuple results as bytes
    rng = random.Random(4504)
    for n in range(1, 256):
        for p in (identity(n), omega(n), tuple(rng.sample(range(1, n + 1), n))):
            for op in (inverse, flip):
                got = op(bytes(p))
                assert got.__class__ is bytes and got == bytes(op(p)), (op, p)


def test_pair_set_basics():
    s = PairSet.from_pairs(4, [(1, 2), (2, 4)])
    assert (1, 2) in s and (2, 4) in s and (1, 3) not in s
    assert len(s) == 2
    assert s.pairs() == ((1, 2), (2, 4))
    assert (s & PairSet.from_pairs(4, [(2, 4)])).pairs() == ((2, 4),)
    assert leq(s, PairSet(4, full_bits(4)))
    with pytest.raises(ValueError):
        PairSet.from_pairs(3, [(2, 2)])
    with pytest.raises(ValueError):
        PairSet.from_pairs(3, [(1, 4)])
    with pytest.raises(ValueError):
        s & PairSet(5, 0)
    # a pair out of range is not a member, even with every bit set
    full = PairSet(3, 0b111)
    assert (1, 2) in full
    assert (0, 1) not in full and (2, 1) not in full and (1, 4) not in full


def test_inversion_set_values():
    assert set(inversion_set(PI6)) == PI6_INVERSIONS
    assert inversion_set(identity(5)).bits == 0
    assert len(inversion_set(omega(4))) == 6
    assert inversion_set(omega(4)).bits == full_bits(4)
    for n in range(1, 7):
        assert len(inversion_set(omega(n))) == n * (n - 1) // 2


def test_inversion_bits_match_the_pair_by_pair_definition():
    # one bit per inversion (i, j), i < j and p(i) > p(j), at pair_slot(i, j)
    rng = random.Random(211)
    for n in range(1, 41):
        for p in [identity(n), omega(n)] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(5)]:
            want = sum(
                1 << pair_slot(i, j)
                for j in range(2, n + 1)
                for i in range(1, j)
                if p[i - 1] > p[j - 1]
            )
            assert inversion_bits(p) == want, p


def test_act_on_pairs():
    r = inversion_set(PI6)
    assert set(act_on_pairs(PI6, r)) == PI6_INVERSIONS  # self-image for this one
    assert act_on_pairs(identity(6), r).bits == r.bits
    assert act_on_pairs(omega(3), PairSet.from_pairs(3, [(1, 2)])).pairs() == ((2, 3),)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 7)
        p = tuple(rng.sample(range(1, n + 1), n))
        bits = rng.getrandbits(pair_count(n))
        s = PairSet(n, bits)
        image = act_on_pairs(p, s)
        assert len(image) == len(s)
        assert act_on_pairs(inverse(p), image).bits == s.bits
    with pytest.raises(ValueError):
        act_on_pairs(identity(4), PairSet(5, 0))


def test_is_inversion_set_values():
    bad = PairSet.from_pairs(6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5)])
    assert not is_inversion_set(bad)  # betweenness fails at (1, 6)
    assert is_inversion_set(PairSet(4, 0))
    assert not is_inversion_set(PairSet.from_pairs(3, [(1, 2), (2, 3)]))  # needs (1, 3)
    assert is_inversion_set(PairSet(5, full_bits(5)))


def test_is_inversion_set_matches_enumeration_small():
    # all subsets at n <= 4 against the set of realised inversion sets
    for n in (2, 3, 4):
        realised = {inversion_set(p).bits for p in all_permutations(n)}
        for bits in range(1 << pair_count(n)):
            assert is_inversion_set(PairSet(n, bits)) == (bits in realised)


def test_permutation_from_inversions_values():
    s = PairSet.from_pairs(
        8, [(1, 3), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (6, 7), (6, 8)]
    )
    assert permutation_from_inversions(s) == (2, 7, 1, 3, 4, 8, 5, 6)
    assert permutation_from_inversions(PairSet(5, 0)) == identity(5)
    assert permutation_from_inversions(PairSet.from_pairs(3, [(1, 2)])) == (2, 1, 3)
    with pytest.raises(ValueError):
        permutation_from_inversions(PairSet.from_pairs(3, [(1, 2), (2, 3)]))


def test_permutation_from_inversions_roundtrip():
    for n in range(1, 6):
        for p in all_permutations(n):
            assert permutation_from_inversions(inversion_set(p)) == p


def test_length():
    assert length(identity(6)) == 0
    assert length(omega(6)) == 15
    for p in all_permutations(5):
        assert length(p) == len(inversion_set(p))


def _slot_pairs(n, bits):
    """The slot-formula twin: each set bit decoded through pair_slot, in slot order."""
    pair_at = {pair_slot(i, j): (i, j) for j in range(2, n + 1) for i in range(1, j)}
    return [pair_at[k] for k in range(pair_count(n)) if bits >> k & 1]


def _bit_arrays():
    """(n, bits): every array at n <= 5, then 200 seeded arrays at each of n = 6, 8, 16, 64."""
    for n in range(1, 6):
        for bits in range(1 << pair_count(n)):
            yield n, bits
    rng = random.Random(291)
    for n in (6, 8, 16, 64):
        for _ in range(200):
            yield n, rng.getrandbits(pair_count(n))


def test_row_reader_matches_the_slot_formula():
    rng = random.Random(292)
    for n, bits in _bit_arrays():
        s = PairSet(n, bits)
        want = _slot_pairs(n, bits)
        assert list(s) == want, (n, bits)
        assert s.pairs() == tuple(sorted(want))
        p = tuple(rng.sample(range(1, n + 1), n))
        image = sum(1 << pair_slot(*sorted((p[i - 1], p[j - 1]))) for i, j in want)
        assert act_on_pairs(p, s).bits == image, (p, bits)
        shuffled = rng.sample(want, len(want))
        assert PairSet.from_pairs(n, shuffled).bits == bits


def test_permutation_from_inversions_roundtrip_seeded():
    rng = random.Random(293)
    for n in (6, 8, 16, 64):
        seeded = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(200)]
        for p in [identity(n), omega(n), *seeded]:
            assert permutation_from_inversions(inversion_set(p)) == p


def test_pair_sets_of_the_half_twist_scale_at_the_strand_limit():
    # read and written by rows, so no step per pair copies the whole array
    n = 1024
    w = omega(n)
    r = inversion_set(w)
    started = time.perf_counter()
    listing = r.pairs()
    image = act_on_pairs(w, r)
    back = permutation_from_inversions(r)
    elapsed = time.perf_counter() - started
    assert len(listing) == pair_count(n) and listing[-1] == (n - 1, n)
    assert image.bits == r.bits
    assert back == w
    assert elapsed < 3.0, elapsed
