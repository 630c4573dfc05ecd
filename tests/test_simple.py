import collections
import itertools
import math
import random

import pytest

from braidnf import oracle, simple
from braidnf.lattice import InversionSet, complement, deglex_compare, deglex_key, meet, star
from braidnf.perms import (
    all_permutations,
    compose,
    flip,
    identity,
    inverse,
    inversion_set,
    length,
    omega,
    permutation_from_inversions,
)
from braidnf.simple import (
    SimpleBraid,
    _is_normal_words,
    _step_words,
    _transfer_words,
    flip_braid,
    generator_braid,
    head_op,
    identity_braid,
    is_clean_transfer,
    is_head,
    is_normal_pair,
    is_tail,
    omega_braid,
    product_in_D,
    star_set,
    tail_op,
    transfer,
)
from twins import near_top


def braids(n):
    return [SimpleBraid(p) for p in all_permutations(n)]


def test_simple_braid_basics():
    a = SimpleBraid((3, 1, 2))
    assert a.n == 3
    assert len(a) == 2
    assert a.crossings() == 2
    assert a.inv.pairs() == ((1, 2), (1, 3))
    assert a == SimpleBraid((3, 1, 2))
    assert hash(a) == hash(SimpleBraid((3, 1, 2)))
    assert a != identity_braid(3)
    with pytest.raises(ValueError):
        SimpleBraid((1, 1, 2))
    with pytest.raises(AttributeError):
        a.perm = (1, 2, 3)


def test_constructors():
    assert omega_braid(6).crossings() == 15
    assert generator_braid(3, 2).perm == (1, 3, 2)
    assert flip_braid(generator_braid(3, 1)) == generator_braid(3, 2)
    assert flip_braid(omega_braid(5)) == omega_braid(5)


def test_product_in_D():
    s1, s2 = generator_braid(3, 1), generator_braid(3, 2)
    assert product_in_D(s1, s2) == SimpleBraid((3, 1, 2))
    assert product_in_D(s1, s1) is None
    a = SimpleBraid((3, 1, 2))
    assert product_in_D(a, identity_braid(3)) == a
    for x, y in itertools.product(braids(4), braids(4)):
        got = product_in_D(x, y)
        lengths_add = length(compose(x.perm, y.perm)) == len(x) + len(y)
        assert (got is not None) == lengths_add
        if got is not None:
            assert got.perm == compose(x.perm, y.perm)


def test_transfer_eight_strands():
    a = SimpleBraid((3, 1, 7, 8, 4, 5, 2, 6))
    b = SimpleBraid((5, 2, 6, 7, 8, 1, 4, 3))
    tr = transfer(a, b)
    assert tr.m == (2, 7, 1, 3, 4, 8, 5, 6)
    assert tr.head.perm == (1, 2, 5, 6, 3, 4, 7, 8)
    assert tr.tail.perm == (6, 5, 7, 8, 4, 3, 2, 1)
    assert is_normal_pair(tr.head, tr.tail)


def test_transfer_six_strands():
    a = SimpleBraid((3, 5, 4, 2, 6, 1))
    b = SimpleBraid((5, 3, 6, 1, 4, 2))
    tr = transfer(a, b)
    assert tr.m == (2, 4, 1, 5, 3, 6)
    assert tr.head.perm == (1, 3, 5, 4, 6, 2)
    assert tr.tail.perm == (6, 5, 4, 3, 1, 2)


def test_transfer_trivial_cases():
    b = SimpleBraid((3, 1, 2))
    tr = transfer(identity_braid(3), b)
    assert tr.m == identity(3) and tr.head == identity_braid(3) and tr.tail == b
    with pytest.raises(ValueError):
        transfer(identity_braid(3), identity_braid(4))


def test_head_tail_ops():
    s1, s2 = generator_braid(3, 1), generator_braid(3, 2)
    for a in braids(3):
        # a braid is fixed by self-transfer exactly when (a, a) is normal
        fixed = head_op(a, a) == a and tail_op(a, a) == a
        assert fixed == is_normal_pair(a, a)
    assert head_op(identity_braid(3), s1) == identity_braid(3)
    assert head_op(s1, s2) == identity_braid(3)
    assert tail_op(s1, s2) == SimpleBraid((3, 1, 2))


def test_is_normal_pair():
    s1, s2 = generator_braid(3, 1), generator_braid(3, 2)
    assert is_normal_pair(s1, s1)
    assert not is_normal_pair(s1, s2)
    a = SimpleBraid((3, 1, 7, 8, 4, 5, 2, 6))
    b = SimpleBraid((5, 2, 6, 7, 8, 1, 4, 3))
    tr = transfer(a, b)
    assert is_normal_pair(tr.head, tr.tail)
    # the pair with the gapped intersection is not normal: a tail still moves
    assert not is_normal_pair(SimpleBraid((3, 5, 4, 2, 6, 1)), SimpleBraid((2, 1, 5, 6, 3, 4)))


def strand_row_holds(a, b):
    """The strand lemma row of the law table on every pair of strands of (a, b)."""
    n = len(a)
    cases = [(a, b, pair) for pair in itertools.combinations(range(1, n + 1), 2)]
    return oracle._sweep("strands", n, ("strands", cases)).passed


def test_head_set_identities():
    # the set identities of a clean transfer are the strand lemma in set form
    pairs = [
        ((3, 5, 4, 2, 6, 1), (5, 3, 6, 1, 4, 2)),
        ((3, 1, 7, 8, 4, 5, 2, 6), (5, 2, 6, 7, 8, 1, 4, 3)),
    ]
    for pa, pb in pairs:
        a, b = SimpleBraid(pa), SimpleBraid(pb)
        assert is_clean_transfer(a, b)
        assert strand_row_holds(pa, pb)
    # a normal pair moves nothing, so it is not clean
    assert not is_clean_transfer(generator_braid(3, 1), generator_braid(3, 1))
    # a trimmed transfer moves less than the intersection and is not clean
    trimmed = (SimpleBraid((2, 3, 4, 1)), SimpleBraid((2, 3, 1, 4)))
    assert transfer(*trimmed).m != identity(4)
    assert not is_clean_transfer(*trimmed)
    rng = random.Random(19)
    perms = list(all_permutations(5))
    checked = 0
    while checked < 300:
        a = SimpleBraid(rng.choice(perms))
        b = SimpleBraid(rng.choice(perms))
        if not is_clean_transfer(a, b):
            continue
        assert strand_row_holds(a.perm, b.perm)
        checked += 1


def test_is_head_is_tail():
    a = SimpleBraid((3, 5, 4, 2, 6, 1))
    assert is_tail(generator_braid(6, 2), a)
    assert is_head(identity_braid(6), a)
    assert not is_tail(omega_braid(6), a)
    # against explicit factorisations over S_4
    all4 = braids(4)
    for x, a4 in itertools.product(all4, all4):
        heads = any(product_in_D(x, y) == a4 for y in all4)
        tails = any(product_in_D(y, x) == a4 for y in all4)
        assert is_head(x, a4) == heads
        assert is_tail(x, a4) == tails


def test_exhaustive_identities_s3():
    perms = list(all_permutations(3))
    for a in perms:
        h, t = _transfer_words(a, a)
        # self-transfer fixes a exactly when (a, a) is already normal
        assert (h == a and t == a) == _is_normal_words(a, a)
    for a, b in itertools.product(perms, perms):
        h_ab, t_ab = _transfer_words(a, b)
        assert (h_ab == a) == (t_ab == b)
        assert _is_normal_words(h_ab, t_ab)
        if _is_normal_words(a, b):
            assert h_ab == a and t_ab == b
    for a, b, c in itertools.product(perms, perms, perms):
        _check_ternary_identities(a, b, c)


def test_self_transfer_counterexample():
    # squaring the braid (2,3,1) is NOT normal as written: one crossing
    # moves, leaving a generator braid followed by the half twist.  This
    # pins the divergence from the unconditional idempotence claim.
    a = SimpleBraid((2, 3, 1))
    assert not is_normal_pair(a, a)
    tr = transfer(a, a)
    assert tr.head == generator_braid(3, 2)
    assert tr.tail == omega_braid(3)
    assert compose(tr.head.perm, tr.tail.perm) == compose(a.perm, a.perm)


def _check_ternary_identities(a, b, c):
    h_bc, t_bc = _transfer_words(b, c)
    h_a_bc, t_a_bc = _transfer_words(a, h_bc)
    h_ab, t_ab = _transfer_words(a, b)
    h_abc, t_abc = _transfer_words(t_ab, c)
    h_outer, t_outer = _transfer_words(h_ab, h_abc)
    h_mid, t_mid = _transfer_words(t_a_bc, t_bc)
    assert h_a_bc == h_outer
    assert h_mid == t_outer
    assert t_mid == t_abc
    if _is_normal_words(a, b):
        assert _is_normal_words(t_a_bc, t_bc)
    if _is_normal_words(b, c):
        assert _is_normal_words(h_ab, h_abc)
    assert _is_normal_words(h_a_bc, h_mid)
    assert _is_normal_words(t_outer, t_abc)


def test_randomized_identities_up_to_eight_strands():
    # 100k random triples across n <= 8: factorisation bookkeeping, the six
    # pairwise/ternary identities, the stopping implications, the flip
    # homomorphism, the half-twist exchange law, and order monotonicity
    rng = random.Random(42)
    samples = 100_000
    for case in range(samples):
        n = rng.randint(2, 8)
        a = tuple(rng.sample(range(1, n + 1), n))
        b = tuple(rng.sample(range(1, n + 1), n))
        ident = identity(n)
        h, t = _transfer_words(a, b)
        m = compose(inverse(a), h)  # head = a*m
        assert compose(h, t) == compose(a, b)
        assert length(h) + length(t) == length(a) + length(b)
        assert length(h) == length(a) - length(m)
        assert length(t) == length(b) + length(m)
        # flip commutes with both operations
        fh, ft = _transfer_words(flip(a), flip(b))
        assert fh == flip(h) and ft == flip(t)
        # half twist exchange at the permutation level
        w = omega(n)
        assert compose(w, a) == compose(flip(a), w)
        if case % 10 == 0:
            c = tuple(rng.sample(range(1, n + 1), n))
            _check_ternary_identities(a, b, c)
        if m != ident:
            ra = inversion_set(a)
            rb = inversion_set(b)
            rh = inversion_set(h)
            rt = inversion_set(t)
            assert deglex_compare(InversionSet(n, rh.bits), InversionSet(n, ra.bits)) == -1
            assert deglex_compare(InversionSet(n, rb.bits), InversionSet(n, rt.bits)) == -1


def test_transfer_matches_the_fixpoint_meet_at_wide_n():
    # the engine's one move above the rank tables, read off the insertion
    # pass, against the transfer built from the independent fixpoint meet
    rng = random.Random(14)

    def fixpoint_transfer(a, b):
        r_a, r_b = InversionSet.from_permutation(a), InversionSet.from_permutation(b)
        m = permutation_from_inversions(meet(star(r_a, a), complement(r_b)))
        return compose(a, m), compose(inverse(m), b)

    checked = normal = 0
    for n, rounds in ((6, 200), (9, 100), (16, 25), (64, 3)):
        ident, top = identity(n), omega(n)
        pairs = [(ident, ident), (ident, top), (top, ident), (top, top)]
        for _ in range(rounds):
            r, s = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            x, y = near_top(rng, n), near_top(rng, n)
            pairs += [(r, s), (x, r), (r, y), (x, y), (ident, r), (r, ident), (top, r), (r, top)]
        for a, b in pairs:
            assert _transfer_words(a, b) == fixpoint_transfer(a, b), (a, b)
            is_normal = _is_normal_words(a, b)
            assert (_step_words(a, b) is None) == is_normal, (a, b)
            checked += 1
            normal += is_normal
    assert checked == 4 * 4 + 8 * (200 + 100 + 25 + 3) and 0 < normal < checked


def _swapped(rng, p, swaps):
    """p with a number of random adjacent positions swapped."""
    p = list(p)
    for _ in range(swaps):
        i = rng.randrange(len(p) - 1)
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def test_local_swaps_match_the_insertion_pass_and_the_fixpoint_meet():
    # Bytes letters below 128 strands take the transfer by local swaps from
    # a candidate mask, unless the pair has the heavy shape (a^-1 starts
    # above where it ends, b below), more than _SWAP_FIRST first candidates
    # or would take _SWAP_BUDGET swaps or more; 255 strands always take the
    # insertion pass.  Each way the step must be the insertion pass's,
    # called directly, and the transfer built from the fixpoint meet (every
    # pair up to 64 strands, every sixth above).  Pairs of every shape are
    # drawn, and each shape must come up at each n.
    rng = random.Random(4611)

    def fixpoint_transfer(a, b):
        r_a, r_b = InversionSet.from_permutation(a), InversionSet.from_permutation(b)
        m = permutation_from_inversions(meet(star(r_a, a), complement(r_b)))
        return compose(a, m), compose(inverse(m), b)

    for n, rounds in ((7, 40), (16, 30), (64, 10), (127, 4), (255, 4)):
        ident, top = identity(n), omega(n)
        # against the identity all of a moves: a^-1 a cycle on 1..k has one
        # descent and k - 1 crossings, a reversed block of 12 has 11 descents
        cycles = [inverse((*range(2, k + 1), 1, *range(k + 1, n + 1))) for k in {2, 9, 34, n} if k <= n]
        block = min(12, n)
        pairs = [(c, ident) for c in cycles] + [((*range(block, 0, -1), *range(block + 1, n + 1)), ident)]
        for _ in range(rounds):
            r = tuple(rng.sample(range(1, n + 1), n))
            few, many = rng.randint(0, 12), rng.randint(12, 4 * n)
            pairs += [
                _transfer_words(r, tuple(rng.sample(range(1, n + 1), n))),  # normal
                (_swapped(rng, ident, few), _swapped(rng, ident, few)),
                (_swapped(rng, ident, many), _swapped(rng, ident, few)),
                (_swapped(rng, top, few), _swapped(rng, ident, few)),  # heavy
                (r, _swapped(rng, ident, many)),
            ]
        shapes = collections.Counter()
        for k, (a, b) in enumerate(pairs):
            head_inv, tail = simple._meet_reads(inverse(a), b)
            want = None if tuple(tail) == b else (inverse(tuple(head_inv)), tuple(tail))
            got = _step_words(bytes(a), bytes(b))
            assert (got and tuple(map(tuple, got))) == want, (n, a, b)
            if n <= 64 or k % 6 == 0:
                assert (want or (a, b)) == fixpoint_transfer(a, b), (n, a, b)
            u = inverse(a)
            moved = 0 if want is None else length(a) - length(want[0])
            first = sum(u[i] > u[i + 1] and b[i] < b[i + 1] for i in range(n - 1))
            shapes[
                "heavy" if u[0] > u[-1] and b[0] < b[-1] else "normal" if not moved
                else "first" if first > simple._SWAP_FIRST
                else "budget" if moved >= simple._SWAP_BUDGET else "swaps"
            ] += 1
        # seven strands have 6 positions and 21 crossings: too few for the bounds
        bounds = set() if n == 7 else {"first", "budget"}
        assert set(shapes) == {"heavy", "normal", "swaps"} | bounds, (n, shapes)


def test_star_set():
    a = SimpleBraid((3, 5, 4, 2, 6, 1))
    assert star_set(a).bits == inversion_set(inverse(a.perm)).bits


def test_commuting_characterization_diagnostic():
    # archived as a diagnostic that never gates, with its failure counts pinned
    for n, count in ((2, 0), (3, 0), (4, 4), (5, 32)):
        report = oracle.verify_commuting(n)
        assert report.diagnostic and report.cases == math.factorial(n) ** 2
        assert len(report.failures) == count
        assert all(f[0] == "commuting" and len(f) == 3 for f in report.failures)
    with pytest.raises(ValueError):
        oracle.verify_commuting(6)


def test_deglex_key_orders_braids():
    ranked = sorted(braids(3), key=lambda x: deglex_key(x.inv))
    assert ranked[0] == identity_braid(3)
    assert ranked[-1] == omega_braid(3)
