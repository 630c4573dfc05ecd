import collections
import gc
import importlib.util
import itertools
import math
import pathlib
import random
import tracemalloc

import pytest

from braidnf import normalform, oracle, simple
from braidnf.normalform import (
    GroupNormalForm,
    PositiveNormalForm,
    PositiveWord,
    equal,
    gs_rewrite_to_fixpoint,
    is_normal,
    normalize_group,
    normalize_positive,
    prepend_simple,
    rewrite_pair_at,
    rewrite_potential,
)
from braidnf.perms import (
    adjacent_transposition,
    all_permutations,
    compose,
    flip,
    identity,
    length,
    omega,
)
from braidnf.simple import SimpleBraid, flip_braid, generator_braid, identity_braid, omega_braid
from braidnf.textio import (
    ArtinWord,
    format_word,
    parse_word,
    simple_to_artin,
    word_to_simple_letters,
)
from twins import (
    BURAU_PRIME,
    artin_letters,
    burau_image,
    form_symbols,
    formal_inverse,
    growth_series,
    half_twist_letters,
    handle_reduce,
    lifted_group_twin,
    rewrite_twin,
    sorted_word,
    spelled_form,
    word_permutation,
)

# The benchmark's seeded word generator, loaded from its file, since
# perfbench is a directory of scripts and not a package.
_WORDS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "words.py"
_WORDS_SPEC = importlib.util.spec_from_file_location("perfbench_words", _WORDS_PATH)
bench_words = importlib.util.module_from_spec(_WORDS_SPEC)
_WORDS_SPEC.loader.exec_module(bench_words)


def gen_word(n, indices):
    return word_to_simple_letters(ArtinWord(n, tuple(indices)))


def random_simple(rng, n):
    return SimpleBraid(tuple(rng.sample(range(1, n + 1), n)))


def test_positive_word_validation():
    with pytest.raises(ValueError):
        PositiveWord(3, (generator_braid(4, 1),))
    w = gen_word(3, [1, 2, 1])
    assert word_permutation(w) == omega(3)
    assert w.crossing_number() == 3
    assert len(w) == 3


def test_strand_mismatch_names_the_first_offender():
    # the checks pass over all letters at once; when one is off, the error
    # still names the first offending letter or factor in order
    rng = random.Random(1903)
    for n in [2, 3, 4, 5, 64]:
        text = " ".join(str(rng.choice((-1, 1)) * rng.randint(1, n - 1)) for _ in range(60))
        factors = list(normalize_group(parse_word(f"n={n}; {text}")).factors)
        factors = factors or [generator_braid(n, 1)]
        first, later = identity_braid(n + 1), generator_braid(n + 2, 1)
        i = rng.randrange(len(factors) + 1)
        bad = tuple(factors[:i] + [first] + factors[i:] + [later])
        with pytest.raises(ValueError) as exc:
            PositiveWord(n, bad)
        assert str(exc.value) == f"letter on {n + 1} strands in a word on {n}"
        for make in [lambda fs: PositiveNormalForm(n, fs), lambda fs: GroupNormalForm(n, 0, fs)]:
            with pytest.raises(ValueError) as exc:
                make(bad)
            assert str(exc.value) == f"factor on {n + 1} strands in a form on {n}"


def test_group_form_half_twist_check():
    for n in [2, 3, 4, 5, 8, 64]:
        factors = (generator_braid(n, 1), omega_braid(n))
        assert PositiveNormalForm(n, factors).factors == factors
        with pytest.raises(ValueError) as exc:
            GroupNormalForm(n, 0, factors)
        assert str(exc.value) == "half-twist factors belong in delta_power"
    assert GroupNormalForm(1, 0, ()).factors == ()
    # on one strand the half twist is the identity, which no form holds
    with pytest.raises(ValueError) as exc:
        GroupNormalForm(1, 0, (omega_braid(1),))
    assert str(exc.value) == "factor sequence is not a greedy normal form"
    assert GroupNormalForm(1, -3, ()).delta_power == -3


def test_rewrite_pair_at():
    w = gen_word(3, [1, 2])
    got = rewrite_pair_at(w, 0)
    assert [x.perm for x in got.letters] == [(1, 2, 3), (3, 1, 2)]
    # a normal pair is left alone
    nw = PositiveWord(3, (generator_braid(3, 1), generator_braid(3, 1)))
    same = rewrite_pair_at(nw, 0)
    assert [x.perm for x in same.letters] == [(2, 1, 3), (2, 1, 3)]
    w2 = PositiveWord(3, (SimpleBraid((3, 1, 2)), generator_braid(3, 1)))
    got2 = rewrite_pair_at(w2, 0)
    assert [x.perm for x in got2.letters] == [(1, 2, 3), (3, 2, 1)]
    with pytest.raises(IndexError):
        rewrite_pair_at(w, 1)
    with pytest.raises(IndexError):
        rewrite_pair_at(w, -1)


def test_rewrite_preserves_permutation_and_crossings():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 6)
        letters = tuple(random_simple(rng, n) for _ in range(rng.randint(2, 8)))
        w = PositiveWord(n, letters)
        i = rng.randrange(len(letters) - 1)
        after = rewrite_pair_at(w, i)
        assert word_permutation(after) == word_permutation(w)
        assert after.crossing_number() == w.crossing_number()


def test_is_normal():
    assert is_normal([])
    assert not is_normal([generator_braid(3, 1), generator_braid(3, 2)])
    assert is_normal([generator_braid(3, 1), generator_braid(3, 1)])
    assert not is_normal([identity_braid(3)])
    # factors on other strand counts than the first are a ValueError at every n
    for short, long in ((3, 4), (6, 7)):
        message = "^factor on {} strands in a sequence on {}$"
        with pytest.raises(ValueError, match=message.format(long, short)):
            is_normal([generator_braid(short, 1), generator_braid(long, 1)])
        with pytest.raises(ValueError, match=message.format(short, long)):
            is_normal([generator_braid(long, 1), generator_braid(long, 2), identity_braid(short)])


def test_normal_form_validation():
    with pytest.raises(ValueError):
        PositiveNormalForm(3, (generator_braid(3, 1), generator_braid(3, 2)))
    with pytest.raises(ValueError):
        PositiveNormalForm(3, (identity_braid(3),))
    nf = PositiveNormalForm(3, (generator_braid(3, 1),))
    assert word_permutation(nf) == (2, 1, 3)


def test_normal_form_is_a_validated_positive_word():
    factors = (generator_braid(4, 1), generator_braid(4, 1))
    nf, word = PositiveNormalForm(4, factors), PositiveWord(4, factors)
    assert isinstance(nf, PositiveWord) and nf.factors is nf.letters == factors
    assert (len(nf), nf.crossing_number(), word_permutation(nf)) == (2, 2, (1, 2, 3, 4))
    assert (len(word), word.crossing_number(), word_permutation(word)) == (2, 2, (1, 2, 3, 4))
    assert nf != word and nf == PositiveNormalForm(4, factors)
    assert repr(nf).startswith("PositiveNormalForm(n=4, letters=(")
    with pytest.raises(AttributeError):
        nf.factors = ()
    # the word's check is replaced by the form's, messages included
    with pytest.raises(ValueError, match="^factor on 3 strands in a form on 4$"):
        PositiveNormalForm(4, (generator_braid(3, 1),))
    with pytest.raises(ValueError, match="^factor sequence is not a greedy normal form$"):
        PositiveNormalForm(4, factors + (identity_braid(4),))


def test_group_form_validation():
    with pytest.raises(ValueError):
        GroupNormalForm(3, 0, (omega_braid(3),))
    with pytest.raises(ValueError):
        GroupNormalForm(3, 0, (identity_braid(3),))
    GroupNormalForm(3, -2, (generator_braid(3, 1),))


def test_normalize_positive_values():
    assert [f.perm for f in normalize_positive(gen_word(3, [1, 2, 1])).factors] == [omega(3)]
    assert normalize_positive(PositiveWord(4, ())).factors == ()
    a = SimpleBraid((3, 1, 7, 8, 4, 5, 2, 6))
    b = SimpleBraid((5, 2, 6, 7, 8, 1, 4, 3))
    nf = normalize_positive(PositiveWord(8, (a, b)))
    assert [f.perm for f in nf.factors] == [
        (1, 2, 5, 6, 3, 4, 7, 8),
        (6, 5, 7, 8, 4, 3, 2, 1),
    ]
    # identity letters are dropped
    nf2 = normalize_positive(PositiveWord(3, (identity_braid(3), generator_braid(3, 1))))
    assert [f.perm for f in nf2.factors] == [(2, 1, 3)]


def test_normalize_positive_soundness_random():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 7)
        letters = tuple(random_simple(rng, n) for _ in range(rng.randint(0, 10)))
        w = PositiveWord(n, letters)
        nf = normalize_positive(w)
        assert word_permutation(nf) == word_permutation(w)
        assert nf.crossing_number() == w.crossing_number()
        assert is_normal(nf.factors)


def test_prepend_simple():
    s1 = generator_braid(3, 1)
    nf1 = PositiveNormalForm(3, (s1,))
    assert [f.perm for f in prepend_simple(s1, nf1).factors] == [(2, 1, 3), (2, 1, 3)]
    assert prepend_simple(identity_braid(3), nf1) == nf1
    nf2 = PositiveNormalForm(3, (generator_braid(3, 2),))
    assert [f.perm for f in prepend_simple(s1, nf2).factors] == [(3, 1, 2)]
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(2, 6)
        w = PositiveWord(n, tuple(random_simple(rng, n) for _ in range(rng.randint(0, 6))))
        nf = normalize_positive(w)
        a = random_simple(rng, n)
        expect = gs_rewrite_to_fixpoint(PositiveWord(n, (a,) + nf.factors), "rightmost")
        assert prepend_simple(a, nf) == expect
    # the word it builds refuses a braid on another strand count
    with pytest.raises(ValueError) as caught:
        prepend_simple(generator_braid(2, 1), nf1)
    assert str(caught.value) == "letter on 2 strands in a word on 3"


def test_gs_rewrite_strategies_agree():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 5)
        idxs = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 14))]
        w = gen_word(n, idxs)
        left = gs_rewrite_to_fixpoint(w, "leftmost")
        right = gs_rewrite_to_fixpoint(w, "rightmost")
        fold = normalize_positive(w)
        assert left == right == fold
    with pytest.raises(ValueError):
        gs_rewrite_to_fixpoint(gen_word(3, [1]), "middle")


def rewrite_steps(w, strategy):
    """
    The rewrites gs_rewrite_to_fixpoint makes on w: its loop, run with its
    step on one-line words, yields them.  The loop's result is checked
    against gs_rewrite_to_fixpoint's.
    """

    def step(a, b):
        return None if simple._is_normal_words(a, b) else simple._transfer_words(a, b)

    form = [b.perm for b in w.letters]
    steps = list(normalform._rewrite_to_fixpoint(form, strategy, identity(w.n), step))
    assert form == [f.perm for f in gs_rewrite_to_fixpoint(w, strategy).factors]
    return steps


def test_gs_rewrite_termination_bound():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(2, 5)
        idxs = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 14))]
        w = gen_word(n, idxs)
        bound = rewrite_potential(w)
        steps = len(rewrite_steps(w, "leftmost"))
        assert steps <= bound


def test_already_normal_word_is_untouched():
    nf = normalize_positive(gen_word(4, [1, 3, 2, 1, 3]))
    w = PositiveWord(4, nf.factors)
    steps = len(rewrite_steps(w, "leftmost"))
    again = gs_rewrite_to_fixpoint(w, "leftmost")
    assert steps == 0
    assert again.factors == nf.factors


def test_rewriting_loop_is_its_plain_twin():
    # on seeded random words of pair-table ints, the loop gives the letters
    # and the rewrites, in order, of the plainly written loop, under the
    # transfer and under a step that merges or swaps the pair
    rng = random.Random(53)
    for n in (2, 3, 4, 5):
        table = oracle._PairTable()
        ident = table[tuple(range(1, n + 1))]
        ints = [table[tuple(rng.sample(range(1, n + 1), n))] for _ in range(40)]

        def scramble(a, b):
            return None if a <= b else (ident, a) if (a + b) % 3 else (b, a)

        for _ in range(60):
            letters = rng.choices(ints + [ident], k=rng.randint(0, 16))
            for strategy in ("leftmost", "rightmost"):
                for step in (table.step, scramble):
                    got = list(letters)
                    rewrites = list(normalform._rewrite_to_fixpoint(got, strategy, ident, step))
                    assert (got, rewrites) == rewrite_twin(letters, strategy, ident, step)


def test_normalize_group_values():
    assert normalize_group(parse_word("n=3; -1")) == GroupNormalForm(
        3, -1, (SimpleBraid((3, 1, 2)),)
    )
    assert normalize_group(parse_word("n=3; D -D")) == GroupNormalForm(3, 0, ())
    assert normalize_group(parse_word("n=3; 1 -1")) == GroupNormalForm(3, 0, ())
    assert normalize_group(parse_word("n=3; 1 2 1")) == GroupNormalForm(3, 1, ())
    assert normalize_group(parse_word("n=4; -2")).delta_power == -1
    # two strands: everything is a power of the single generator
    assert normalize_group(parse_word("n=2; 1 1 1")) == GroupNormalForm(2, 3, ())
    assert normalize_group(parse_word("n=1;")) == GroupNormalForm(1, 0, ())


def test_normalize_group_matches_positive_normalizer():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 6)
        idxs = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
        word = ArtinWord(n, tuple(idxs))
        assert normalize_group(word) == lifted_group_twin(word)


def _run_symbols(n, sign, perm):
    """A same-sign run whose product is the simple braid perm, or its inverse."""
    word = simple_to_artin(SimpleBraid(perm))
    return list(word.symbols if sign > 0 else formal_inverse(word).symbols)


def test_normalize_group_folds_runs_like_the_twin():
    # Words made of long same-sign runs whose products are simple.  A run
    # ends at a sign change, at D or -D, at a generator that makes its
    # product non-simple (a repeated generator), or at the end of the
    # word; a fifth of the runs fold to the half twist itself.
    for text in ("n=3; 1 2 1", "n=3; -1 -2 -1", "n=3; 1 2 1 -2 -1 -2", "n=4; 1 2 1 D 3 2 -D"):
        word = parse_word(text)
        assert normalize_group(word) == lifted_group_twin(word), text
    rng = random.Random(89)
    for trial in range(350):
        n = 2 + trial % 7
        symbols = []
        for _ in range(rng.randint(1, 5)):
            sign = rng.choice((1, -1))
            perm = omega(n) if rng.random() < 0.2 else tuple(rng.sample(range(1, n + 1), n))
            run = _run_symbols(n, sign, perm)
            symbols += run
            ending = rng.randrange(3)
            if ending == 0:
                symbols.append(n * rng.choice((1, -1)))
            elif ending == 1 and run:
                symbols.append(run[-1])
        word = ArtinWord(n, tuple(symbols))
        assert normalize_group(word) == lifted_group_twin(word)


def test_normalize_positive_folds_generator_runs_like_the_twin():
    # generator letters, which fold into runs, mixed with letters that end
    # a run: the identity, the half twist and random simple braids
    rng = random.Random(97)
    for trial in range(350):
        n = 2 + trial % 7
        letters = []
        for _ in range(rng.randint(1, 5)):
            perm = omega(n) if rng.random() < 0.2 else tuple(rng.sample(range(1, n + 1), n))
            letters += [generator_braid(n, i) for i in _run_symbols(n, 1, perm)]
            kind = rng.randrange(4)
            if kind == 0:
                letters.append(identity_braid(n))
            elif kind == 1:
                letters.append(omega_braid(n))
            elif kind == 2:
                letters.append(random_simple(rng, n))
        w = PositiveWord(n, tuple(letters))
        assert normalize_positive(w) == gs_rewrite_to_fixpoint(w, "rightmost")


def test_group_round_trip_small():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(2, 5)
        symbols = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.15:
                symbols.append(n * rng.choice((1, -1)))
            else:
                symbols.append(rng.randint(1, n - 1) * rng.choice((1, -1)))
        w = ArtinWord(n, tuple(symbols))
        w_inv = ArtinWord(n, w.symbols + formal_inverse(w).symbols)
        assert normalize_group(w_inv) == GroupNormalForm(n, 0, ())


def test_equal():
    assert equal(parse_word("n=3; 1 2 1"), parse_word("n=3; 2 1 2"))
    assert equal(parse_word("n=4; 1 3"), parse_word("n=4; 3 1"))
    assert not equal(parse_word("n=3; 1"), parse_word("n=3; 2"))
    assert equal(parse_word("n=3; D"), parse_word("n=3; 1 2 1"))
    with pytest.raises(ValueError):
        equal(parse_word("n=3; 1"), parse_word("n=4; 1"))


def test_equal_under_identity_preserving_edits():
    rng = random.Random(83)
    for _ in range(300):
        n = rng.randint(3, 6)
        symbols = [
            rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(0, 15))
        ]
        edited = list(symbols)
        for _ in range(rng.randint(1, 5)):
            pos = rng.randint(0, len(edited))
            kind = rng.randrange(4)
            if kind == 0:  # free cancellation
                i = rng.randint(1, n - 1)
                s = rng.choice((1, -1))
                insert = [i * s, -i * s]
            elif kind == 1:  # half-twist pair
                insert = [n, -n]
            elif kind == 2 and n >= 4:  # far generators commute
                i, j = 1, rng.randint(3, n - 1)
                insert = [i, j, -i, -j]
            else:  # defining relation as a closed loop
                i = rng.randint(1, n - 2)
                insert = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            edited[pos:pos] = insert
        assert equal(ArtinWord(n, tuple(symbols)), ArtinWord(n, tuple(edited)))


def test_half_twist_equals_staircase_expansion():
    for n in range(2, 8):
        stair = ArtinWord(n, tuple(half_twist_letters(n)))
        assert normalize_group(stair) == GroupNormalForm(n, 1, ())
        twist = ArtinWord(n, (n,))
        assert equal(stair, twist)


def test_handle_reduction_twin():
    for n in (3, 4, 6, 16):
        for i in range(1, n - 1):  # the braid relation, as a loop, either way round
            assert handle_reduce([i, i + 1, i, -(i + 1), -i, -(i + 1)]) == []
            assert handle_reduce([-i, -(i + 1), -i, i + 1, i, i + 1]) == []
        for i, j in itertools.combinations(range(1, n), 2):
            if j > i + 1:  # far generators commute
                assert handle_reduce([i, j, -i, -j]) == []
                assert handle_reduce([-j, i, j, -i]) == []
        assert len(half_twist_letters(n)) == n * (n - 1) // 2
        for i in range(1, n):
            # conjugation by the half twist sends sigma_i to sigma_{n-i};
            # read as a generator sigma_n, D would leave sigma_i sigma_{n-i}^-1
            word = ArtinWord(n, (n, i, -n, -(n - i)))
            assert all(0 < abs(s) < n for s in artin_letters(word))
            assert handle_reduce(artin_letters(word)) == []
            assert (handle_reduce(word.symbols) == []) == (2 * i == n)
            assert handle_reduce(artin_letters(ArtinWord(n, (-n, -n, i, n, n, -i)))) == []
    assert handle_reduce([1, 2, -1, -2]) == [-2, 1]
    assert handle_reduce([1, 3, 1, -2]) == [1, 3, 1, -2]  # handle-free: kept as it is


def test_equal_agrees_with_handle_reduction():
    # three kinds of pair: w with one s s^-1 inserted (equal), w times one
    # generator (unequal) and w with two adjacent letters swapped (either);
    # at 64 strands the words hold no half twist, whose 2,016 letters
    # would dominate the twin's time
    rng = random.Random(191)
    swaps = []
    for n, length, count in [(6, 60, 10), (8, 80, 10), (16, 120, 10), (64, 128, 3)]:
        share = 0.02 if n < 64 else 0.0
        for kind in ("insert", "append", "swap"):
            for _ in range(count):
                symbols = [
                    rng.choice((n, -n)) if rng.random() < share
                    else rng.randint(1, n - 1) * rng.choice((1, -1))
                    for _ in range(length)
                ]
                edited = list(symbols)
                g = rng.randint(1, n - 1) * rng.choice((1, -1))
                if kind == "insert":
                    pos = rng.randint(0, length)
                    edited[pos:pos] = [g, -g]
                elif kind == "append":
                    edited.append(g)
                else:
                    pos = rng.randrange(length - 1)
                    edited[pos : pos + 2] = edited[pos + 1], edited[pos]
                a, b = ArtinWord(n, tuple(symbols)), ArtinWord(n, tuple(edited))
                twin = handle_reduce(artin_letters(a) + artin_letters(formal_inverse(b))) == []
                assert equal(a, b) == twin
                if kind == "swap":
                    swaps.append(twin)
                else:
                    assert twin == (kind == "insert")
    assert 0 < sum(swaps) < len(swaps)


# The five moves that keep a braid, on a list of symbols (k for
# sigma_|k|^sign(k), n and -n for D and -D), each made at a seeded place.


def _is_generator(n, s):
    return abs(s) < n


def _cancelling_pair(rng, n, w):
    g = rng.randint(1, n - 1) * rng.choice((1, -1))
    at = rng.randint(0, len(w))
    w[at:at] = [g, -g]


def _delta_pair(rng, n, w):
    e = rng.choice((1, -1))
    at = rng.randint(0, len(w))
    w[at:at] = [e * n, -e * n]


def _braid_relation(rng, n, w):
    # i j i -> j i j for a same-sign triple with |i| and |j| adjacent, or
    # the relator (i i+1 i)(i+1 i i+1)^-1 inserted when the word has none
    triples = [
        at for at in range(len(w) - 2)
        if w[at] == w[at + 2] and _is_generator(n, w[at]) and _is_generator(n, w[at + 1])
        and (w[at] > 0) == (w[at + 1] > 0) and abs(abs(w[at]) - abs(w[at + 1])) == 1
    ]
    if triples:
        at = rng.choice(triples)
        w[at : at + 3] = [w[at + 1], w[at], w[at + 1]]
        return
    i = rng.randint(1, n - 2)
    at = rng.randint(0, len(w))
    w[at:at] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]


def _far_commutation(rng, n, w):
    # swap two adjacent generators at distance two or more, or insert the
    # commutator of two such generators when the word has no such pair
    pairs = [
        at for at in range(len(w) - 1)
        if _is_generator(n, w[at]) and _is_generator(n, w[at + 1])
        and abs(abs(w[at]) - abs(w[at + 1])) >= 2
    ]
    if pairs:
        at = rng.choice(pairs)
        w[at], w[at + 1] = w[at + 1], w[at]
        return
    i = rng.randint(1, n - 3)
    j = rng.randint(i + 2, n - 1)
    at = rng.randint(0, len(w))
    w[at:at] = [i, j, -i, -j]


def _delta_conjugation(rng, n, w):
    # D^e sigma_i^f = sigma_(n-i)^f D^e: move a half twist across a
    # generator beside it, or write a generator as its flip conjugated by
    # D^e; a word without generators gets a D -D pair
    def flipped(s):
        return (n - abs(s)) * (1 if s > 0 else -1)

    beside = [
        at for at in range(len(w) - 1)
        if _is_generator(n, w[at]) != _is_generator(n, w[at + 1])
    ]
    if beside:
        at = rng.choice(beside)
        x, y = w[at], w[at + 1]
        w[at], w[at + 1] = (y, flipped(x)) if _is_generator(n, x) else (flipped(y), x)
        return
    generators = [at for at, s in enumerate(w) if _is_generator(n, s)]
    if not generators:
        _delta_pair(rng, n, w)
        return
    at = rng.choice(generators)
    e = rng.choice((1, -1))
    w[at : at + 1] = [e * n, flipped(w[at]), -e * n]


IDENTITY_MOVES = (
    _cancelling_pair, _delta_pair, _braid_relation, _far_commutation, _delta_conjugation
)


def equal_partner(rng, n, symbols, rounds=2, moves=IDENTITY_MOVES):
    """The symbols after every identity-preserving move, rounds times each, in seeded order."""
    w = list(symbols)
    moves = list(moves) * rounds
    rng.shuffle(moves)
    for move in moves:
        move(rng, n, w)
    return w


def signed_symbols(rng, n, length, delta_share=0.0):
    """A random signed word's symbols: generators of either sign, and D or -D at delta_share."""
    return [
        rng.choice((n, -n)) if rng.random() < delta_share
        else rng.randint(1, n - 1) * rng.choice((1, -1))
        for _ in range(length)
    ]


def check_equal(n, a, b):
    """equal on two symbol lists, checked against handle reduction and two normalize_group calls."""
    w1, w2 = ArtinWord(n, tuple(a)), ArtinWord(n, tuple(b))
    twin = handle_reduce(artin_letters(w1) + artin_letters(formal_inverse(w2))) == []
    assert equal(w1, w2) == twin == (normalize_group(w1) == normalize_group(w2)), (n, a, b)
    return twin


def test_identity_moves_keep_the_braid():
    # each move alone, on a word with and without the windows it looks for
    rng = random.Random(2203)
    for n in (7, 8):
        for move in IDENTITY_MOVES:
            for symbols in ([], [1], [1, 2, 1], [n, 3], [2, 5], signed_symbols(rng, n, 12, 0.1)):
                for _ in range(5):
                    edited = list(symbols)
                    move(rng, n, edited)
                    assert edited != symbols or move is _far_commutation
                    assert check_equal(n, symbols, edited), move.__name__


def test_equal_above_the_table_bound_under_identity_moves():
    # seeded pairs on 7, 8, 16 and 64 strands: an equal partner made by
    # the five moves, and an unequal one, that partner with one more
    # generator; the n = 64 words are short, since the handle-reduction
    # twin spells each half twist in 2,016 letters
    rng = random.Random(2207)
    for n, length, count, delta_share in [(7, 60, 12, 0.03), (8, 60, 12, 0.03),
                                          (16, 60, 8, 0.03), (64, 40, 4, 0.0)]:
        for _ in range(count):
            symbols = signed_symbols(rng, n, length, delta_share)
            partner = equal_partner(rng, n, symbols)
            assert check_equal(n, symbols, partner)
            g = rng.randint(1, n - 1) * rng.choice((1, -1))
            at = rng.randint(0, len(partner))
            assert not check_equal(n, symbols, partner[:at] + [g] + partner[at:])


def _check_pairs_with_common_ends(seed, shares, count, moves_d):
    # w against itself, against w g and g w, against w with a cancelling
    # pair at either end, and pairs whose middles are both empty or whose
    # common prefix and suffix would overlap.  The row draws its words from
    # its own seed: the strand counts with their D shares, the words per
    # strand count, and whether the pairs that move D across w (D -D at
    # either end of either word, w D against w) are asserted too.
    rng = random.Random(seed)
    for n, share in shares.items():
        for _ in range(count):
            w = signed_symbols(rng, n, rng.randint(0, 20), share)
            g = rng.randint(1, n - 1) * rng.choice((1, -1))
            assert check_equal(n, w, w)
            assert check_equal(n, [], [])
            assert not check_equal(n, w, w + [g])
            assert not check_equal(n, [g] + w, w)
            assert check_equal(n, w + [g, -g], w)
            assert check_equal(n, w, [-g, g] + w)
            assert check_equal(n, w + [g] + w, w + [g, g, -g] + w)
            assert not check_equal(n, [g] * 2, [g] * 3)
            assert check_equal(n, w + [n, -n], w) and check_equal(n, [-n, n] + w, w)
            if moves_d:
                assert check_equal(n, w, [n, -n] + w) and check_equal(n, w, w + [-n, n])
                assert not check_equal(n, w + [n], w) and not check_equal(n, w, [-n] + w)


def test_equal_on_pairs_with_common_ends():
    _check_pairs_with_common_ends(2213, {7: 0.05, 8: 0.05, 16: 0.05, 64: 0.0}, 4, False)


def test_equal_below_the_table_bound_on_pairs_with_common_ends():
    # the same pairs on 2 to 6 strands, with the pairs that move D
    _check_pairs_with_common_ends(2227, {2: 0.05, 3: 0.05, 4: 0.05, 5: 0.05, 6: 0.05}, 6, True)


def test_common_ends_copies_neither_word():
    # two 100,000-symbol words that differ in the middle: the prefix and
    # the suffix are read in place, so the peak is a few iterators; a copy
    # of either word past the prefix would hold 400 kB
    a = tuple(range(1, 100_001))
    b = a[:50_000] + (0,) + a[50_001:]
    tracemalloc.start()
    try:
        ends = normalform._common_ends(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ends == (50_000, 49_999)
    assert peak < 4_096


def test_equal_normalises_once_up_to_the_table_bound(monkeypatch):
    # one engine call on R1 R2^-1 up to six strands, two middles above,
    # on equal, unequal and identical pairs; above the bound the pair
    # unequal by one generator is decided by its Burau fingerprints and
    # reaches no engine call, while D w, whose net D count is not w's,
    # takes no fingerprint and takes the two
    calls = []

    def counted(n, symbols, alphabet):
        calls.append(n)
        return group_form(n, symbols, alphabet)

    group_form = normalform._group_form
    monkeypatch.setattr(normalform, "_group_form", counted)
    rng = random.Random(2229)
    for n in (1, 2, 3, 4, 5, 6, 7):
        w = signed_symbols(rng, n, 30, 0.05) if n > 1 else [1, -1, 1]
        g = rng.randint(1, n - 1) if n > 1 else 1
        for partner, decided in ((w, False), (w + [n, -n], False), ([n] + w, False), (w + [g], True)):
            calls.clear()
            equal(ArtinWord(n, tuple(w)), ArtinWord(n, tuple(partner)))
            engine = 1 if n <= normalform.TABLE_MAX_STRANDS else 0 if decided else 2
            assert calls == [n] * engine, n


def flipped_symbols(n, symbols):
    """Each generator i as n - i, its sign kept, D and -D as they are: D w = flip(w) D."""
    return [s if abs(s) == n else (n if s > 0 else -n) - s for s in symbols]


def test_equal_decides_unequal_pairs_by_their_burau_fingerprints(monkeypatch):
    # Above the table bound an unequal pair whose Burau fingerprints
    # differ takes no _group_form call: the partner with one generator
    # more; the partner with sigma_i^2 sigma_(i+1)^2 sigma_i^-2
    # sigma_(i+1)^-2 inserted, which keeps the exponent sum and the
    # permutation; and D x against x D, one D on each side.  Equal pairs
    # take both calls: one whose D and -D symbols _delta_conjugation
    # moved across generators, and D x against flip(x) D, whose
    # fingerprints agree only through the flip of the generators after
    # a D.  A pair whose net D counts differ takes no fingerprint and
    # reaches the engine, which answers: x against flip(x) D, unequal,
    # and a word with one D against its spelling in generators, equal.
    calls = []

    def counted(n, symbols, alphabet):
        calls.append(n)
        return group_form(n, symbols, alphabet)

    group_form = normalform._group_form
    monkeypatch.setattr(normalform, "_group_form", counted)
    rng = random.Random(2251)
    rows = []
    for n in (7, 64, 256):
        w = signed_symbols(rng, n, 120, 0.03)
        conjugated = list(w)
        for _ in range(4):
            _delta_conjugation(rng, n, conjugated)
        assert n in conjugated or -n in conjugated
        i, at = rng.randint(1, n - 2), rng.randint(0, len(conjugated))
        g = rng.randint(1, n - 1) * rng.choice((1, -1))
        squares = [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1]
        # x starts with sigma_1 and holds no D, so no pair below shares an end
        x = [1] + signed_symbols(rng, n, 40)
        rows += [
            (n, w, conjugated, True, 2),
            (n, w, conjugated[:at] + [g] + conjugated[at:], False, 0),
            (n, w, conjugated[:at] + squares + conjugated[at:], False, 0),
            (n, [n] + x, x + [n], False, 0),
            (n, [n] + x, flipped_symbols(n, x) + [n], True, 2),
            (n, x, flipped_symbols(n, x) + [n], False, 2),
        ]
    for n in (7, 64):  # at 256 strands the spelled D would be 32,640 generators for the engine
        y = signed_symbols(rng, n, 20) + [n] + signed_symbols(rng, n, 20)
        rows.append((n, y, artin_letters(ArtinWord(n, tuple(y))), True, 2))
    for n, u, v, answer, engine in rows:
        calls.clear()
        assert equal(ArtinWord(n, tuple(u)), ArtinWord(n, tuple(v))) == answer, (n, len(u), len(v))
        assert calls == [n] * engine, (n, len(u), len(v))


def test_equal_agrees_with_two_normal_forms_past_the_table_bound():
    # equal against the comparison of normalize_group on each word, which
    # takes no fingerprint, on seeded pairs at 7 to 1,024 strands whose
    # words hold D and -D: w against a partner made by the five identity
    # moves, that partner with one generator more or with the commutator
    # of squares inserted, flip(w) D and an unrelated word, and D w
    # against w D and against flip(w) D
    rng = random.Random(2267)
    answers = collections.Counter()
    for n, length, words in ((7, 200, 4), (9, 200, 2), (16, 200, 2), (64, 150, 2),
                             (255, 100, 1), (256, 100, 1), (1024, 40, 1)):
        for _ in range(words):
            w = signed_symbols(rng, n, length, 0.02)
            partner = equal_partner(rng, n, w)
            i, at = rng.randint(1, n - 2), rng.randint(0, len(partner))
            g = rng.randint(1, n - 1) * rng.choice((1, -1))
            squares = [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1]
            flipped = flipped_symbols(n, w) + [n]
            for u, v in ((w, partner), (w, partner[:at] + [g] + partner[at:]),
                         (w, partner[:at] + squares + partner[at:]), (w, flipped),
                         (w, signed_symbols(rng, n, length, 0.02)), ([n] + w, w + [n]),
                         ([n] + w, flipped)):
                a, b = ArtinWord(n, tuple(u)), ArtinWord(n, tuple(v))
                answer = equal(a, b)
                assert answer == (normalize_group(a) == normalize_group(b)), n
                answers[answer] += 1
    assert answers == {True: 2 * 13, False: 5 * 13}  # two equal pairs per word



def test_group_form_round_trips_through_handle_reduction():
    # the normal form of a benchmark word, spelled as D^m and each factor's
    # reduced word, printed and read back, is the word's braid: the word
    # times its inverse reduces to empty under the handle-reduction twin,
    # which shares no step with the engine
    rng = random.Random(197)
    for n in (6, 8, 12, 16):
        for _ in range(5):
            tokens = bench_words.signed_word(rng, n, rng.randint(40, 60), 0.5, 0.02)
            w = parse_word(bench_words.text(n, tokens))
            back = parse_word(format_word(spelled_form(normalize_group(w))))
            assert handle_reduce(artin_letters(w) + artin_letters(formal_inverse(back))) == []


def test_garside_relations_past_the_twins():
    # For x = D^p a_1...a_k, inf(x) = p and sup(x) = p + k.  On seeded
    # benchmark words at strand counts no twin reaches: inf(x^-1) = -sup(x)
    # and sup(x^-1) = -inf(x) (Elrifai and Morton 1994; Epstein et al.,
    # Word Processing in Groups, ch. 9); the reversed word has the same inf
    # and sup; and the flip sending each generator i to n - i flips every
    # factor and keeps p, the relation test_flip_equivariance checks at n <= 8.
    # Garside's D^2 is central and D x = flip(x) D, so D^j w has the factors
    # of w and p + j, for an odd and a negative j; and u v has the form of
    # spelled_form(form(u)) v, at a seeded cut.  spelled_form writes each
    # factor as its reduced word, up to n^2/4 generators, so that relation
    # stops at n = 64: n = 256 and 1,024 took about 0.8 and 13 s.
    def bounds(form):
        return form.delta_power, form.delta_power + len(form.factors)

    rng, cuts = random.Random(241), random.Random(242)
    for n, size, words in ((9, 300, 6), (16, 300, 4), (64, 200, 3), (256, 80, 2), (1024, 30, 1)):
        for _ in range(words):
            w = parse_word(bench_words.text(n, bench_words.signed_word(rng, n, size, 0.5, 0.02)))
            form = normalize_group(w)
            inf, sup = bounds(form)
            assert bounds(normalize_group(formal_inverse(w))) == (-sup, -inf), n
            assert bounds(normalize_group(ArtinWord(n, w.symbols[::-1]))) == (inf, sup), n
            flipped = [s if abs(s) == n else (n if s > 0 else -n) - s for s in w.symbols]
            flipped_form = GroupNormalForm(n, inf, tuple(map(flip_braid, form.factors)))
            assert normalize_group(ArtinWord(n, flipped)) == flipped_form, n
            for j in (-1, 2):
                shifted = ArtinWord(n, (n if j > 0 else -n,) * abs(j) + w.symbols)
                assert normalize_group(shifted) == GroupNormalForm(n, inf + j, form.factors), n
            if n <= 64:
                cut = cuts.randint(0, len(w.symbols))
                u, v = ArtinWord(n, w.symbols[:cut]), w.symbols[cut:]
                spelled = spelled_form(normalize_group(u)).symbols
                assert normalize_group(ArtinWord(n, spelled + v)) == form, n


def test_forms_have_their_words_burau_image():
    # The Burau image at a random t mod 2^61 - 1 on a random row vector is
    # a homomorphism, so every form D^p a_1 ... a_k, each factor spelled by
    # its own insertion sort, must have its word's image; it reads no
    # permutation, meet or transfer of the package.  Faults that the
    # Garside relations cannot see, being symmetric under them, change the
    # image: a form without its last factor, or with p one lower, must not
    # match.  Seeded signed words with a low D share, where the cost is the
    # spelled D symbols and factors, so the form's image is taken in three
    # legs, D^p, a_1 ... a_(k-1) and a_k, and each fault's image starts
    # from a leg already taken.  At 256 and 1,024 strands the words have no
    # D, and the 1,024-strand word is short: the half twist and a factor
    # near it each spell as some 523,000 generators, 0.3 s of the twin.
    rng = random.Random(4613)
    for n, length, words, delta_share in ((9, 1500, 3, 0.01), (16, 1500, 3, 0.01),
                                          (64, 800, 2, 0.01), (255, 200, 1, 0.01),
                                          (256, 300, 1, 0.0), (1024, 20, 1, 0.0)):
        for k in range(words):
            w = ArtinWord(n, tuple(signed_symbols(rng, n, length, delta_share)))
            form = normalize_group(w)
            t = rng.randrange(2, BURAU_PRIME - 1)
            vector = [rng.randrange(BURAU_PRIME) for _ in range(n)]
            image = burau_image(n, w.symbols, t, vector)
            symbols, p = form_symbols(form), abs(form.delta_power)
            last = len(symbols) - len(sorted_word(form.factors[-1].perm) if form.factors else ())
            head = burau_image(n, symbols[:p], t, vector)
            short = burau_image(n, symbols[p:last], t, head)
            assert burau_image(n, symbols[last:], t, short) == image, (n, k)
            if k == 0:
                # without a_k, and with D^(p - 1) = D^p D^-1 in front
                assert form.factors and short != image
                assert burau_image(n, symbols[p:], t, burau_image(n, [-n], t, head)) != image


def _burau_image_swaps(seed, moves, share, cells):
    # equal against the Burau image of its two words (tests/twins.py): a
    # partner made by the identity moves that fit (three strands hold no
    # far commutation) has the word's image, and equal must answer True;
    # the partner with sigma_i^2 sigma_(i+1)^2 sigma_i^-2 sigma_(i+1)^-2
    # inserted has another image, and equal must answer False.  Equal
    # images alone would not prove a False answer wrong, Burau being
    # unfaithful for n >= 5, so the commutator's changed image is asserted,
    # not assumed.  Burau is faithful on three strands, so there a seeded
    # neighbour, w with two letters swapped, is equal exactly when its
    # image is; the swaps' verdicts are returned.  The row draws its words
    # from its own seed, with its moves and D share, as (n, length, words)
    # cells; the twin reads only the words, so its cost is their letters.
    rng = random.Random(seed)
    swaps = []
    for n, length, words in cells:
        fitting = [move for move in moves if n > 3 or move is not _far_commutation]
        for _ in range(words):
            symbols = signed_symbols(rng, n, length, share)
            partner = equal_partner(rng, n, symbols, moves=fitting)
            i, at = rng.randint(1, n - 2), rng.randint(0, len(partner))
            unequal = partner[:at] + [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1] + partner[at:]
            t = rng.randrange(2, BURAU_PRIME - 1)
            vector = [rng.randrange(BURAU_PRIME) for _ in range(n)]
            image = burau_image(n, symbols, t, vector)
            word = ArtinWord(n, tuple(symbols))
            assert burau_image(n, partner, t, vector) == image, n
            assert equal(word, ArtinWord(n, tuple(partner))), n
            assert burau_image(n, unequal, t, vector) != image, n
            assert not equal(word, ArtinWord(n, tuple(unequal))), n
            if n == 3:
                at = rng.randrange(length - 1)
                swapped = symbols[:at] + [symbols[at + 1], symbols[at]] + symbols[at + 2 :]
                same = burau_image(n, swapped, t, vector) == image
                assert equal(word, ArtinWord(n, tuple(swapped))) == same
                swaps.append(same)
    return swaps


def test_equal_agrees_with_the_burau_image():
    # 9 to 1,024 strands, words without D, partners without the half twist
    assert _burau_image_swaps(
        4621, (_cancelling_pair, _braid_relation, _far_commutation), 0.0,
        ((9, 300, 3), (16, 300, 3), (64, 300, 2), (255, 300, 2), (256, 300, 2), (1024, 200, 2)),
    ) == []


def test_equal_below_the_table_bound_agrees_with_the_burau_image():
    # 3 and 4 strands, words with D and partners by all the identity moves
    swaps = _burau_image_swaps(4627, IDENTITY_MOVES, 0.03, ((3, 200, 6), (4, 200, 6)))
    assert 0 < sum(swaps) < len(swaps)


def test_append_matches_fold_reference():
    # the engine's right-append of one letter to a normal form, on the word
    # alphabet, and the engine itself, against the rightmost rewriting twin
    # (a fold from the right), with arbitrary simple-braid letters
    from braidnf.perms import identity

    def rightmost(n, perms):
        word = PositiveWord(n, tuple(SimpleBraid(p) for p in perms))
        return [f.perm for f in gs_rewrite_to_fixpoint(word, "rightmost").factors]

    rng = random.Random(77)
    for _ in range(2000):
        n = rng.randint(2, 6)
        ident = identity(n)
        base = [
            tuple(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(0, 6))
        ]
        core = rightmost(n, base)
        x = tuple(rng.sample(range(1, n + 1), n))
        if x == ident:
            continue
        expected = rightmost(n, core + [x])
        words = normalform._word_alphabet(n)
        delta, appended = normalform._normalize_letters(words, core + [x])
        assert delta >= 0
        assert appended + [words.top] * delta == expected
        engine = normalize_positive(PositiveWord(n, tuple(SimpleBraid(p) for p in base + [x])))
        assert [f.perm for f in engine.factors] == expected


def _cut_stream(rng, n, positive):
    """
    A seeded engine symbol stream whose runs of generators meet every
    rule of the pending fraction B * C^-1 and end in every way a run can
    end.  A signed segment's last generator may cancel a crossing (of B
    after a positive run, of C after an inverse one), or follow an inverse
    run as a positive generator that commutes with all of it or one next
    to it, which closes the run.  A segment may also end at a sign
    change, at a generator that does not extend the run (its last
    generator again), at D or -D (the half twist or None), at a one-line
    letter and at the end of the stream.  Positive streams hold no
    inverse symbol, and their one-line letters include the identity and
    the half twist.
    """
    top = omega(n)
    cuts = ("square", "D", "letter") if positive else (
        "sign", "square", "D", "-D", "cancel", "commute", "next"
    )
    symbols = []
    for _ in range(rng.randint(1, 10)):
        cut = rng.choice(cuts)
        sign = 1 if positive else -1 if cut in ("commute", "next") else rng.choice((1, -1))
        run = [sign * rng.randint(1, n - 1) for _ in range(rng.randint(1, 4))]
        if cut == "sign":
            run.append(-sign * rng.randint(1, n - 1))
        elif cut == "square":
            run.append(run[-1])
        elif cut == "D":
            run.append(top)
        elif cut == "-D":
            run.append(None)
        elif cut == "cancel":
            run.append(-run[-1])
        elif cut in ("commute", "next"):
            taken = {-s for s in run}
            far = [j for j in range(1, n) if all(abs(j - k) > 1 for k in taken)]
            near = [j for j in range(1, n) if j not in taken and {j - 1, j + 1} & taken]
            run.append(rng.choice((far if cut == "commute" else near) or range(1, n)))
        else:
            run.append(rng.choice((tuple(range(1, n + 1)), top, random_simple(rng, n).perm)))
        symbols += run
    return symbols + [sign * rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))]


def test_engine_cuts_runs_alike_on_both_alphabets():
    # the one engine loop on the rank alphabet and on the word alphabet:
    # the same (delta, core) once ranks are read as braids, and
    # the right element, against the rightmost rewriting twin on the
    # positive path and the lifted group twin on the signed one; above
    # six strands the word alphabet alone, against the same twins
    rng = random.Random(2711)
    for n in (3, 4, 5, 6, 7, 8):
        words, top = normalform._word_alphabet(n), omega(n)
        for positive in (True, False):
            for _ in range(150):
                symbols = _cut_stream(rng, n, positive)
                delta, core = normalform._normalize_letters(words, symbols)
                if n <= normalform.TABLE_MAX_STRANDS:
                    tables = normalform._alphabet(n)
                    ranked = (delta, list(map(tables.letter, core)))
                    assert normalform._normalize_letters(tables, symbols) == ranked
                if positive:
                    letters = tuple(
                        generator_braid(n, s) if s.__class__ is int else SimpleBraid(s)
                        for s in symbols
                    )
                    twin = gs_rewrite_to_fixpoint(PositiveWord(n, letters), "rightmost")
                    assert delta >= 0
                    # above six strands the word alphabet's letters are bytes
                    assert list(map(tuple, core)) + [top] * delta == [f.perm for f in twin.factors]
                    continue
                signed = ArtinWord(n, tuple(
                    -n if s is None else n if s == top else s for s in symbols
                ))
                if delta & 1:
                    core = list(map(flip, core))
                form = GroupNormalForm(n, delta, tuple(map(SimpleBraid, core)))
                assert form == lifted_group_twin(signed)


def test_half_twist_factors_collect_at_the_tail():
    # normal forms never put the half twist before anything else
    rng = random.Random(59)
    top = omega(5)
    for _ in range(200):
        idxs = [rng.randint(1, 4) for _ in range(rng.randint(0, 25))]
        nf = normalize_positive(gen_word(5, idxs))
        perms = [f.perm for f in nf.factors]
        if top in perms:
            first = perms.index(top)
            assert all(p == top for p in perms[first:])


@pytest.fixture
def engine_counts(monkeypatch):
    """
    Count the engine's flips, its transfers and its run extension reads.
    Every engine call takes its flip, step and extend from
    normalform._alphabet, so that one function is wrapped, whatever the
    alphabet: the flip as a callable, the step as rows, read step[a][b],
    and extend by its rows, extend[s], a negative s passed through
    unchanged.  A transfer is a step that rewrites its pair, whether a
    table entry or the meet served it, so the counts do not depend on how
    warm the table is; the rank tables start fresh.  An extension is any
    read of extend, whether the run grows or not.
    """
    counts = collections.Counter()
    alphabet = normalform._alphabet

    class CountedRow:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, b):
            result = self.row[b]
            counts["transfer"] += result is not None
            return result

    class CountedRows:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, a):
            return CountedRow(self.rows[a])

    class CountedExtend:
        # the engine reads extend[s][p] whole, so each row read is one extension
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, s):
            counts["extension"] += 1
            return self.rows[s]

    def counted_alphabet(n):
        letters = alphabet(n)
        flip = letters.flip

        def counted_flip(a):
            counts["flip"] += 1
            return flip(a)

        return letters._replace(
            flip=counted_flip, step=CountedRows(letters.step), extend=CountedExtend(letters.extend)
        )

    monkeypatch.setattr(normalform, "_TABLES", {})
    monkeypatch.setattr(normalform, "_alphabet", counted_alphabet)
    return counts


def test_engine_work_per_letter_stays_flat(engine_counts):
    # Counts, not timings: quadruple the length and the flips and transfers
    # per letter must not grow with it.  Eager flipping of the core on each
    # inverse letter, or sweeping through a long form per letter, makes
    # them grow in proportion to the length.  Each rate is taken over a few
    # words, because the one flip of the core at the end happens or not
    # with the parity of the final half-twist count.
    short, count = 200, 4
    rng = random.Random(61)

    def per_letter(run, words, letters):
        engine_counts.clear()
        results = [run(w) for w in words]
        total = count * letters
        return results, engine_counts["flip"] / total, engine_counts["transfer"] / total

    # all inverse generators on four strands, about 2% half twists
    rates = []
    for length in (short, 4 * short):
        words = [
            ArtinWord(4, tuple(
                4 * rng.choice((1, -1)) if rng.random() < 0.02 else -rng.randint(1, 3)
                for _ in range(length)
            ))
            for _ in range(count)
        ]
        _forms, flips, transfers = per_letter(normalize_group, words, length)
        rates.append((flips, transfers))
        for w in words:
            w_inv = ArtinWord(4, w.symbols + formal_inverse(w).symbols)
            assert normalize_group(w_inv) == GroupNormalForm(4, 0, ())
    (flips_short, transfers_short), (flips_long, transfers_long) = rates
    assert flips_short > 0 and transfers_short > 0
    assert flips_long <= 1.5 * flips_short
    assert transfers_long <= 1.5 * transfers_short

    # positive words on three and four strands; with no inverse letters the
    # engine flips an incoming letter at most once and never the core
    for n in (3, 4):
        rates = []
        for length in (short, 4 * short):
            words = [
                gen_word(n, [rng.randint(1, n - 1) for _ in range(length)])
                for _ in range(count)
            ]
            forms, flips, transfers = per_letter(normalize_positive, words, length)
            assert flips <= 1
            rates.append(transfers)
            for w, nf in zip(words, forms):
                assert nf == gs_rewrite_to_fixpoint(w, "rightmost")
        assert rates[0] > 0 and rates[1] <= 1.5 * rates[0]


def test_normalize_positive_spots_generators_in_linear_space():
    # A 3-letter word on 1,024 strands holds a few one-line words of 8 KiB
    # each.  Listing all 1,023 adjacent transpositions to spot generator
    # letters would hold over 8 MiB whatever the word length.
    word = gen_word(1024, [1, 2, 1])
    tracemalloc.start()
    try:
        nf = normalize_positive(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert nf.factors == (SimpleBraid((3, 2, 1) + tuple(range(4, 1025))),)


def test_normalize_positive_one_and_two_strands(engine_counts):
    # on two strands every non-identity letter is the half twist, so each
    # goes straight into the trailing block without a transfer
    nf = normalize_positive(gen_word(2, [1] * 50))
    assert nf.factors == (omega_braid(2),) * 50
    mixed = PositiveWord(2, (identity_braid(2), omega_braid(2), generator_braid(2, 1)))
    assert normalize_positive(mixed).factors == (omega_braid(2),) * 2
    assert engine_counts["transfer"] == 0
    one = PositiveWord(1, (identity_braid(1), omega_braid(1)))
    assert normalize_positive(one).factors == ()


def test_runs_cut_transfers_per_letter(engine_counts):
    # Folding runs of generators into one simple letter before the engine
    # halves the transfers per letter on four strands: one per generator
    # appended singly came to about 2.0 (positive) and 1.4 (all inverse).
    # On mixed-sign words a run is a fraction B * C^-1 that spans sign
    # changes; with a run closed at every sign change these words took
    # 1.41 (n = 4) and 3.48 (n = 64) transfers per letter, against 0.78
    # and 1.53 with the fraction.  A positive generator reads C's rule
    # only when the mask says it may cancel into C: at n = 64 the run
    # read 1.52 extension rules per letter when it tried C first, 1.16 now.
    length, count = 800, 4
    rng = random.Random(101)
    positive = [
        gen_word(4, [rng.randint(1, 3) for _ in range(length)]) for _ in range(count)
    ]
    inverse = [
        ArtinWord(4, tuple(-rng.randint(1, 3) for _ in range(length)))
        for _ in range(count)
    ]
    mixed = {
        n: [
            ArtinWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))
            for _ in range(count)
        ]
        for n in (4, 64)
    }
    rows = (
        (normalize_positive, positive, 1.0),
        (normalize_group, inverse, 1.0),
        (normalize_group, mixed[4], 1.0),
        (normalize_group, mixed[64], 2.0),
    )
    for run, words, bound in rows:
        engine_counts.clear()
        for w in words:
            run(w)
        assert 0 < engine_counts["transfer"] / (count * length) <= bound, (run.__name__, words[0].n)
    assert engine_counts["extension"] / (count * length) <= 1.25  # the last row's, n = 64


def memo_entries(memo):
    """The entries an equal call's step memo stores, its rows counted."""
    return len(memo) + sum(map(len, memo.values()))


def live_memos():
    """The count of live normalform._Memo objects, rank-table rows included."""
    return sum(isinstance(o, normalform._Memo) for o in gc.get_objects())


def test_equal_shares_work_between_its_words(engine_counts):
    # an equal pair on 64 strands: equal computes at most 60% of the
    # transfers of two normalize_group calls, the same count each time it
    # is called, and leaves nothing behind; no memo survives the call even
    # without the garbage collector (the live memos, rank-table rows among
    # them, number the same before and after it), and no rank table is built
    rng = random.Random(2221)
    w1 = ArtinWord(64, tuple(signed_symbols(rng, 64, 256)))
    w2 = ArtinWord(64, tuple(equal_partner(rng, 64, w1.symbols)))
    normalize_group(w1), normalize_group(w2)
    separate = engine_counts["transfer"]
    counts = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            engine_counts.clear()
            before = live_memos()
            assert equal(w1, w2)
            counts.append(engine_counts["transfer"])
            assert live_memos() == before
    finally:
        if enabled:
            gc.enable()
    assert 0 < counts[0] == counts[1] <= 0.6 * separate
    assert normalform._TABLES == {}
    # the same word twice cancels whole: no transfer at all
    engine_counts.clear()
    assert equal(w1, w1) and engine_counts["transfer"] == 0


def test_normalize_group_takes_its_own_transfers(engine_counts):
    # normalize_group alone shares nothing: its transfer counts on seeded
    # words at 4, 7 and 64 strands, pinned when one side of a run began to
    # leave alone (a run closed whole took 213, 335 and 200, and one closed
    # at every sign change 359, 473 and 389)
    rng = random.Random(2237)
    counts = []
    for n in (4, 7, 64):
        engine_counts.clear()
        normalize_group(ArtinWord(n, tuple(signed_symbols(rng, n, 200, 0.02))))
        counts.append(engine_counts["transfer"])
    assert counts == [207, 280, 173]


def test_equal_memo_stays_within_its_budget(monkeypatch):
    # with the budget cut to a few entries, every answer stays the same
    # and no memo stores more than budget // n entries, rows included; a
    # call's step memo is the first _Memo made with a new room, and its
    # rows share that room.  Only a pair whose stream R1 R2^-1 leaves the
    # Burau row unmoved reaches the engine and makes a memo; on these
    # seeds, whose partners keep their net D counts, those are exactly the
    # equal pairs.
    memos, moved = [], []
    burau_moves = normalform._burau_moves

    def recorded_moves(*args):
        moved.append(burau_moves(*args))
        return moved[-1]

    monkeypatch.setattr(normalform, "_burau_moves", recorded_moves)

    class RecordedMemo(normalform._Memo):
        __slots__ = ()

        def __init__(self, fill, room):
            super().__init__(fill, room)
            if not any(memo.room is room for memo in memos):
                memos.append(self)

    monkeypatch.setattr(normalform, "_Memo", RecordedMemo)
    rng = random.Random(2239)
    pairs = []
    for n in (7, 8, 16, 64):
        for _ in range(6):
            symbols = signed_symbols(rng, n, 120, 0.02)
            partner = equal_partner(rng, n, symbols)
            if rng.random() < 0.5:
                partner.insert(rng.randint(0, len(partner)), rng.randint(1, n - 1))
            pairs.append((ArtinWord(n, tuple(symbols)), ArtinWord(n, tuple(partner))))
    answers = [equal(a, b) for a, b in pairs]
    assert 0 < sum(answers) < len(answers)
    budget = 64 * 8  # every memo fills: the fewest entries one pair takes unbounded is 104, at n = 7
    monkeypatch.setattr(normalform, "_MEMO_BUDGET", budget)
    memos.clear()
    moved.clear()
    assert [equal(a, b) for a, b in pairs] == answers
    assert [not m for m in moved] == answers
    agreeing = [pair for pair, m in zip(pairs, moved) if not m]
    assert len(memos) == len(agreeing) == sum(answers)
    for memo, (a, _) in zip(memos, agreeing):
        assert memo_entries(memo) + memo.room[0] == budget // a.n
    assert all(memo.room == [0] for memo in memos)


def test_transition_table_computes_each_pair_once(engine_counts, monkeypatch):
    # Four strands have 24 * 24 = 576 pairs of simple braids, so from a
    # fresh table the engine computes at most that many meets however many
    # transfers the words take; on seven strands no table is built.  The
    # fixture wraps _alphabet, so the raw tables are read from _TABLES.
    assert normalform._TABLES == {}  # the fixture's tables are fresh
    meets = 0
    meet = simple._meet_reads

    def counted_meet(u, b):
        nonlocal meets
        meets += 1
        return meet(u, b)

    monkeypatch.setattr(simple, "_meet_reads", counted_meet)
    length, count = 800, 4
    rng = random.Random(101)
    positive = [
        gen_word(4, [rng.randint(1, 3) for _ in range(length)]) for _ in range(count)
    ]
    inverse = [
        ArtinWord(4, tuple(-rng.randint(1, 3) for _ in range(length)))
        for _ in range(count)
    ]
    for w in positive:
        normalize_positive(w)
    for w in inverse:
        normalize_group(w)
    assert 0 < meets <= 576 < engine_counts["transfer"]
    assert 0 < sum(map(len, normalform._TABLES[4].step)) <= 576
    built = set(normalform._TABLES)
    before = meets
    for _ in range(count):
        normalize_group(ArtinWord(7, tuple(
            rng.randint(1, 6) * rng.choice((1, -1)) for _ in range(100)
        )))
    assert set(normalform._TABLES) == built and 7 not in built and meets > before


def test_rank_tables_fill_lazily_and_stop_at_six_strands(monkeypatch):
    # a short word on five strands asks for a small part of its 14,400
    # transitions, and one on six strands of its 518,400; no rank table is
    # ever built above six strands, where S_n would be too large to list
    monkeypatch.setattr(normalform, "_TABLES", {})
    rng = random.Random(131)
    for n, transitions in ((5, 14_400), (6, 518_400)):
        word = ArtinWord(n, tuple(
            rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(100)
        ))
        form = normalize_group(word)
        word_inv = ArtinWord(n, word.symbols + formal_inverse(word).symbols)
        assert normalize_group(word_inv) == GroupNormalForm(n, 0, ())
        filled = sum(map(len, normalform._alphabet(n).step))  # entries, not rows
        assert len(form.factors) > 0 and 0 < filled <= transitions // 10
    for n in (7, 64):
        signed = ArtinWord(n, tuple(
            rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(100)
        ))
        nf = normalize_group(signed)
        signed_inv = ArtinWord(n, signed.symbols + formal_inverse(signed).symbols)
        assert normalize_group(signed_inv) == GroupNormalForm(n, 0, ())
        assert is_normal(nf.factors)
        normalize_positive(gen_word(n, [rng.randint(1, n - 1) for _ in range(100)]))
    assert set(normalform._TABLES) == {5, 6}
    for n in (7, 64):
        alphabet = normalform._alphabet(n)
        assert alphabet.letter is bytes and alphabet.ident.__class__ is bytes
    with pytest.raises(ValueError, match="need at least one strand"):
        normalform._alphabet(0)
    assert set(normalform._TABLES) == {5, 6}


def test_rank_tables_never_forget(monkeypatch):
    # the step rows of fresh rank tables share room for every pair of
    # ranks: a full read takes one transfer per pair, stores all (n!)^2
    # entries and uses up the room exactly, and a second full read takes
    # no transfer
    monkeypatch.setattr(normalform, "_TABLES", {})
    calls = 0
    step_words = normalform._step_words

    def counted(a, b):
        nonlocal calls
        calls += 1
        return step_words(a, b)

    monkeypatch.setattr(normalform, "_step_words", counted)
    for n in (2, 3, 4, 5):
        step = normalform._alphabet(n).step
        size = math.factorial(n)
        room = step[0].room
        assert all(row.room is room for row in step) and room == [size**2]
        calls = 0
        first = [[row[b] for b in range(size)] for row in step]
        assert calls == sum(map(len, step)) == size**2 and room == [0]
        calls = 0
        assert [[row[b] for b in range(size)] for row in step] == first and calls == 0


def test_signed_run_rule_matches_the_product_twin():
    # extend[s][p] is p * s_|s| exactly when that product adds a crossing
    # (s > 0) or removes one (s < 0), else -1; the twin forms the product
    # and counts its crossings, on every letter up to five strands and on
    # seeded letters above.  Up to 255 strands the rule also takes the
    # letter as bytes, and swaps it by one translate into the same product
    rng = random.Random(3001)
    seeded = {6: 30, 7: 10, 8: 10, 16: 10, 64: 3, 1024: 1}  # letters drawn per strand count
    for n in [1, 2, 3, 4, 5, *seeded]:
        extend = normalform._word_alphabet(n).extend
        assert len(extend) == 2 * n - 1
        letters = all_permutations(n) if n <= 5 else (
            tuple(rng.sample(range(1, n + 1), n)) for _ in range(seeded[n])
        )
        for p in letters:
            crossings = length(p)
            for s in [*range(1, n), *range(1 - n, 0)]:
                grown = compose(p, adjacent_transposition(n, abs(s)))
                sign = 1 if s > 0 else -1
                want = grown if length(grown) == crossings + sign else -1
                assert extend[s][p] == want, (n, p, s)
                if n <= 255:
                    assert extend[s][bytes(p)] == (-1 if want == -1 else bytes(want)), (n, p, s)


def test_word_alphabet_keeps_its_parts_and_binds_flip_and_step_per_call(monkeypatch):
    # The word alphabet's parts that only n fixes are built once per strand
    # count: after one engine call, every alphabet of the next call wraps
    # the same record (normalform._word_parts).  Its flip and step are read
    # from the module on each call, so wrappers set on normalform.flip and
    # normalform._step_words after an engine call run in the next one, as
    # the tests that count steps and the benchmark's trace wrap them.  The
    # word has odd delta, so its core is flipped.  A cache of the whole
    # alphabet, or no cache of its parts, fails here.
    parts, seen, counts = normalform._word_parts, [], collections.Counter()
    monkeypatch.setattr(normalform, "_word_parts", lambda n: seen.append(parts(n)) or seen[-1])

    def counted(key, rule):
        return lambda *args: counts.update((key,)) or rule(*args)

    for n in (64, 300):
        w = parse_word(f"n={n}; D 1 2 1 -3 2 5 4 -5 1 2 3 2 -1")
        first = normalize_group(w)
        record = seen[-1]
        seen.clear()
        monkeypatch.setattr(normalform, "flip", counted(("flip", n), flip))
        monkeypatch.setattr(normalform, "_step_words", counted(("step", n), simple._step_words))
        assert normalize_group(w) == first and first.delta_power % 2 == 1
        assert seen and all(r is record for r in seen), n
        assert counts["flip", n] and counts["step", n], counts


def test_one_engine_on_bytes_and_tuple_letters():
    # the word alphabet's letters are bytes from seven to 255 strands and
    # tuples above; its rules take either type, so a copy of it on tuple
    # letters must give the same group forms on seeded signed words
    assert normalform._word_alphabet(255).ident.__class__ is bytes
    assert normalform._word_alphabet(256).ident.__class__ is tuple
    rng = random.Random(4502)
    for n, count in ((7, 40), (16, 20), (64, 6), (255, 2)):
        letters = normalform._word_alphabet(n)
        assert (letters.ident, letters.top) == (bytes(identity(n)), bytes(omega(n)))
        tuples = letters._replace(ident=identity(n), top=omega(n), letter=tuple)
        for _ in range(count):
            tokens = bench_words.signed_word(rng, n, rng.randint(20, 160), rng.random(), 0.05)
            symbols = parse_word(bench_words.text(n, tokens)).symbols
            form = normalform._group_form(n, symbols, letters)
            assert form == normalform._group_form(n, symbols, tuples), (n, tokens)


def test_mask_clear_generators_cannot_cancel_into_c():
    # the engine's run reads extend[s][neg] for s > 0 only when bit s of
    # blocked is set; a clear bit must mean that s commutes with all of C,
    # so it can cancel no crossing of C.  C is built by the engine's own
    # rules: an inverse generator grows neg and sets bits k - 1 .. k + 1,
    # a positive one cancels into neg, and C back at the identity clears
    # the mask.  After each move every clear bit is checked.
    rng = random.Random(4401)
    walks = {2: 200, 3: 200, 4: 200, 5: 200, 6: 200, 7: 200, 8: 200, 16: 150, 64: 60}
    checks = 0
    for n, count in walks.items():
        alphabets = [normalform._word_alphabet(n)]
        if n <= normalform.TABLE_MAX_STRANDS:
            alphabets.append(normalform._alphabet(n))
        for alphabet in alphabets:
            extend, top = alphabet.extend, alphabet.top
            for _ in range(count):
                neg, blocked = top, 0
                for _ in range(rng.randint(1, n)):
                    k = rng.randint(1, n - 1)
                    if rng.random() < 0.5:
                        if (grown := extend[-k][neg]) != -1:
                            neg, blocked = grown, blocked | 7 << (k - 1)
                    elif blocked >> k & 1 and (grown := extend[k][neg]) != -1:
                        neg = grown
                        if neg == top:
                            blocked = 0
                    clear = [s for s in range(1, n) if not blocked >> s & 1]
                    assert [extend[s][neg] for s in clear] == [-1] * len(clear), (n, neg)
                    checks += len(clear)
    assert checks > 90_000


def test_support_lists_the_generators_of_every_reduced_word():
    # support[x] has bit k set exactly when s_k is a letter of x: the twin
    # reads the generators off the canonical reduced word, on every letter
    # up to five strands and on seeded letters above, as bytes up to 255
    # strands and as tuples above
    rng = random.Random(4601)
    seeded = {6: 40, 7: 40, 8: 40, 16: 20, 64: 6, 255: 2, 256: 2}
    for n in [1, 2, 3, 4, 5, *seeded]:
        words = normalform._word_alphabet(n)
        letters = all_permutations(n) if n <= 5 else [
            tuple(rng.sample(range(1, n + 1), n)) for _ in range(seeded[n])
        ]
        if n > 5:  # letters that keep some {1..k} fixed, and generators
            letters += [compose(adjacent_transposition(n, k), p) for k, p in zip(
                (1, n - 1, n // 2), (identity(n), omega(n), identity(n)))]
        for p in letters:
            used = {abs(k) for k in simple_to_artin(SimpleBraid(p)).symbols}
            assert words.support[words.letter(p)] == sum(1 << k for k in used), (n, p)


def _step_reads(n, symbols) -> list:
    """The (left, right) pairs one engine call on the word alphabet steps, in order."""
    words = normalform._word_alphabet(n)
    reads = []

    class RecordedRow:
        def __init__(self, a):
            self.a = a

        def __getitem__(self, b):
            reads.append((self.a, b))
            return words.step[self.a][b]

    class RecordedRows:
        def __getitem__(self, a):
            return RecordedRow(a)

    normalform._normalize_letters(words._replace(step=RecordedRows()), symbols)
    return reads


def test_one_side_of_a_closing_run_leaves_alone():
    # The run B * C^-1 with B = s1 and C = s5 on eight strands, which
    # commute, meets a generator it cannot take.  (A) s1 commutes with C,
    # so B leaves alone and the run goes on as s1 * C^-1; (B) s4 is
    # blocked by C, so C^-1 leaves alone and the run goes on as s1 s4;
    # (C) s5^-1 cannot grow C, so C^-1 leaves alone and C starts anew.
    # The engine steps exactly the pairs of those letters entered by hand,
    # not those of the whole run's close, and its forms match the twins.
    n = 8
    words = normalform._word_alphabet(n)
    top = omega(n)
    s1, s4 = adjacent_transposition(n, 1), adjacent_transposition(n, 4)
    s1s4 = compose(s1, s4)
    c = tuple(words.extend[-5][words.top])  # Omega * s5^-1
    rng = random.Random(4603)
    cases = {
        "A": ([1, -5, 1], [s1, s1, None, c], [s1, None, c, s1]),
        "B": ([1, -5, 4], [None, c, s1s4], [s1, None, c, s4]),
        "C": ([1, -5, -5], [None, c, s1, None, c], [s1, None, c, None, c]),
    }
    for rule, (run, alone, whole) in cases.items():
        for _ in range(10):
            prefix = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(12)] + [top]
            reads = _step_reads(n, prefix + run)
            assert reads == _step_reads(n, prefix + alone), rule
            assert reads != _step_reads(n, prefix + whole), rule
            symbols = [n if s == top else s for s in prefix] + run
            word = ArtinWord(n, tuple(symbols))
            assert normalize_group(word) == lifted_group_twin(word), (rule, symbols)
            assert handle_reduce(artin_letters(word) + artin_letters(
                formal_inverse(spelled_form(normalize_group(word))))) == []


def test_runs_whose_sides_leave_alone_match_the_twins():
    # seeded words made of runs B * C^-1 whose generators lie in two far
    # apart blocks of strands, each closed by a generator that fires (A)
    # (B's last generator again), (B) (a positive neighbour of C) or (C)
    # (C's last generator again), against the lifted group twin
    rng = random.Random(4607)
    for n in (7, 8, 9, 12, 16):
        for _ in range(25):
            symbols = []
            for _ in range(rng.randint(1, 5)):
                low = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
                high = [-rng.randint(n - 3, n - 1) for _ in range(rng.randint(1, 3))]
                close = rng.choice((low[-1], -high[-1] - 1, high[-1]))
                symbols += low + high + [close]
                if rng.random() < 0.2:
                    symbols.append(rng.choice((n, -n)))
            word = ArtinWord(n, tuple(symbols))
            assert normalize_group(word) == lifted_group_twin(word), (n, symbols)


def test_rank_alphabet_is_the_word_alphabet_read_through_ranks(monkeypatch):
    # the rank tables state no rule of their own: each rule of the rank
    # alphabet is the word alphabet's, read through letter and braid, and
    # its step, filled from empty step rows, agrees on every pair of ranks
    monkeypatch.setattr(normalform, "_TABLES", {})
    for n in range(1, 6):
        ranks, words = normalform._alphabet(n), normalform._word_alphabet(n)
        perm = [ranks.braid(a).perm for a in range(len(ranks.step))]
        rank = ranks.letter
        assert not any(ranks.step)
        assert (perm[ranks.ident], perm[ranks.top]) == (words.ident, words.top)
        assert sorted(perm) == sorted(all_permutations(n))
        for a, p in enumerate(perm):
            assert rank(p) == a and ranks.braid(a) == words.braid(p)
            assert perm[ranks.flip(a)] == words.flip(p)
            assert ranks.support[a] == words.support[p]
            for s in [*range(1, n), *range(1 - n, 0)]:
                grown = words.extend[s][p]
                assert ranks.extend[s][a] == (-1 if grown == -1 else rank(grown))
            for b, q in enumerate(perm):
                step = words.step[p][q]
                want = None if step is None else (rank(step[0]), rank(step[1]))
                assert ranks.step[a][b] == want
        assert all(len(row) == len(perm) for row in ranks.step)


def test_normal_forms_are_counted_by_the_growth_series(monkeypatch):
    # Every positive braid has exactly one normal form, so both counts of
    # the forms with L crossings must be the coefficient of t^L in
    # Deligne's series, which knows nothing of transfers.  The table count
    # chains factors whose step entries are None (normal pairs); the engine
    # count normalises every generator word of length L and counts the
    # distinct results, so it also checks heads and tails: two forms for
    # one braid raise it, one form for two braids lowers it.  Six strands'
    # table count fills all 518,400 entries and stays out of this test.
    monkeypatch.setattr(normalform, "_TABLES", {})
    assert growth_series(3, 8) == [1, 2, 4, 7, 12, 20, 33, 54, 88]
    assert growth_series(4, 6) == [1, 3, 8, 19, 43, 94, 202]
    assert growth_series(7, 4) == [1, 6, 26, 95, 316]
    top = 20
    for n in (2, 3, 4, 5):
        tables = normalform._alphabet(n)
        lengths = [length(p) for p in all_permutations(n)]
        states = [x for x in range(len(lengths)) if x != tables.ident]
        normal_after = {b: [a for a in states if tables.step[a][b] is None] for b in states}
        ends = [[0] * len(lengths) for _ in range(top + 1)]  # ends[L][b]: forms ending in b
        for total in range(1, top + 1):
            for b in states:
                rest = total - lengths[b]
                if rest == 0:
                    ends[total][b] = 1  # b alone
                elif rest > 0:
                    ends[total][b] = sum(ends[rest][a] for a in normal_after[b])
        assert [1] + [sum(row) for row in ends[1:]] == growth_series(n, top), n
    for n, total in ((3, 14), (4, 10), (5, 8), (6, 6), (7, 5), (9, 4)):
        alphabet = normalform._alphabet(n)
        forms = set()
        for word in itertools.product(range(1, n), repeat=total):
            delta, core = normalform._normalize_letters(alphabet, word)
            forms.add((delta, tuple(core)))
        assert len(forms) == growth_series(n, total)[total], n
