import copy
import hashlib
import itertools
import json
import pickle
import random
import time

import pytest

from braidnf import textio
from braidnf.normalform import GroupNormalForm, PositiveWord, normalize_group, normalize_positive
from braidnf.perms import all_permutations
from braidnf.simple import SimpleBraid, generator_braid, identity_braid, omega_braid
from braidnf.textio import (
    MAX_DRAWING_CELLS,
    MAX_LETTERS,
    MAX_STRANDS,
    ArtinWord,
    ParseError,
    format_normal_form,
    format_permutation,
    format_word,
    parse_permutation,
    parse_word,
    render_diagram,
    simple_to_artin,
    word_to_simple_letters,
)
from twins import formal_inverse, grammar_twin


def test_parse_word():
    w = parse_word("n=3; 1 2 1")
    assert w.n == 3
    assert w.symbols == (1, 2, 1)
    # D and -D are n and -n
    assert parse_word("n=3; -1 D").symbols == (-1, 3)
    assert parse_word("n=5;").symbols == ()
    assert parse_word("  n = 4 ;  -D   2  ").symbols == (-4, 2)
    # a leading + is accepted on integers, and on nothing else
    assert parse_word("n=3; +1 -1").symbols == (1, -1)
    for bad in ["n=3; +D", "n=3; +-1"]:
        with pytest.raises(ParseError, match="bad token"):
            parse_word(bad)


def test_parse_word_errors():
    for bad in ["1 2 1", "n=3 1", "m=3; 1", "n=3; 3", "n=3; 0", "n=3; x", "n=0;", "n=3; --D"]:
        with pytest.raises(ParseError):
            parse_word(bad)
    # the grammar is ASCII: no other scripts' digits, no underscores in integers
    for bad in ["n=\u0663; 1 2", "n=3; \u0661 \u0662", "n=12; 1_0", "n=3; 1\u00a02", "n\u00a0=3; 1"]:
        with pytest.raises(ParseError):
            parse_word(bad)
    for bad in ["[\u0662 \u0661]", "[\u00a02 1]"]:
        with pytest.raises(ParseError):
            parse_permutation(bad)
    assert parse_word("n=3; -1 D -D").symbols == (-1, 3, -3)
    # whitespace is the six characters of ASCII \s; str.split()'s other
    # separators, \x1c-\x1f, are refused, and a header prints as given
    assert parse_word("n=3;\t1\n2\r1\x0b2\x0c1 2").symbols == (1, 2, 1, 2, 1, 2)
    for sep in "\x1c\x1d\x1e\x1f":
        with pytest.raises(ParseError) as caught:
            parse_word(f"n=3;1{sep}2")
        assert str(caught.value) == f"bad character {sep!r} in word"
        with pytest.raises(ParseError) as caught:
            parse_word(f"{sep}n=3;1")
        assert str(caught.value) == f"bad header {sep + 'n=3'!r}; expected 'n=<int>;'"
    with pytest.raises(ParseError) as caught:
        parse_word(" m = 3 ; 1")
    assert str(caught.value) == "bad header ' m = 3 '; expected 'n=<int>;'"


@pytest.mark.parametrize(
    "text,message",
    [
        ("n=3; 1 x 0", "bad token 'x'"),
        ("n=3; 0 1 x", "generator index 0 is not allowed"),
        ("n=3; 2 5 x", "generator index 5 out of range 1..2"),
        ("n=3; 2 -3 y 0", "generator index 3 out of range 1..2"),
        ("n=3; 1 1 +D 1 0 x 0 +D", "bad token '+D'"),
        ("n=4; D -D 2 -9 -D 0 9 z", "generator index 9 out of range 1..3"),
    ],
)
def test_first_bad_token_in_word_order_wins(text, message):
    # several distinct bad tokens: the error names the first in the word,
    # whatever order the distinct tokens are checked in
    with pytest.raises(ParseError) as exc:
        parse_word(text)
    assert str(exc.value) == message


def _repetitive_text(rng, n, length):
    """A word drawn from a pool of a few tokens, with +k, D and -D among them."""
    pool = ["D", "-D"] + [str(rng.choice((-1, 1)) * rng.randint(1, n - 1)) for _ in range(3)]
    pool.append("+" + str(rng.randint(1, n - 1)))
    return f"n={n}; " + " ".join(rng.choice(pool) for _ in range(length))


def test_parse_and_format_match_per_item_twins():
    def parse_per_token(text):
        head, _, rest = text.partition(";")
        n = int(head.split("=")[1])
        halves = {"D": n, "-D": -n}
        return ArtinWord(n, tuple(halves[t] if t in halves else int(t) for t in rest.split()))

    def format_per_factor(form):
        parts = [f"D^{form.delta_power} :"]
        for f in form.factors:
            parts.append("[" + " ".join(str(v) for v in f.perm) + "]")
        return " ".join(parts)

    rng = random.Random(1901)
    for n in [2, 3, 4, 5, 64]:
        for _ in range(8):
            text = _repetitive_text(rng, n, rng.randint(0, 300 if n < 64 else 120))
            word = parse_word(text)
            assert word == parse_per_token(text)
            form = normalize_group(word)
            assert format_normal_form(form) == format_per_factor(form)


def test_word_roundtrip():
    for text in ["n=3;", "n=3; 1 2 1", "n=4; -1 D 3 -D -3", "n=2; 1 -1"]:
        w = parse_word(text)
        assert parse_word(format_word(w)) == w
    assert format_word(parse_word("n=3;  1   -2 ")) == "n=3; 1 -2"


def test_parse_permutation():
    assert parse_permutation("[3 5 4 2 6 1]") == (3, 5, 4, 2, 6, 1)
    assert parse_permutation(" [1 2 3] ") == (1, 2, 3)
    assert parse_permutation("[03 001 2]") == (3, 1, 2)
    for bad in ["[1 1 3]", "[0 1]", "3 5 4", "[]", "[1 2", "[a b]"]:
        with pytest.raises(ParseError):
            parse_permutation(bad)
    # the text prints as given, separators and padding included
    for bad in ["[1 2]\x1c", "[1\x1f2]", " [1 2 "]:
        with pytest.raises(ParseError) as caught:
            parse_permutation(bad)
        assert str(caught.value) == f"expected '[v1 v2 ... vn]', got {bad!r}"
    with pytest.raises(ParseError) as caught:
        parse_permutation(" [1-2] ")
    assert str(caught.value) == "bad permutation entries in ' [1-2] '"
    for p in [(1,), (2, 1), (3, 5, 4, 2, 6, 1)]:
        assert parse_permutation(format_permutation(p)) == p
    with pytest.raises(ValueError, match="^need at least one strand$"):
        format_permutation(())  # "[]", which parse_permutation refuses


def test_integers_of_any_length():
    # int() and str() refuse more than 4,300 digits: leading zeros are
    # dropped first, and a longer run is out of range, named as given
    zeros, nines = "0" * 5000, "9" * 4301
    for padded, plain in [
        (f"n=3; {zeros}1 2", "n=3; 1 2"),
        (f"n={zeros}3; 1 2", "n=3; 1 2"),
        (f"n=3; -{zeros}2 +{zeros}1", "n=3; -2 +1"),
    ]:
        assert parse_word(padded) == parse_word(plain)
        twin = grammar_twin(plain, MAX_STRANDS, MAX_LETTERS)
        assert grammar_twin(padded, MAX_STRANDS, MAX_LETTERS) == twin
    for text, message in [
        (f"n=3; 1 -{zeros}", "generator index 0 is not allowed"),
        (f"n={zeros}{nines};", f"strand count {nines} out of range 1..1024"),
        (f"n=3; 1 -{zeros}{nines}", f"generator index {nines} out of range 1..2"),
        (f"n=3; +{nines} x", f"generator index {nines} out of range 1..2"),
    ]:
        with pytest.raises(ParseError) as caught:
            parse_word(text)
        assert str(caught.value) == message
        assert grammar_twin(text, MAX_STRANDS, MAX_LETTERS) is None
    assert parse_permutation(f"[{zeros}2 {zeros}1]") == (2, 1)
    with pytest.raises(ParseError) as caught:
        parse_permutation(f"[1 -{zeros}{nines}]")
    assert str(caught.value) == f"permutation entry {nines} out of range 1..2"
    with pytest.raises(ParseError, match="^bad permutation entries"):
        parse_permutation(f"[1 {zeros}2-1]")


def test_word_to_simple_letters():
    w = word_to_simple_letters(parse_word("n=3; 1 2 1"))
    assert [x.perm for x in w.letters] == [(2, 1, 3), (1, 3, 2), (2, 1, 3)]
    assert word_to_simple_letters(parse_word("n=3; D")).letters == (omega_braid(3),)
    with pytest.raises(ParseError):
        word_to_simple_letters(parse_word("n=3; -1"))


def test_each_parsed_letter_is_checked_once(monkeypatch):
    """
    parse_word and word_to_simple_letters check each letter on its way in
    and build their words without the constructors' checks, which the
    public constructors, copies and pickles still run.
    """
    checked = []
    for cls in (ArtinWord, PositiveWord):
        check = cls.__post_init__

        def counted(self, check=check):
            checked.append(type(self))
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    word = parse_word("n=4; 1 2 3 D 2 1 1")
    letters = word_to_simple_letters(word)
    assert checked == []
    assert ArtinWord(4, word.symbols) == word
    assert PositiveWord(4, letters.letters) == letters
    assert checked == [ArtinWord, PositiveWord]
    for bad in [(0,), (5,), (True,), (1.0,)]:
        with pytest.raises(ValueError) as caught:
            ArtinWord(4, bad)
        assert str(caught.value) == f"symbol {bad[0]!r} is not a nonzero int in -4..4"
    with pytest.raises(ValueError) as caught:
        PositiveWord(4, (*letters.letters, generator_braid(3, 1)))
    assert str(caught.value) == "letter on 3 strands in a word on 4"
    del checked[:]
    for value in (word, letters):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert checked == [ArtinWord, ArtinWord, PositiveWord, PositiveWord]


def test_simple_to_artin():
    w = simple_to_artin(omega_braid(3))
    assert w.symbols == (1, 2, 1)
    assert simple_to_artin(identity_braid(4)).symbols == ()
    assert simple_to_artin(generator_braid(3, 2)).symbols == (2,)
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = SimpleBraid(tuple(rng.sample(range(1, n + 1), n)))
        w = simple_to_artin(a)
        assert len(w.symbols) == a.crossings()
        back = normalize_positive(word_to_simple_letters(w))
        if a == identity_braid(a.n):
            assert back.factors == ()
        else:
            assert back.factors == (a,)


def _rescanning_reduced_word(perm):
    """Peel the leftmost descent off, rescanning from position 0 after each swap."""
    current, out = list(perm), []
    while True:
        descents = [i for i in range(len(current) - 1) if current[i] > current[i + 1]]
        if not descents:
            return out
        i = descents[0]
        out.append(i + 1)
        current[i], current[i + 1] = current[i + 1], current[i]


def test_simple_to_artin_matches_the_rescanning_peel_in_linear_time():
    rng = random.Random(294)
    for n in [2, 3, 4, 5, 6, 8, 12, 16, 32, 64]:
        for _ in range(40 if n <= 16 else 5):
            a = SimpleBraid(tuple(rng.sample(range(1, n + 1), n)))
            assert simple_to_artin(a).symbols == tuple(_rescanning_reduced_word(a.perm)), a
    # identity on the first half of the strands, reversed on the rest: a
    # rescan from position 0 after every crossing costs n/2 steps per crossing
    n = 512
    a = SimpleBraid(tuple(range(1, n // 2 + 1)) + tuple(range(n, n // 2, -1)))
    started = time.perf_counter()
    w = simple_to_artin(a)
    elapsed = time.perf_counter() - started
    assert len(w.symbols) == a.crossings()
    assert elapsed < 0.25, elapsed


def test_format_normal_form_text():
    assert format_normal_form(GroupNormalForm(3, 1, ())) == "D^1 :"
    form = GroupNormalForm(
        8,
        0,
        (SimpleBraid((1, 2, 5, 6, 3, 4, 7, 8)), SimpleBraid((6, 5, 7, 8, 4, 3, 2, 1))),
    )
    assert format_normal_form(form) == "D^0 : [1 2 5 6 3 4 7 8] [6 5 7 8 4 3 2 1]"
    with pytest.raises(ValueError):
        format_normal_form(form, "yaml")


def test_format_normal_form_json_roundtrip():
    form = normalize_group(parse_word("n=4; 1 -3 2 D"))
    payload = json.loads(format_normal_form(form, "json"))
    assert payload == {"n": 4, "delta_power": 0, "factors": [[4, 1, 2, 3], [4, 1, 3, 2]]}
    factors = tuple(SimpleBraid(tuple(f)) for f in payload["factors"])
    assert GroupNormalForm(payload["n"], payload["delta_power"], factors) == form


def test_formal_inverse_and_concat():
    w = parse_word("n=3; 1 -2 D")
    wi = formal_inverse(w)
    assert format_word(wi) == "n=3; -D 2 -1"
    assert normalize_group(ArtinWord(3, w.symbols + wi.symbols)) == GroupNormalForm(3, 0, ())


def test_render_ascii():
    one = render_diagram(word_to_simple_letters(parse_word("n=2; 1")), "ascii")
    assert one.count("\\") == 2  # a single crossing
    assert one == render_diagram(word_to_simple_letters(parse_word("n=2; 1")), "ascii")
    empty = render_diagram(PositiveWord(3, ()), "ascii")
    assert "\\" not in empty and "/" not in empty
    assert empty.count("|") == 6  # three strands, top and bottom rows
    eight = render_diagram(PositiveWord(6, (SimpleBraid((4, 2, 6, 1, 5, 3)),)), "ascii")
    assert eight.count("\\") == 2 * 8
    allowed = set("|\\/ \n")
    assert set(eight) <= allowed


def test_render_svg():
    word = word_to_simple_letters(parse_word("n=2; 1"))
    svg = render_diagram(word, "svg")
    assert svg.startswith("<svg ")
    assert svg.count('class="under"') == 1
    assert svg.count('class="over"') == 1
    assert svg == render_diagram(word, "svg")
    eight = render_diagram(PositiveWord(6, (SimpleBraid((4, 2, 6, 1, 5, 3)),)), "svg")
    assert eight.count('class="under"') == 8
    empty = render_diagram(PositiveWord(3, ()), "svg")
    assert empty.count('class="strand"') == 3
    with pytest.raises(ValueError):
        render_diagram(word, "png")


def _reference_words():
    """
    Seeded positive words at n = 1..9 with 0-6 letters each, drawn from the
    first 300 permutations of S_n (the identity among them) and the half
    twist; the empty word comes up at every n.
    """
    rng = random.Random(11)
    for n in range(1, 10):
        pool = [*itertools.islice(all_permutations(n), 300), omega_braid(n).perm]
        for length in range(7):
            for _ in range(20):
                yield PositiveWord(n, tuple(SimpleBraid(rng.choice(pool)) for _ in range(length)))


def test_render_bytes_match_reference():
    # the digest pins every byte of both formats over 1,260 words
    digest = hashlib.sha256()
    for word in _reference_words():
        for format in ("ascii", "svg"):
            digest.update(render_diagram(word, format).encode())
            digest.update(b"\0")
    assert digest.hexdigest() == "66968bbf01cdc1775a732814f40a6e0afcc3c17a11f251ff4963e06d437db9b0"


def test_drawing_bound(monkeypatch):
    assert MAX_DRAWING_CELLS == 2**18
    # the half twist on 64 strands has 2,016 crossing rows and one bar row,
    # 129,088 cells, and draws
    half_twist = word_to_simple_letters(parse_word("n=64; D"))
    assert (half_twist.crossing_number() + len(half_twist)) * half_twist.n == 129_088
    assert len(render_diagram(half_twist, "ascii").splitlines()) == 3 * 2016 + 2
    assert render_diagram(half_twist, "svg").count('class="over"') == 2016
    huge = word_to_simple_letters(parse_word("n=1024; D"))
    for format in ("ascii", "svg"):
        with pytest.raises(ValueError, match="drawing of 536347648 cells .* over 262144"):
            render_diagram(huge, format)
    # a shared letter counts at each of its places, and an identity letter
    # counts its bar row: 12 crossings and 4 letters on 4 strands
    monkeypatch.setattr(textio, "MAX_DRAWING_CELLS", 64)
    twice = PositiveWord(4, (omega_braid(4), identity_braid(4)) * 2)
    assert render_diagram(twice, "ascii").count("\\") == 2 * 12
    assert render_diagram(twice, "svg").count('class="over"') == 12
    monkeypatch.setattr(textio, "MAX_DRAWING_CELLS", 63)
    for format in ("ascii", "svg"):
        with pytest.raises(ValueError, match="drawing of 64 cells"):
            render_diagram(twice, format)
    with pytest.raises(ValueError, match="unknown format"):
        render_diagram(huge, "png")


def test_drawing_bound_counts_bands_without_crossings():
    # 1,000 identity letters on 1,024 strands have no crossings, but would
    # draw 1,001 bar rows, 4,098,094 bytes of ASCII; they are refused
    blank = PositiveWord(1024, (identity_braid(1024),) * 1000)
    for format in ("ascii", "svg"):
        with pytest.raises(ValueError, match="drawing of 1024000 cells .* over 262144"):
            render_diagram(blank, format)
    # a band of identity letters under the bound draws its bar rows
    assert render_diagram(PositiveWord(3, (identity_braid(3),) * 2), "ascii") == "|   |   |\n" * 3


def test_artin_word_validation():
    # symbols are nonzero ints of absolute value at most n; n and -n are D and -D
    for bad in [(0,), (4,), (-4,), (1, 0, 2), (True,), ("1",), (1.0,)]:
        with pytest.raises(ValueError, match="is not a nonzero int in -3..3"):
            ArtinWord(3, bad)
    with pytest.raises(ValueError):
        ArtinWord(0, ())
    assert ArtinWord(3, (3, -3)) == parse_word("n=3; D -D")
    assert ArtinWord(1, (1, -1)) == parse_word("n=1; D -D")
