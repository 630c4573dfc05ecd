"""Property tests of the group normal form on short signed words."""
import json
import operator
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf.normalform import GroupNormalForm, PositiveWord, normalize_group
from braidnf.simple import SimpleBraid, flip_braid
from braidnf.textio import (
    MAX_LETTERS,
    MAX_STRANDS,
    ArtinWord,
    ParseError,
    format_normal_form,
    format_word,
    parse_permutation,
    parse_word,
    simple_to_artin,
    word_to_simple_letters,
)
from twins import (
    WHITESPACE,
    artin_letters,
    formal_inverse,
    grammar_twin,
    handle_reduce,
    lifted_group_twin,
    spelled_form,
)

# A fixed, derandomised example budget keeps this file to a few seconds.
BUDGET = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# Above eight strands each example spells its half twists in n(n-1)/2
# letters for the handle-reduction twin, so those words get a budget of
# their own.
WIDE_BUDGET = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# Word texts are short and parse in microseconds; the grammar property
# takes many of them, within about a second.
GRAMMAR_BUDGET = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Characters a near-miss puts into a word text: signs, D, digits, the
# header's own characters, the underscore int() would take, every ASCII
# control character and DEL, and non-ASCII digits, letters and spaces.
NEAR_MISSES = (
    "+-Dd0123456789n=;_ " + "".join(map(chr, range(32))) + "\x7f"
    + "\u0663\u00a0\u2003\uff11\u00e9\u0085"
)
# Spaces str.split() or a Unicode \s would split at, and the grammar does not.
ODD_SPACES = "\x1c\x1d\x1e\x1f\x00\u0085\u00a0\u2003"


@st.composite
def signed_words(draw, max_strands=8, min_strands=2):
    """
    Words on min_strands..max_strands strands over signed generators, with
    a few D and -D: symbols in -n..n without 0, where n and -n are the half
    twists.
    """
    n = draw(st.integers(min_strands, max_strands))
    symbol = st.one_of(
        st.builds(operator.mul, st.integers(1, n - 1), st.sampled_from((1, -1))),
        st.sampled_from((n, -n)),
    )
    return ArtinWord(n, tuple(draw(st.lists(symbol, max_size=24))))


@BUDGET
@given(signed_words())
def test_word_times_its_inverse_is_trivial(word):
    form = normalize_group(ArtinWord(word.n, word.symbols + formal_inverse(word).symbols))
    assert form == GroupNormalForm(word.n, 0, ())


@BUDGET
@given(signed_words(32))
def test_agrees_with_the_rightmost_twin(word):
    assert normalize_group(word) == lifted_group_twin(word)


@WIDE_BUDGET
@given(signed_words(16, min_strands=9))
def test_printed_form_is_the_word_by_handle_reduction(word):
    # on 9..16 strands, the word times the inverse of its printed form,
    # read back, reduces to empty under the handle-reduction twin, which
    # shares no step with the engine
    back = parse_word(format_word(spelled_form(normalize_group(word))))
    assert handle_reduce(artin_letters(word) + artin_letters(formal_inverse(back))) == []


@BUDGET
@given(signed_words())
def test_printed_form_reads_back(word):
    assert parse_word(format_word(word)) == word
    # the text form prints D^k and each factor's permutation; spelled as a
    # word (k half twists, then each factor's reduced word) and parsed
    # back, it normalises to the same form, and so does the JSON form
    form = normalize_group(word)
    head, _, factors = format_normal_form(form).partition(" :")
    power = int(head.removeprefix("D^"))
    symbols = [word.n if power > 0 else -word.n] * abs(power)
    for perm in re.findall(r"\[[^]]*\]", factors):
        symbols += simple_to_artin(SimpleBraid(parse_permutation(perm))).symbols
    text = format_word(ArtinWord(word.n, tuple(symbols)))
    assert normalize_group(parse_word(text)) == form
    assert json.loads(format_normal_form(form, "json")) == {
        "n": word.n,
        "delta_power": form.delta_power,
        "factors": [list(f.perm) for f in form.factors],
    }


@BUDGET
@given(signed_words())
def test_flip_equivariance(word):
    # sending each generator i to n - i flips every factor and keeps the
    # half-twist power
    n = word.n
    flipped = ArtinWord(
        n, tuple((n if s > 0 else -n) - s if abs(s) < n else s for s in word.symbols)
    )
    form = normalize_group(word)
    assert normalize_group(flipped) == GroupNormalForm(
        n, form.delta_power, tuple(flip_braid(f) for f in form.factors)
    )


def _spliced(draw, text, places, chars, width):
    """text with width characters at one drawn place replaced by one drawn from chars."""
    at = draw(st.sampled_from(places or range(len(text) + 1)))
    return text[:at] + draw(st.sampled_from(chars)) + text[at + width :]


@st.composite
def word_texts(draw):
    """
    A text of the word grammar, with random whitespace, signs and leading
    zeros, and then at most one near-miss, so that the near-miss alone
    decides whether the text is a word:
    - sign: a ``+``, ``-`` or ``+-`` put before a token, ``+D`` included;
    - D: ``d``, ``DD``, ``D1``, ``+D`` or ``-D-`` put in place of a token;
    - digits: a generator index put at 0, n or n + 7, or with leading zeros;
    - underscore: a ``_`` put inside a run of digits of the body, where
      int() takes it;
    - space: one whitespace character, in the header or between tokens,
      replaced by one of ODD_SPACES;
    - char: a character of NEAR_MISSES inserted or put in place of one.
    """
    n = draw(st.integers(1, 12))
    space = st.text(st.sampled_from(WHITESPACE), max_size=2)
    gap = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=2)
    zeros = st.sampled_from(("", "", "0", "00", "0" * 4301))  # past int()'s 4,300 digits
    header = "".join([
        draw(space), "n", draw(space), "=", draw(space), draw(zeros), str(n), draw(space), ";"
    ])
    token = st.sampled_from(("D", "-D"))
    if n > 1:
        token = st.one_of(token, st.builds(
            "{}{}{}".format, st.sampled_from(("", "-", "+")), zeros, st.integers(1, n - 1)
        ))
    tokens = draw(st.lists(token, max_size=6))
    miss = draw(st.sampled_from(
        ("none", "sign", "D", "digits", "underscore", "space", "space", "char", "char")
    ))
    if tokens and miss in ("sign", "D", "digits"):
        i = draw(st.integers(0, len(tokens) - 1))
        if miss == "sign":
            tokens[i] = draw(st.sampled_from(("+", "-", "+-"))) + tokens[i].lstrip("+")
        elif miss == "D":
            tokens[i] = draw(st.sampled_from(("d", "DD", "D1", "+D", "-D-")))
        else:
            tokens[i] = draw(st.sampled_from(("", "-"))) + draw(zeros) + str(
                draw(st.sampled_from((0, n, n + 7)))
            )
    text = header + "".join(draw(gap) + t for t in tokens) + draw(space)
    if miss == "underscore":
        body = len(header)
        inner = [at for at in range(body + 1, len(text)) if text[at - 1 : at + 1].isdigit()]
        text = _spliced(draw, text, inner, "_", 0)
    elif miss == "space":
        spaces = [at for at, c in enumerate(text) if c in WHITESPACE]
        text = _spliced(draw, text, spaces, ODD_SPACES, 1)
    elif miss == "char":
        text = _spliced(draw, text, [], NEAR_MISSES, draw(st.integers(0, 1)))
    return text


def test_grammar_twin_reads_the_documented_examples():
    assert grammar_twin("n=3; 1 2 1", 1024, 10) == (3, (1, 2, 1))
    assert grammar_twin("  n = 4 ;  -D   2  ", 1024, 10) == (4, (-4, 2))
    assert grammar_twin("n=3; +1 -1 D", 1024, 10) == (3, (1, -1, 3))
    assert grammar_twin("n=009;\t007\x0b-08", 1024, 10) == (9, (7, -8))
    assert grammar_twin("n=5;", 1024, 10) == (5, ())
    assert grammar_twin("n=1; D -D", 1, 10) == (1, (1, -1))
    for bad in ["n=3; +D", "n=3; +-1", "n=3; 3", "n=3; 0", "n=3; -0", "n=12; 1_0",
                "n=3; 1\x1c2", "n=3; 1\u00a02", "n=\u0663; 1", "\x1cn=3; 1", "m=3; 1",
                "n=3 1", "n=0;", "n=3; 1 2 1"]:
        assert grammar_twin(bad, 1024, 2) is None, bad
    assert grammar_twin("n=1024;", 1024, 10) == (1024, ())
    assert grammar_twin("n=1025;", 1024, 10) is None


@GRAMMAR_BUDGET
@given(word_texts())
def test_parse_word_accepts_exactly_the_documented_grammar(text):
    # parse_word refuses a text with ParseError exactly when the twin
    # does, and otherwise reads the same strand count and symbols
    want = grammar_twin(text, MAX_STRANDS, MAX_LETTERS)
    try:
        word = parse_word(text)
    except ParseError:
        assert want is None, text
    else:
        assert (word.n, word.symbols) == want, text
        # parse_word and word_to_simple_letters build their words without
        # the constructors' checks, which admit every word they build
        assert ArtinWord(word.n, word.symbols) == word, text
        if not word.symbols or min(word.symbols) > 0:
            letters = word_to_simple_letters(word)
            assert PositiveWord(letters.n, letters.letters) == letters, text
