"""Property tests of the group normal form on short signed words."""
import json
import operator
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf.normalform import GroupNormalForm, normalize_group
from braidnf.simple import SimpleBraid, flip_braid
from braidnf.textio import (
    ArtinWord,
    format_normal_form,
    format_word,
    parse_permutation,
    parse_word,
    simple_to_artin,
)
from twins import (
    artin_letters,
    formal_inverse,
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
