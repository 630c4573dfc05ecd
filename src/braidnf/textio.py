"""
Parsing, formatting and diagram rendering.

Word grammar: a header ``n=<int>;`` followed by whitespace-separated
tokens.  Whitespace, in the header and between tokens, is the six ASCII
characters space, tab, newline, carriage return, form feed and vertical
tab; the separators ``\\x1c``-``\\x1f``, which ``str.split`` would also
split at, are refused as bad characters.  A nonzero signed integer k
stands for the |k|-th Artin generator with sign(k) as exponent; ``D``
and ``-D`` stand for the half twist and its inverse.  Words are ASCII:
integers are runs of the digits 0-9, with no underscores, after an
optional ``-`` or ``+`` (``+1`` is ``1``; ``+D`` is not a token), of
any length (_integer).  The strand count is at most MAX_STRANDS, and a
word has at most MAX_LETTERS tokens.  Permutations read and print in
bracketed one-line notation ``[3 5 4 2 6 1]``, and a bad one is printed
as given.  All emitted text is deterministic.

A parsed word (ArtinWord) holds one nonzero int per token, the signed
symbols the normalisation engine reads: k for the generator token k, and
n and -n for ``D`` and ``-D`` on n strands.  Each letter is checked once
on its way in: parse_word checks each distinct token as it converts it,
and word_to_simple_letters builds each letter on the word's n strands, so
both build their word through _Value._trusted, with no second pass of
the constructor's check.  ArtinWord(...) and PositiveWord(...), and so
copies and pickles, still check.

Diagrams are drawn strands-down, one band per factor, each factor opened
up into its canonical reduced word; the front strand of a positive
crossing is the one of positive slope.  ASCII output uses only ``|``,
``\\``, ``/``, spaces and newlines; SVG output is a small SVG 1.1 subset
with cubic strand curves.  A drawing has at most MAX_DRAWING_CELLS cells,
its rows times its strands: one row per crossing and one bar row per
letter.
"""
from __future__ import annotations

import re
from typing import Iterable, Optional

from .normalform import GroupNormalForm, PositiveWord
from .perms import _check_strands, _Value, check_permutation
from .simple import SimpleBraid, generator_braid, omega_braid


class ParseError(ValueError):
    """Malformed word or permutation, or an inverse token in a word lifted letterwise."""


class ArtinWord(_Value):
    """
    A word over Artin generators and half twists on n strands, one nonzero
    int per symbol, kept as a tuple: k with |k| < n is sigma_|k|^sign(k),
    and n and -n are the half twist D and its inverse.
    """

    __slots__ = _fields = ("n", "symbols")

    def __init__(self, n: int, symbols: Iterable[int]):
        super().__init__(n, tuple(symbols))

    def __post_init__(self):
        n, symbols = self.n, self.symbols
        _check_strands(n)
        # one C-level pass each; the type test comes first, so min and max
        # only ever compare ints (bool and str are rejected)
        if symbols and not (
            set(map(type, symbols)) == {int} and -n <= min(symbols) and max(symbols) <= n
            and 0 not in symbols
        ):
            bad = next(s for s in symbols if type(s) is not int or not 0 < abs(s) <= n)
            raise ValueError(f"symbol {bad!r} is not a nonzero int in -{n}..{n}")


# Every factor is an n-entry tuple and each transfer walks all n positions,
# so a 200-letter signed word of random generators takes about 0.2 s at
# 1,024 strands (a whole `normalize` command from a fresh interpreter:
# 0.196-0.22 s on a shared 2-core VM, CPython 3.11.7); far larger n would
# exhaust time or memory (or overflow range() while building the half
# twist) instead of failing cleanly.
MAX_STRANDS = 1024

# A parsed word holds one int per token and costs time linear in its
# length to normalise, so a longer word is a usage error rather than
# unbounded work.  It is caught by one bounded split per word, before any
# token is converted.
MAX_LETTERS = 1_000_000


def _check_count(name: str, value: Optional[int], low: int, high: Optional[int] = None) -> None:
    """
    Raise ValueError unless the count value lies in low..high, or is at
    least low when high is None; a value of None was not given and
    passes.  Every count refusal of the CLI and of the oracle's sweeps is
    raised here: the strand count and length of bench, and the length
    and sample count of the verification sweeps.
    """
    if value is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value is not None and high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


# Exhaustive sweeps run over every pair or triple of S_n up to this n.  It
# sits with the bounds the CLI checks, so that its help text can state it
# without loading the oracle.
EXHAUSTIVE_MAX_STRANDS = 5

# A drawing has one row per crossing, one bar row per letter and one path
# or column per strand on each row, so its size grows with rows x strands,
# its cells; a letter without crossings still draws its bar row.  The half
# twist on 80 strands has 252,880 cells and draws in 0.26 s as 25 MB of
# SVG, or in 0.012 s as 3.0 MB of ASCII (CPython 3.11.7, shared 2-core
# VM); on 1,024 strands it would be some 50 GB of SVG.
MAX_DRAWING_CELLS = 2**18

_HEADER = re.compile(r"^\s*n\s*=\s*([0-9]+)\s*$", re.ASCII)
_REFUSED = "_\x1c\x1d\x1e\x1f"  # the ASCII characters refused in a word body


def parse_word(text: str) -> ArtinWord:
    """
    Parse the word grammar described in the module docstring.  Each
    distinct token is converted and checked once (_symbol), and the word
    is read through that table in one pass.  When a token is bad the
    tokens are scanned again in word order, so the error names the first
    bad token of the word.  The header check has bounded n and every
    symbol is one _symbol returned, so the word is built without
    ArtinWord's check.
    """
    head, sep, rest = text.partition(";")
    if not sep:
        raise ParseError("missing 'n=<int>;' header")
    match = _HEADER.match(head)
    if not match:
        raise ParseError(f"bad header {head!r}; expected 'n=<int>;'")
    n = _integer(match.group(1), "strand count", MAX_STRANDS)
    if not 1 <= n <= MAX_STRANDS:
        raise ParseError(f"strand count {n} out of range 1..{MAX_STRANDS}")
    # int() takes other scripts' digits and "_", and split() splits at the
    # separators too; each refused character is one C-level search
    if not rest.isascii() or any(map(rest.__contains__, _REFUSED)):
        bad = next(c for c in rest if not c.isascii() or c in _REFUSED)
        raise ParseError(f"bad character {bad!r} in word")
    tokens = rest.split(maxsplit=MAX_LETTERS)  # one extra entry when too long
    if len(tokens) > MAX_LETTERS:
        raise ParseError(f"word has more than {MAX_LETTERS} tokens")
    try:
        symbols = {raw: _symbol(raw, n) for raw in set(tokens)}
    except ParseError:
        for raw in tokens:
            _symbol(raw, n)
        raise
    return ArtinWord._trusted(n, tuple(map(symbols.__getitem__, tokens)))


def _integer(raw: str, name: str, high: int) -> Optional[int]:
    """
    int(raw) for an optional sign and a run of the digits 0-9 of any
    length, else None.  int() refuses more than 4,300 digits, so such a
    run is read again without its leading zeros, and one with more
    significant digits than high has is out of range: ParseError names
    those digits, since str() of their int would fail too.
    """
    try:
        return int(raw)
    except ValueError:
        match = re.fullmatch(r"([-+]?)0*([1-9][0-9]*|0)", raw)  # a sign, the significant digits
    if match and len(match[2]) > len(str(high)):
        raise ParseError(f"{name} {match[2]} out of range 1..{high}")
    return match and int(match[1] + match[2])


def _symbol(raw: str, n: int) -> int:
    """The symbol of one token of a word on n strands, or ParseError."""
    if raw in ("D", "-D"):
        return n if raw == "D" else -n
    k = _integer(raw, "generator index", n - 1)
    if k is None:
        raise ParseError(f"bad token {raw!r}")
    if not 0 < abs(k) < n:
        if k == 0:
            raise ParseError("generator index 0 is not allowed")
        raise ParseError(f"generator index {abs(k)} out of range 1..{n - 1}")
    return k


def format_word(word: ArtinWord) -> str:
    n = word.n
    names = {n: "D", -n: "-D"}
    return " ".join([f"n={n};", *(names.get(s) or str(s) for s in word.symbols)])


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse bracketed one-line notation like '[3 5 4 2 6 1]'."""
    match = re.match(r"^\s*\[([-0-9\s]*)\]\s*$", text, re.ASCII)
    if not match:
        raise ParseError(f"expected '[v1 v2 ... vn]', got {text!r}")
    entries = match.group(1).split()
    values = tuple(_integer(v, "permutation entry", len(entries)) for v in entries)
    if None in values:
        raise ParseError(f"bad permutation entries in {text!r}")
    try:
        return check_permutation(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_permutation(p) -> str:
    check_permutation(p)
    return "[" + " ".join(str(v) for v in p) + "]"


def word_to_simple_letters(word: ArtinWord) -> PositiveWord:
    """
    Interpret a positive word letter by letter as simple braids.  Each
    distinct symbol is built once and shared by all its letters.  Every
    letter is built on the word's n strands, so the word is built
    without PositiveWord's strand check.
    """
    n, symbols = word.n, word.symbols
    if symbols and min(symbols) < 0:
        raise ParseError("word contains an inverse token; only positive words lift letterwise")
    braids = {s: omega_braid(n) if s == n else generator_braid(n, s) for s in set(symbols)}
    return PositiveWord._trusted(n, tuple(map(braids.__getitem__, symbols)))


def simple_to_artin(a: SimpleBraid) -> ArtinWord:
    """
    The canonical reduced word of a simple braid: repeatedly extract the
    generator at the smallest descent from the left.  The output length is
    the crossing count, and folding it back through the normaliser gives
    the single factor a.
    """
    return ArtinWord(a.n, tuple(_reduced_word(a.perm)))


def _reduced_word(perm) -> list[int]:
    """
    Peel the leftmost descent off until none is left.  A swap at i leaves
    no descent before i - 1, so the scan resumes there: O(n + crossings).
    """
    current = list(perm)
    out = []
    i = 0
    while i < len(current) - 1:
        if current[i] > current[i + 1]:
            out.append(i + 1)
            # peel s_{i+1} off the left: the remainder sends i+1 where
            # current sends i+2 and vice versa
            current[i], current[i + 1] = current[i + 1], current[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return out


def format_normal_form(form: GroupNormalForm, style: str = "text") -> str:
    """
    Render a group normal form; style 'text' or 'json'.  The text style
    renders each distinct factor's '[...]' once and joins the factors in
    one pass.
    """
    if style == "text":
        perms = [f.perm for f in form.factors]
        text = {p: "[" + " ".join(map(str, p)) + "]" for p in set(perms)}
        return " ".join([f"D^{form.delta_power} :", *map(text.__getitem__, perms)])
    if style == "json":
        import json  # only JSON output pays for this import

        payload = {
            "n": form.n,
            "delta_power": form.delta_power,
            "factors": [list(f.perm) for f in form.factors],
        }
        return json.dumps(payload, separators=(", ", ": "))
    raise ValueError(f"unknown style {style!r}")


# ---------------------------------------------------------------------------
# Diagrams


def render_diagram(word: PositiveWord, format: str = "ascii") -> str:
    """
    Draw a positive word strands-down; format 'ascii' or 'svg'.  A word
    with more than MAX_DRAWING_CELLS rows (its crossings and its letters)
    times strands is a ValueError, raised before any factor is opened
    into its reduced word.
    """
    if format not in ("ascii", "svg"):
        raise ValueError(f"unknown format {format!r}")
    cells = (word.crossing_number() + len(word)) * word.n
    if cells > MAX_DRAWING_CELLS:
        raise ValueError(f"drawing of {cells} cells (rows x strands) over {MAX_DRAWING_CELLS}")
    return _render_ascii(word) if format == "ascii" else _render_svg(word)


# The three rows of a crossing, in the five columns from its left strand
# to its right one.
_ASCII_CROSSING = (" \\ / ", "  /  ", " / \\ ")


def _render_ascii(word: PositiveWord) -> str:
    """
    Strands are four columns apart.  Each factor is a band of crossings
    closed by a bar row; a word with no letters is one empty band.
    """
    n = word.n
    bar = "   ".join("|" * n)
    lines = [bar]
    for band in [_reduced_word(letter.perm) for letter in word.letters] or [[]]:
        for i in band:
            left, right = "|   " * (i - 1), "   |" * (n - 1 - i)
            lines += [(left + glyph + right).rstrip() for glyph in _ASCII_CROSSING]
        lines.append(bar)
    return "\n".join(lines) + "\n"


_SVG_MARGIN = 10
_SVG_COL = 40
_SVG_ROW = 40
_SVG_PATH = '  <path class="{}" d="{}" stroke="{}" stroke-width="{}" fill="none"/>'.format


def _render_svg(word: PositiveWord) -> str:
    """
    One row per crossing of strands i and i+1, at columns a and b: a
    straight path for each other strand, then the back strand from a to b
    and the front strand from b to a over a white casing.  A word with no
    crossings is one bare row, whose columns a and b lie off the drawing.
    """
    letters = [i for letter in word.letters for i in _reduced_word(letter.perm)] or [-1]
    width = 2 * _SVG_MARGIN + _SVG_COL * (word.n - 1)
    height = 2 * _SVG_MARGIN + _SVG_ROW * len(letters)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, y0 in zip(letters, range(_SVG_MARGIN, height, _SVG_ROW)):
        y1, mid = y0 + _SVG_ROW, y0 + _SVG_ROW // 2
        a, b = _SVG_MARGIN + _SVG_COL * (i - 1), _SVG_MARGIN + _SVG_COL * i
        # the row's straight path, its column left open as {0}
        strand = _SVG_PATH("strand", f"M {{0}} {y0} L {{0}} {y1}", "black", 3).format
        lines += [strand(x) for x in range(_SVG_MARGIN, width, _SVG_COL) if x != a and x != b]
        if i > 0:
            under, over = (
                f"M {p} {y0} C {p} {mid}, {q} {mid}, {q} {y1}" for p, q in [(a, b), (b, a)]
            )
            lines += [
                _SVG_PATH("under", under, "black", 3),
                _SVG_PATH("casing", over, "white", 9),
                _SVG_PATH("over", over, "black", 3),
            ]
    return "\n".join(lines) + "\n</svg>\n"
