"""
Parsing, formatting and diagram rendering.

Word grammar: a header ``n=<int>;`` followed by whitespace-separated
tokens.  A nonzero signed integer k stands for the |k|-th Artin generator
with sign(k) as exponent; ``D`` and ``-D`` stand for the half twist and
its inverse.  Words are ASCII: integers are runs of the digits 0-9, with
no underscores, after an optional ``-`` or ``+`` (``+1`` is ``1``; ``+D``
is not a token).  The strand count is at most MAX_STRANDS, and a word
has at most MAX_LETTERS tokens.  Permutations read and print in
bracketed one-line notation ``[3 5 4 2 6 1]``.  All emitted text is
deterministic.

A parsed word (ArtinWord) holds one nonzero int per token, the signed
symbols the normalisation engine reads: k for the generator token k, and
n and -n for ``D`` and ``-D`` on n strands.

Diagrams are drawn strands-down, one band per factor, each factor opened
up into its canonical reduced word; the front strand of a positive
crossing is the one of positive slope.  ASCII output uses only ``|``,
``\\``, ``/``, spaces and newlines; SVG output is a small SVG 1.1 subset
with cubic strand curves.
"""
from __future__ import annotations

import dataclasses
import json
import re

from .normalform import GroupNormalForm, PositiveWord
from .perms import check_permutation, is_permutation
from .simple import SimpleBraid, generator_braid, omega_braid


class ParseError(ValueError):
    """Malformed word, permutation or serialized form."""


@dataclasses.dataclass(frozen=True)
class ArtinWord:
    """
    A word over Artin generators and half twists on n strands, one nonzero
    int per symbol: k with |k| < n is sigma_|k|^sign(k), and n and -n are
    the half twist D and its inverse.
    """

    n: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        n, symbols = self.n, self.symbols
        if n < 1:
            raise ValueError("need at least one strand")
        # one C-level pass each; the type test comes first, so min and max
        # only ever compare ints (bool and str are rejected)
        if symbols and not (
            set(map(type, symbols)) == {int} and -n <= min(symbols) and max(symbols) <= n
            and 0 not in symbols
        ):
            bad = next(s for s in symbols if type(s) is not int or not 0 < abs(s) <= n)
            raise ValueError(f"symbol {bad!r} is not a nonzero int in -{n}..{n}")


def formal_inverse(word: ArtinWord) -> ArtinWord:
    """The reversed word with every exponent negated."""
    return ArtinWord(word.n, tuple(-s for s in reversed(word.symbols)))


def concat(w1: ArtinWord, w2: ArtinWord) -> ArtinWord:
    if w1.n != w2.n:
        raise ParseError(f"words on {w1.n} and {w2.n} strands")
    return ArtinWord(w1.n, w1.symbols + w2.symbols)


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

_HEADER = re.compile(r"^\s*n\s*=\s*([0-9]+)\s*$", re.ASCII)


def parse_word(text: str) -> ArtinWord:
    """Parse the word grammar described in the module docstring."""
    head, sep, rest = text.partition(";")
    if not sep:
        raise ParseError("missing 'n=<int>;' header")
    match = _HEADER.match(head)
    if not match:
        raise ParseError(f"bad header {head.strip()!r}; expected 'n=<int>;'")
    n = int(match.group(1))
    if not 1 <= n <= MAX_STRANDS:
        raise ParseError(f"strand count {n} out of range 1..{MAX_STRANDS}")
    if not rest.isascii() or "_" in rest:  # int() takes other scripts' digits and "_"
        bad = next(c for c in rest if not c.isascii() or c == "_")
        raise ParseError(f"bad character {bad!r} in word")
    tokens = rest.split(maxsplit=MAX_LETTERS)  # one extra entry when too long
    if len(tokens) > MAX_LETTERS:
        raise ParseError(f"word has more than {MAX_LETTERS} tokens")
    half_twists = {"D": n, "-D": -n}
    symbols = []
    for raw in tokens:
        k = half_twists.get(raw)
        if k is None:
            try:
                k = int(raw)
            except ValueError:
                raise ParseError(f"bad token {raw!r}") from None
            if not 0 < abs(k) < n:
                if k == 0:
                    raise ParseError("generator index 0 is not allowed")
                raise ParseError(f"generator index {abs(k)} out of range 1..{n - 1}")
        symbols.append(k)
    return ArtinWord(n, tuple(symbols))


def format_word(word: ArtinWord) -> str:
    n = word.n
    names = {n: "D", -n: "-D"}
    return " ".join([f"n={n};", *(names.get(s) or str(s) for s in word.symbols)])


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse bracketed one-line notation like '[3 5 4 2 6 1]'."""
    match = re.match(r"^\s*\[([-0-9\s]*)\]\s*$", text, re.ASCII)
    if not match:
        raise ParseError(f"expected '[v1 v2 ... vn]', got {text.strip()!r}")
    try:
        values = tuple(int(v) for v in match.group(1).split())
    except ValueError:
        raise ParseError(f"bad permutation entries in {text.strip()!r}") from None
    if not values or not is_permutation(values):
        raise ParseError(f"not a permutation of 1..{len(values)}: {values}")
    return values


def format_permutation(p) -> str:
    check_permutation(p)
    return "[" + " ".join(str(v) for v in p) + "]"


def word_to_simple_letters(word: ArtinWord) -> PositiveWord:
    """
    Interpret a positive word letter by letter as simple braids.  Each
    distinct symbol is built once and shared by all its letters.
    """
    n, symbols = word.n, word.symbols
    if symbols and min(symbols) < 0:
        raise ParseError("word contains an inverse token; only positive words lift letterwise")
    braids = {s: omega_braid(n) if s == n else generator_braid(n, s) for s in set(symbols)}
    return PositiveWord(n, tuple(map(braids.__getitem__, symbols)))


def simple_to_artin(a: SimpleBraid) -> ArtinWord:
    """
    The canonical reduced word of a simple braid: repeatedly extract the
    generator at the smallest descent from the left.  The output length is
    the crossing count, and folding it back through the normaliser gives
    the single factor a.
    """
    return ArtinWord(a.n, tuple(_reduced_word(a.perm)))


def _reduced_word(perm) -> list[int]:
    current = list(perm)
    n = len(current)
    out = []
    while True:
        for i in range(n - 1):
            if current[i] > current[i + 1]:
                out.append(i + 1)
                # peel s_{i+1} off the left: the remainder sends i+1 where
                # current sends i+2 and vice versa
                current[i], current[i + 1] = current[i + 1], current[i]
                break
        else:
            return out


def format_normal_form(form: GroupNormalForm, style: str = "text") -> str:
    """Render a group normal form; style 'text' or 'json'."""
    if style == "text":
        parts = [f"D^{form.delta_power} :"]
        for f in form.factors:
            parts.append("[" + " ".join(str(v) for v in f.perm) + "]")
        return " ".join(parts)
    if style == "json":
        payload = {
            "n": form.n,
            "delta_power": form.delta_power,
            "factors": [list(f.perm) for f in form.factors],
        }
        return json.dumps(payload, separators=(", ", ": "))
    raise ValueError(f"unknown style {style!r}")


def parse_normal_form_json(text: str) -> GroupNormalForm:
    try:
        payload = json.loads(text)
        return GroupNormalForm(
            int(payload["n"]),
            int(payload["delta_power"]),
            tuple(SimpleBraid(tuple(f)) for f in payload["factors"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad serialized normal form: {exc}") from None


# ---------------------------------------------------------------------------
# Diagrams


def render_diagram(word: PositiveWord, format: str = "ascii") -> str:
    """Draw a positive word strands-down; format 'ascii' or 'svg'."""
    if format == "ascii":
        return _render_ascii(word)
    if format == "svg":
        return _render_svg(word)
    raise ValueError(f"unknown format {format!r}")


def _band_letters(word: PositiveWord) -> list[list[int]]:
    """Each factor opened into its canonical reduced word."""
    return [_reduced_word(letter.perm) for letter in word.letters]


def _render_ascii(word: PositiveWord) -> str:
    n = word.n
    width = 4 * (n - 1) + 1

    def bar_row() -> str:
        row = [" "] * width
        for k in range(n):
            row[4 * k] = "|"
        return "".join(row).rstrip()

    def crossing_rows(i: int) -> list[str]:
        rows = []
        x = 4 * (i - 1)
        glyphs = [
            {x + 1: "\\", x + 3: "/"},
            {x + 2: "/"},
            {x + 1: "/", x + 3: "\\"},
        ]
        for glyph in glyphs:
            row = [" "] * width
            for k in range(n):
                col = 4 * k
                if col not in (x, x + 4):
                    row[col] = "|"
            for col, ch in glyph.items():
                row[col] = ch
            rows.append("".join(row).rstrip())
        return rows

    lines = [bar_row()]
    for band in _band_letters(word):
        for i in band:
            lines.extend(crossing_rows(i))
        lines.append(bar_row())
    if len(lines) == 1:  # no bands at all: draw the parallel strands
        lines.append(bar_row())
    return "\n".join(lines) + "\n"


_SVG_MARGIN = 10
_SVG_COL = 40
_SVG_ROW = 40


def _render_svg(word: PositiveWord) -> str:
    n = word.n
    bands = _band_letters(word)
    rows = max(1, sum(len(b) for b in bands))
    width = 2 * _SVG_MARGIN + _SVG_COL * (n - 1)
    height = 2 * _SVG_MARGIN + _SVG_ROW * rows
    x = lambda pos: _SVG_MARGIN + _SVG_COL * (pos - 1)  # noqa: E731

    paths = []

    def vertical(pos: int, y0: int, y1: int) -> None:
        paths.append(
            f'<path class="strand" d="M {x(pos)} {y0} L {x(pos)} {y1}" '
            f'stroke="black" stroke-width="3" fill="none"/>'
        )

    def curve(p0: int, p1: int, y0: int, y1: int) -> str:
        return (
            f"M {x(p0)} {y0} C {x(p0)} {y0 + _SVG_ROW // 2}, "
            f"{x(p1)} {y1 - _SVG_ROW // 2}, {x(p1)} {y1}"
        )

    y = _SVG_MARGIN
    letters = [i for band in bands for i in band]
    if not letters:
        for pos in range(1, n + 1):
            vertical(pos, y, y + _SVG_ROW)
    for i in letters:
        for pos in range(1, n + 1):
            if pos not in (i, i + 1):
                vertical(pos, y, y + _SVG_ROW)
        # back strand first, then the front strand over a white casing
        under = curve(i, i + 1, y, y + _SVG_ROW)
        over = curve(i + 1, i, y, y + _SVG_ROW)
        paths.append(
            f'<path class="under" d="{under}" stroke="black" stroke-width="3" fill="none"/>'
        )
        paths.append(
            f'<path class="casing" d="{over}" stroke="white" stroke-width="9" fill="none"/>'
        )
        paths.append(
            f'<path class="over" d="{over}" stroke="black" stroke-width="3" fill="none"/>'
        )
        y += _SVG_ROW
    body = "\n".join(f"  {p}" for p in paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )
