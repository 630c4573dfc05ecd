"""
Seeded inputs for the benchmark: signed Artin words as token lists, and
pairs of words whose equality is known by construction.

Tokens are the strings of the word grammar: ``"k"`` / ``"-k"`` for the
k-th generator and its inverse, ``"D"`` / ``"-D"`` for the half twist and
its inverse.  Nothing here imports the package under test, so the answers
the benchmark gates on never come from the code being measured.
"""
from __future__ import annotations

import random


def text(n: int, tokens: list[str]) -> str:
    return f"n={n}; " + " ".join(tokens)


def signed_word(
    rng: random.Random, n: int, length: int, inverse_share: float, delta_share: float
) -> list[str]:
    """
    A shuffled word with exactly round(length * delta_share) half-twist
    symbols (each D or -D with equal odds), round(length * inverse_share)
    inverse generators and positive generators for the rest; generator
    indices are uniform over 1..n-1.
    """
    n_delta = round(length * delta_share)
    n_inverse = round(length * inverse_share)
    tokens = [rng.choice(("D", "-D")) for _ in range(n_delta)]
    tokens += [str(-rng.randint(1, n - 1)) for _ in range(n_inverse)]
    tokens += [str(rng.randint(1, n - 1)) for _ in range(length - n_delta - n_inverse)]
    rng.shuffle(tokens)
    return tokens


def positive_word(rng: random.Random, n: int, length: int) -> list[str]:
    return [str(rng.randint(1, n - 1)) for _ in range(length)]


# ---------------------------------------------------------------------------
# Moves that keep the braid group element


def _is_gen(tok: str) -> bool:
    return tok not in ("D", "-D")


def _insert_cancelling_pair(rng, n, tokens):
    k = rng.randint(1, n - 1) * rng.choice((1, -1))
    at = rng.randint(0, len(tokens))
    tokens[at:at] = [str(k), str(-k)]


def _insert_delta_pair(rng, n, tokens):
    at = rng.randint(0, len(tokens))
    tokens[at:at] = rng.choice((["D", "-D"], ["-D", "D"]))


def _first_match(rng, tokens, width, pred):
    """Start of the first window (scanning cyclically from a random start) that pred accepts."""
    count = len(tokens) - width + 1
    if count <= 0:
        return None
    start = rng.randrange(count)
    for step in range(count):
        at = (start + step) % count
        if pred(tokens[at : at + width]):
            return at
    return None


def _braid_relation(rng, n, tokens):
    """Rewrite i i+1 i <-> i+1 i i+1 (same sign), or insert a relator when none occurs."""

    def is_braid_triple(w):
        if not all(_is_gen(t) for t in w):
            return False
        a, b, c = (int(t) for t in w)
        return a == c and (a > 0) == (b > 0) and abs(abs(a) - abs(b)) == 1

    at = _first_match(rng, tokens, 3, is_braid_triple)
    if at is not None:
        a, b, _ = tokens[at : at + 3]
        tokens[at : at + 3] = [b, a, b]
        return
    i = rng.randint(1, n - 2)
    relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]  # (i i+1 i)(i+1 i i+1)^-1
    at = rng.randint(0, len(tokens))
    tokens[at:at] = [str(k) for k in relator]


def _far_commutation(rng, n, tokens):
    """Swap an adjacent pair of generators at distance at least two, if any."""

    def commutes(w):
        return _is_gen(w[0]) and _is_gen(w[1]) and abs(abs(int(w[0])) - abs(int(w[1]))) >= 2

    at = _first_match(rng, tokens, 2, commutes)
    if at is not None:
        tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]


def _delta_conjugation(rng, n, tokens):
    """D^e s_i^f <-> s_(n-i)^f D^e, inserting D -D first when no half twist occurs."""

    def delta_next_to_gen(w):
        return (_is_gen(w[0])) != (_is_gen(w[1]))

    at = _first_match(rng, tokens, 2, delta_next_to_gen)
    if at is None:
        _insert_delta_pair(rng, n, tokens)
        at = _first_match(rng, tokens, 2, delta_next_to_gen)
        if at is None:  # the word was empty: D -D has no generator beside it
            return
    x, y = tokens[at], tokens[at + 1]
    gen, delta = (x, y) if _is_gen(x) else (y, x)
    k = int(gen)
    flipped = str((n - abs(k)) * (1 if k > 0 else -1))
    tokens[at], tokens[at + 1] = (delta, flipped) if _is_gen(x) else (flipped, delta)


MOVES = (
    _insert_cancelling_pair,
    _insert_delta_pair,
    _braid_relation,
    _far_commutation,
    _delta_conjugation,
)


def eq_pair(rng: random.Random, n: int, tokens: list[str], equal: bool, rounds: int = 2):
    """
    A second word for an eq call with a known answer.  Every move of MOVES
    is applied `rounds` times in a seeded order, which keeps the element;
    an unequal partner gets one extra generator on top, which changes the
    exponent sum by one.
    """
    other = list(tokens)
    moves = list(MOVES) * rounds
    rng.shuffle(moves)
    for move in moves:
        move(rng, n, other)
    if not equal:
        k = rng.randint(1, n - 1) * rng.choice((1, -1))
        other.insert(rng.randint(0, len(other)), str(k))
    return other
