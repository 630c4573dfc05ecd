"""
Permutations of {1..n} in one-line notation, and sets of strand pairs.

A permutation is a tuple of 1-based images: ``perm[i-1]`` is the image of
``i``.  Products are written left to right, so ``(p * q)(i) = q(p(i))`` and
the left factor acts first.  Under this convention the positive lift of a
product of permutation braids stacks top to bottom, which is what every
other module in this package relies on.

A pair set holds pairs ``(i, j)`` with ``1 <= i < j <= n`` in a fixed bit
array: pair ``(i, j)`` lives in slot ``(j-1)(j-2)/2 + (i-1)``.  Set algebra
on pair sets is then plain integer bit arithmetic, which keeps the lattice
operations and the brute-force sweeps cheap.

The inversion set of a permutation ``p`` is the pair set
``{(i, j) : i < j, p(i) > p(j)}``.  It determines ``p``, and a pair set is
an inversion set of some permutation exactly when it is transitive and has
the betweenness property (``is_inversion_set``).
"""
from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# Permutations


def is_permutation(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of {1..n} where n = len(word).

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 1, 3), (0, 1)]]
    [True, True, True, False, False]
    """
    n = len(word)
    if n == 0:
        return True
    if min(word) != 1 or max(word) != n:
        return False
    mask = 0
    for x in word:
        mask |= 1 << x
    return mask == (1 << (n + 1)) - 2


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    """Return word as a tuple, raising ValueError if it is not a permutation."""
    p = tuple(word)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def identity(n: int) -> tuple[int, ...]:
    """
    The identity permutation on n strands.

    >>> identity(3)
    (1, 2, 3)
    """
    if n < 1:
        raise ValueError("need at least one strand")
    return tuple(range(1, n + 1))


def omega(n: int) -> tuple[int, ...]:
    """
    The reversing permutation, the top of the weak order.

    >>> omega(6)
    (6, 5, 4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError("need at least one strand")
    return tuple(range(n, 0, -1))


def adjacent_transposition(n: int, i: int) -> tuple[int, ...]:
    """
    The transposition swapping i and i+1, the image of the Artin generator.

    >>> adjacent_transposition(3, 1)
    (2, 1, 3)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return tuple(word)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """
    The product p*q with the left factor applied first: (p*q)(i) = q(p(i)).
    """
    if len(p) != len(q):
        raise ValueError(f"cannot compose permutations on {len(p)} and {len(q)} strands")
    return tuple(q[v - 1] for v in p)


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    """
    The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * (len(p) + 1)
    for i, v in enumerate(p, 1):
        inv[v] = i
    del inv[0]
    return tuple(inv)


def flip(p: Sequence[int]) -> tuple[int, ...]:
    """
    Conjugation by the reversing permutation: flip(p) = omega * p * omega.

    This is the involutive automorphism induced by turning a braid diagram
    over, sending the i-th Artin generator to the (n-i)-th one.
    """
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def length(p: Sequence[int]) -> int:
    """
    The Coxeter length, i.e. the number of inversions: each entry counts
    the larger entries before it by bisection in the sorted prefix.
    """
    prefix: list[int] = []
    count = 0
    for v in p:
        k = bisect.bisect(prefix, v)
        count += len(prefix) - k
        prefix.insert(k, v)
    return count


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n in Python's itertools order (lexicographic)."""
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# Pair sets

# Pairs (i, j), i < j, are numbered by ascending j then ascending i:
# (1,2), (1,3), (2,3), (1,4), ...; the slot of (i, j) is (j-1)(j-2)/2 + (i-1).
# This order is internal; user-facing listings sort by (i, j) instead.

_PAIR_OF_SLOT: list[tuple[int, int]] = []


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_slot(i: int, j: int) -> int:
    """Bit position of the pair (i, j), i < j."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def _pair_of_slot(k: int) -> tuple[int, int]:
    while len(_PAIR_OF_SLOT) <= k:
        j = 2 if not _PAIR_OF_SLOT else _PAIR_OF_SLOT[-1][1] + 1
        _PAIR_OF_SLOT.extend((i, j) for i in range(1, j))
    return _PAIR_OF_SLOT[k]


def full_bits(n: int) -> int:
    """Bit array with every pair present (the inversion set of omega)."""
    return (1 << pair_count(n)) - 1


@dataclasses.dataclass(frozen=True)
class PairSet:
    """
    A set of pairs (i, j), 1 <= i < j <= n, as a fixed-width bit array.

    No validity condition beyond the index range is imposed; see
    InversionSet for the pair sets that come from permutations.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one strand")
        if not 0 <= self.bits <= full_bits(self.n):
            raise ValueError(f"bit array out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> PairSet:
        bits = 0
        for i, j in pairs:
            if not 1 <= i < j <= n:
                raise ValueError(f"pair {(i, j)} out of range for n={n}")
            bits |= 1 << pair_slot(i, j)
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> PairSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> PairSet:
        return cls(n, full_bits(n))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The members sorted by (first coordinate, second coordinate)."""
        return tuple(sorted(self))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield _pair_of_slot(low.bit_length() - 1)
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        if not 1 <= i < j <= self.n:
            return False
        return bool(self.bits >> pair_slot(i, j) & 1)

    def _check_same_n(self, other: PairSet) -> None:
        if self.n != other.n:
            raise ValueError(f"pair sets on {self.n} and {other.n} strands")

    def __and__(self, other: PairSet) -> PairSet:
        self._check_same_n(other)
        return PairSet(self.n, self.bits & other.bits)

    def __or__(self, other: PairSet) -> PairSet:
        self._check_same_n(other)
        return PairSet(self.n, self.bits | other.bits)

    def __xor__(self, other: PairSet) -> PairSet:
        self._check_same_n(other)
        return PairSet(self.n, self.bits ^ other.bits)

    def __sub__(self, other: PairSet) -> PairSet:
        self._check_same_n(other)
        return PairSet(self.n, self.bits & ~other.bits)

    def issubset(self, other: PairSet) -> bool:
        self._check_same_n(other)
        return self.bits & ~other.bits == 0


# ---------------------------------------------------------------------------
# Between permutations and pair sets


def inversion_bits(p: Sequence[int]) -> int:
    """Bit array of the inversion set of p."""
    bits = 0
    for j in range(1, len(p)):
        vj = p[j]
        base = j * (j - 1) // 2
        for i in range(j):
            if p[i] > vj:
                bits |= 1 << (base + i)
    return bits


def inversion_set(p: Sequence[int]) -> PairSet:
    """
    The inversion set {(i, j) : i < j, p(i) > p(j)}.  Its size is the
    Coxeter length of p.
    """
    return PairSet(len(p), inversion_bits(p))


def act_on_bits(p: Sequence[int], bits: int) -> int:
    """
    Apply p to both components of every pair in a bit array, reordering
    each image pair so the smaller number comes first.
    """
    out = 0
    while bits:
        low = bits & -bits
        i, j = _pair_of_slot(low.bit_length() - 1)
        a, b = p[i - 1], p[j - 1]
        if a > b:
            a, b = b, a
        out |= 1 << pair_slot(a, b)
        bits ^= low
    return out


def act_on_pairs(p: Sequence[int], s: PairSet) -> PairSet:
    """The image of a pair set under p, pair by pair as in act_on_bits."""
    if len(p) != s.n:
        raise ValueError(f"permutation on {len(p)} strands, pair set on {s.n}")
    return PairSet(s.n, act_on_bits(p, s.bits))


def is_inversion_set(s: PairSet) -> bool:
    """
    Whether s is the inversion set of some permutation.  Two conditions
    characterise that: transitivity ((i,j) and (j,k) force (i,k)), and
    betweenness ((i,k) forces (i,j) or (j,k) for every j between i and k),
    which is transitivity of the complement.  With row k the strands
    i < k paired with k in s, and j < k: when (j, k) is in s, row j lies
    inside row k; when it is not, the strands i < j missing from row j
    are missing from row k.
    """
    bits = s.bits
    rows: list[int] = []  # rows[k-1]: bit i-1 set for each (i, k) in s
    for k in range(1, s.n + 1):
        row = bits >> ((k - 1) * (k - 2) // 2) & ((1 << (k - 1)) - 1)
        for j, below in enumerate(rows, 1):
            if row >> (j - 1) & 1:
                if below & ~row:
                    return False
            elif ~below & ((1 << (j - 1)) - 1) & row:
                return False
        rows.append(row)
    return True


def permutation_from_inversions(s: PairSet) -> tuple[int, ...]:
    """
    The unique permutation whose inversion set is s.

    Uses the closed formula p(i) = 1 + #{j > i : (i,j) in s}
    + #{j < i : (j,i) not in s}: everything i must pass plus everything
    that already sits below it.  Raises ValueError when s is not an
    inversion set.
    """
    if not is_inversion_set(s):
        raise ValueError(f"not an inversion set: {s.pairs()}")
    n = s.n
    bits = s.bits
    word = []
    for i in range(1, n + 1):
        above = sum(bits >> pair_slot(i, j) & 1 for j in range(i + 1, n + 1))
        below = sum(1 - (bits >> pair_slot(j, i) & 1) for j in range(1, i))
        word.append(1 + above + below)
    return tuple(word)
