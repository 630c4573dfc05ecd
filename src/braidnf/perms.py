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
operations and the brute-force sweeps cheap.  The pairs of one ``j`` fill
``j - 1`` consecutive slots, a row; pair sets are read and written row by
row (``_pairs``, ``_join_rows``), so no step per pair touches the whole
array.

The inversion set of a permutation ``p`` is the pair set
``{(i, j) : i < j, p(i) > p(j)}``.  It determines ``p``, and a pair set is
an inversion set of some permutation exactly when it is transitive and has
the betweenness property (``is_inversion_set``).

The package's value types share one base, ``_Value``, here because every
other module imports this one.
"""
from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# Values


class _Value:
    """
    Base of the package's value types.  A subclass names its fields once,
    ``__slots__ = _fields = ("n", "bits")``, or declares ``__slots__ = ()``
    when it adds none, and gets:

    - positional construction, which sets the fields and then calls
      ``self.__post_init__()``, the subclass's validation, looked up on the
      instance so that a wrapper set on the class runs;
    - equality only between values of the same class, field by field, and
      the hash of the tuple of fields, or of the field when there is one;
    - the repr ``Name(field=value, ...)``;
    - AttributeError on any assignment or deletion;
    - copying and pickling through the constructor, so a copy is validated;
    - ``cls._trusted(*values)``, which sets fields already in their stored
      form and valid by construction and skips ``__post_init__``.

    The fields are set through the class's slot descriptors, whose setters
    are looked up once per class; they bypass ``__setattr__``.  Equality
    and the hash read the fields through one C-level getter per class,
    ``_key``: the fields' tuple, or the field itself when there is one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} values, got {len(values)}")
        for k, value in enumerate(values):
            setters[k](self, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A value whose fields are stored and valid by construction: no __post_init__."""
        value = object.__new__(cls)
        for setter, field in zip(cls._setters, values):
            setter(value, field)
        return value

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        values = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))


# ---------------------------------------------------------------------------
# Permutations


def is_permutation(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of {1..n} where n = len(word): its
    entries, read as integers through operator.index, sort to 1..n.  An
    entry that is not an integer, a float or a string, gives False.

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 1, 3), (0, 1), (1.0, 2.0)]]
    [True, True, True, False, False, False]
    """
    try:
        return sorted(map(operator.index, word)) == list(range(1, len(word) + 1))
    except TypeError:
        return False


def _check_strands(n: int) -> None:
    """Raise ValueError unless n, a strand count, is at least 1."""
    if n < 1:
        raise ValueError("need at least one strand")


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    """
    Return word as a tuple, raising ValueError unless it is a permutation
    on at least one strand (is_permutation), non-integer entries included.
    """
    p = tuple(word)
    _check_strands(len(p))
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def identity(n: int) -> tuple[int, ...]:
    """
    The identity permutation on n strands.

    >>> identity(3)
    (1, 2, 3)
    """
    _check_strands(n)
    return tuple(range(1, n + 1))


def omega(n: int) -> tuple[int, ...]:
    """
    The reversing permutation, the top of the weak order.

    >>> omega(6)
    (6, 5, 4, 3, 2, 1)
    """
    _check_strands(n)
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


def _same_strands(kind: str, m: int, n: int) -> None:
    """Raise ValueError unless two operands, kind on m and n strands, have m == n."""
    if m != n:
        raise ValueError(f"{kind} on {m} and {n} strands")


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """
    The product p*q with the left factor applied first: (p*q)(i) = q(p(i)).
    """
    _same_strands("cannot compose permutations", len(p), len(q))
    return tuple(q[v - 1] for v in p)


# The identity on 255 strands, the most a byte can number; its prefixes are
# the smaller identities.  _COMPLEMENTS[n] is the translation table of
# v -> n + 1 - v, built on first use.
_BYTE_IDENTITY = bytes(range(1, 256))
_COMPLEMENTS: dict[int, bytes] = {}


def inverse(p: Sequence[int]) -> tuple[int, ...] | bytes:
    """
    The inverse permutation, as bytes when p is bytes, else as a tuple.
    On bytes it is one C-level call: the translation table that sends
    p[i - 1] to i, read at 1..n.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    >>> list(inverse(bytes((3, 1, 2))))
    [2, 3, 1]
    """
    if p.__class__ is bytes:
        n = len(p)
        return bytes.maketrans(p, _BYTE_IDENTITY[:n])[1 : n + 1]
    inv = [0] * (len(p) + 1)
    for i, v in enumerate(p, 1):
        inv[v] = i
    del inv[0]
    return tuple(inv)


def flip(p: Sequence[int]) -> tuple[int, ...] | bytes:
    """
    Conjugation by the reversing permutation: flip(p) = omega * p * omega.

    This is the involutive automorphism induced by turning a braid diagram
    over, sending the i-th Artin generator to the (n-i)-th one.  On bytes
    it is p reversed and translated by the complement table of its n, and
    returns bytes.
    """
    if p.__class__ is bytes:
        n = len(p)
        complement = _COMPLEMENTS.get(n) or _COMPLEMENTS.setdefault(
            n, bytes.maketrans(_BYTE_IDENTITY[:n], _BYTE_IDENTITY[n - 1 :: -1])
        )
        return p[::-1].translate(complement)
    return tuple(map((len(p) + 1).__sub__, reversed(p)))


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


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_slot(i: int, j: int) -> int:
    """Bit position of the pair (i, j), i < j."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def _pairs(bits: int) -> Iterator[tuple[int, int]]:
    """
    The pairs of a bit array in slot order.  Rows are cut off the low end
    while bits remain: row j holds the pairs (i, j) in j - 1 slots, pair
    (i, j) at bit i - 1, and only that small int is walked pair by pair.
    """
    j = 1
    while bits:
        row, bits = bits & ((1 << j) - 1), bits >> j
        j += 1
        while row:
            low = row & -row
            yield low.bit_length(), j
            row ^= low


def _join_rows(rows: Sequence[int]) -> int:
    """The bit array whose row k is rows[k - 1] (so rows[0] is 0); the inverse of _pairs."""
    bits = base = 0
    for k, row in enumerate(rows):
        bits |= row << base
        base += k
    return bits


def full_bits(n: int) -> int:
    """Bit array with every pair present (the inversion set of omega)."""
    return (1 << pair_count(n)) - 1


class PairSet(_Value):
    """
    A set of pairs (i, j), 1 <= i < j <= n, as a fixed-width bit array.

    No validity condition beyond the index range is imposed; see
    InversionSet for the pair sets that come from permutations.
    """

    __slots__ = _fields = ("n", "bits")

    def __post_init__(self):
        _check_strands(self.n)
        if not 0 <= self.bits <= full_bits(self.n):
            raise ValueError(f"bit array out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> PairSet:
        rows = [0] * n
        for i, j in pairs:
            if not 1 <= i < j <= n:
                raise ValueError(f"pair {(i, j)} out of range for n={n}")
            rows[j - 1] |= 1 << (i - 1)
        return cls(n, _join_rows(rows))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The members sorted by (first coordinate, second coordinate)."""
        return tuple(sorted(self))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return _pairs(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        if not 1 <= i < j <= self.n:
            return False
        return bool(self.bits >> pair_slot(i, j) & 1)

    def __and__(self, other: PairSet) -> PairSet:
        _same_strands("pair sets", self.n, other.n)
        return PairSet(self.n, self.bits & other.bits)


# ---------------------------------------------------------------------------
# Between permutations and pair sets


def inversion_bits(p: Sequence[int]) -> int:
    """
    Bit array of the inversion set of p.  The pairs (i, j) of one j fill
    j - 1 consecutive slots, so each such row is built as a small int and
    ORed in once: OR-ing single bits into the whole array would copy its
    n(n-1)/2 bits per inversion.
    """
    bits = base = 0  # base: the slot of the pair (1, j + 1), p[j] its right end
    for j in range(1, len(p)):
        vj, row = p[j], 0
        for i in range(j):
            if p[i] > vj:
                row |= 1 << i
        if row:
            bits |= row << base
        base += j
    return bits


def inversion_set(p: Sequence[int]) -> PairSet:
    """
    The inversion set {(i, j) : i < j, p(i) > p(j)}.  Its size is the
    Coxeter length of p.
    """
    return PairSet(len(p), inversion_bits(p))


def act_on_pairs(p: Sequence[int], s: PairSet) -> PairSet:
    """
    The image of a pair set under p: p applied to both components of
    every pair, each image pair reordered so the smaller number comes
    first.
    """
    _same_strands("permutation and pair set", len(p), s.n)
    rows = [0] * s.n
    for i, j in _pairs(s.bits):
        a, b = p[i - 1], p[j - 1]
        if a > b:
            a, b = b, a
        rows[b - 1] |= 1 << (a - 1)
    return PairSet(s.n, _join_rows(rows))


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

    Uses the closed formula p(i) = i + #{j > i : (i,j) in s}
    - #{j < i : (j,i) in s}: everything i must pass, less everything that
    passes it, counted in one pass over the pairs.  Raises ValueError when
    s is not an inversion set.
    """
    if not is_inversion_set(s):
        raise ValueError(f"not an inversion set: {s.pairs()}")
    word = list(range(1, s.n + 1))
    for i, j in s:
        word[i - 1] += 1
        word[j - 1] -= 1
    return tuple(word)
