"""
Simple (non-repeating) braids and the two crossing-transfer operations.

A positive braid is simple when any two strands cross at most once; such
braids biject with permutations, and the bijection turns braid questions
into inversion-set bookkeeping.  Given two simple braids a and b, the
largest tail of a that can be moved across the boundary into b is the
weak-order meet of star(a) with the complement of b's inversion set.
Peeling that tail off a and gluing it onto b gives two operations

    head_op(a, b)  -- a with the transferable tail removed,
    tail_op(a, b)  -- b with the transferable tail absorbed,

whose composite leaves the underlying braid unchanged.  A pair with no
transferable tail is "normal": right-greedy normal forms are exactly the
factorisations all of whose adjacent pairs are normal.

The transfer is the transition function of Thurston's automaton, whose
states are the simple braids: _step_words is one transition on one-line
words, and the engine (normalform.rank_tables) tabulates it up to six
strands.  The normality test stays as its independent slow twin.  A
transfer is one insertion pass of the weak-order meet that lists a^-1
and b in the meet's order: those lists are head^-1 and the tail, so
neither the meet nor a product of permutations is formed.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .lattice import InversionSet, _meet_reads, leq, star
from .perms import (
    PairSet,
    _same_strands,
    _Value,
    adjacent_transposition,
    check_permutation,
    compose,
    flip,
    full_bits,
    identity,
    inverse,
    inversion_bits,
    is_inversion_set,
    omega,
)


class SimpleBraid(_Value):
    """
    A simple braid, carried as its permutation, its one field, with the
    inversion set cached in a second slot on first use.
    """

    __slots__ = ("perm", "_inv")
    _fields = ("perm",)

    def __init__(self, perm: Sequence[int]):
        super().__init__(tuple(perm))

    def __post_init__(self):
        check_permutation(self.perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def inv(self) -> InversionSet:
        """The inversion set; its size is the number of crossings."""
        try:
            return self._inv
        except AttributeError:  # the slot is set on the first read
            SimpleBraid._inv.__set__(self, InversionSet.from_permutation(self.perm))
            return self._inv

    def crossings(self) -> int:
        return len(self.inv)

    __len__ = crossings

    def __repr__(self) -> str:
        return f"SimpleBraid({list(self.perm)})"


def identity_braid(n: int) -> SimpleBraid:
    return SimpleBraid(identity(n))


def omega_braid(n: int) -> SimpleBraid:
    """The half twist: every pair of strands crosses exactly once."""
    return SimpleBraid(omega(n))


def generator_braid(n: int, i: int) -> SimpleBraid:
    """The Artin generator as a simple braid (one crossing)."""
    return SimpleBraid(adjacent_transposition(n, i))


def flip_braid(a: SimpleBraid) -> SimpleBraid:
    """The image under the flip automorphism."""
    return SimpleBraid(flip(a.perm))


def star_set(a: SimpleBraid) -> InversionSet:
    """star(a), the crossings renumbered from the bottom of the braid."""
    return star(a.inv, a.perm)


def product_in_D(a: SimpleBraid, b: SimpleBraid) -> Optional[SimpleBraid]:
    """
    The product a*b when it is again simple (lengths add), else None.
    The product stays simple exactly when no pair of strands would cross
    twice, i.e. star(a) misses the inversion set of b.
    """
    _same_strands("braids", a.n, b.n)
    if inversion_bits(inverse(a.perm)) & b.inv.bits:
        return None
    return SimpleBraid(compose(a.perm, b.perm))


# ---------------------------------------------------------------------------
# The transfer


def _step_words(a: Sequence[int], b: Sequence[int]) -> Optional[tuple]:
    """
    One rewriting step on one-line words: None when (a, b) is normal, else
    (head, tail), with head = a*m and tail = m^-1*b, where m is the
    weak-order meet of a^-1 with b*omega.  R of a^-1 is star(a) and R of
    b*omega is the complement of R(b), so m encodes the maximal
    transferable tail.  One insertion pass (lattice._meet_reads) lists a^-1
    and b in m's order, which are head^-1 and tail, so m itself is never
    built.  Nothing moves iff (a, b) is normal, and the tail equals b
    exactly when m is the identity, so the head is only built for a pair
    that rewrites.  Head and tail are built in the type of b, tuple or
    bytes, which the inverse keeps.
    """
    head_inv, tail = _meet_reads(inverse(a), b)
    word = b.__class__
    tail = word(tail)
    return None if tail == b else (inverse(word(head_inv)), tail)


def _transfer_words(
    a: Sequence[int], b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The transfer on bare one-line words, (head, tail): the step, or the
    pair itself when it is normal, since then m is the identity.
    """
    return _step_words(a, b) or (tuple(a), tuple(b))


def _is_normal_words(a: Sequence[int], b: Sequence[int]) -> bool:
    """
    Whether nothing can be transferred from a into b.  A single crossing
    s_i is transferable iff i is a descent of a^-1 (s_i is a tail of a)
    and an ascent of b (b still has that crossing to spare), and any
    transferable tail starts with such a crossing.
    """
    ainv = inverse(a)
    return not any(
        ainv[i] > ainv[i + 1] and b[i] < b[i + 1] for i in range(len(a) - 1)
    )


class Transfer(_Value):
    """
    Result of moving the maximal tail of a into b: the moved piece m as a
    one-line word, and the head and tail as simple braids.
    """

    __slots__ = _fields = ("m", "head", "tail")


def transfer(a: SimpleBraid, b: SimpleBraid) -> Transfer:
    """
    Move the maximal movable tail of a across the boundary into b.

    The moved piece is m = permutation_from_inversions(meet(star(a),
    complement(R(b)))); head = a*m and tail = m^-1*b multiply back to a*b,
    with crossings(head) = crossings(a) - crossings(m) and
    crossings(tail) = crossings(b) + crossings(m).
    """
    _same_strands("braids", a.n, b.n)
    head, tail = _transfer_words(a.perm, b.perm)
    return Transfer(compose(inverse(a.perm), head), SimpleBraid(head), SimpleBraid(tail))


def head_op(a: SimpleBraid, b: SimpleBraid) -> SimpleBraid:
    """The left factor after the transfer ("give the needed crossings")."""
    return transfer(a, b).head


def tail_op(a: SimpleBraid, b: SimpleBraid) -> SimpleBraid:
    """The right factor after the transfer ("take the needed crossings")."""
    return transfer(a, b).tail


def is_normal_pair(a: SimpleBraid, b: SimpleBraid) -> bool:
    """
    Whether (a, b) admits no transfer, i.e. meet(star(a), complement(R(b)))
    is empty.  This is the adjacency condition of the right-greedy normal
    form.
    """
    _same_strands("braids", a.n, b.n)
    return _is_normal_words(a.perm, b.perm)


def _is_clean_words(a: Sequence[int], b: Sequence[int]) -> bool:
    """is_clean_transfer on bare one-line words of equal length."""
    n = len(a)
    inter = inversion_bits(inverse(a)) & (full_bits(n) ^ inversion_bits(b))
    return inter != 0 and is_inversion_set(PairSet(n, inter))


def is_clean_transfer(a: SimpleBraid, b: SimpleBraid) -> bool:
    """
    Whether star(a) intersected with the complement of R(b) is a nonempty
    inversion set.  Then the moved tail is exactly that intersection, and
    the strand lemma (oracle.verify_strand_lemma) applies; it fails when
    the intersection is nonempty and not an inversion set.
    """
    _same_strands("braids", a.n, b.n)
    return _is_clean_words(a.perm, b.perm)


def is_head(x: SimpleBraid, a: SimpleBraid) -> bool:
    """Whether a factors as x*y with crossing counts adding."""
    _same_strands("braids", x.n, a.n)
    return leq(x.inv, a.inv)


def is_tail(x: SimpleBraid, a: SimpleBraid) -> bool:
    """Whether a factors as y*x with crossing counts adding."""
    _same_strands("braids", x.n, a.n)
    return leq(star_set(x), star_set(a))

