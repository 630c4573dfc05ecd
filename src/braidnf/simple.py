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
words, and the engine's alphabet (normalform._alphabet) tabulates it up
to six strands.  The normality test stays as its independent slow twin.
A transfer is one insertion pass of the weak-order meet that lists a^-1
and b in the meet's order: those lists are head^-1 and the tail, so
neither the meet nor a product of permutations is formed.

Most transfers move few crossings, and on bytes letters from 7 to 127
strands those are found by local swaps instead of the O(n) pass: one
C-level mask marks every position whose crossing can move, a zero mask
is a normal pair, and each move swaps one position in a^-1 and in b and
can only free its neighbours.  The heavy shape, a near the top against b
near the identity, bytes letters from 128 strands and tuple letters (the
rank tables' fills and n >= 256) keep the insertion pass, as does a pair
with many first candidates or one that overruns the swap budget.
"""
from __future__ import annotations

from itertools import compress, count
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
    built.  Bytes letters below 128 strands try local swaps first
    (_swap_reads), unless a^-1 starts above where it ends and b below, the
    heavy shape in which much of a moves; they fall back to the pass when
    there are too many candidates or the swaps overrun their budget.
    Nothing moves iff (a, b) is normal, and the tail equals b exactly when
    m is the identity, so the head is only built for a pair that rewrites.
    Head and tail are built in the type of b, tuple or bytes, which the
    inverse keeps.
    """
    u = inverse(a)
    word = b.__class__
    local = word is bytes and len(b) < 128 and not (u[0] > u[-1] and b[0] < b[-1])
    head_inv, tail = local and _swap_reads(u, b) or _meet_reads(u, b)
    tail = word(tail)
    return None if tail == b else (inverse(word(head_inv)), tail)


# The local swaps' bounds: a pair with more than _SWAP_FIRST first
# candidates, or one that takes _SWAP_BUDGET swaps, takes the insertion
# pass.  On the steps of mixed words at 64 strands a pass costs 12-20 us
# and a swap about 1 us (2-core VM, CPython 3.11.7), and the pairs with 9
# to 12 or more first candidates moved a median of 16 to 47 crossings.
# Without the first-candidate cut, perfbench's mixed-n64 read a lower
# work_per_s in 17 of 20 paired runs and a higher op_tail_ms in all 20.
_SWAP_FIRST, _SWAP_BUDGET = 8, 32


# The mask's borrow guard: the top bit of each byte lane, one lane per
# position up to 127 strands
_GUARD = int.from_bytes(b"\x80" * 127, "little")


def _swap_reads(u: bytes, b: bytes) -> Optional[tuple[bytes, bytes]]:
    """
    The transfer's reads of u = a^-1 and b (bytes below 128 strands) by
    local swaps, or None when there are more than _SWAP_FIRST first
    candidates or the swaps reach _SWAP_BUDGET with candidates left.
    Position i holds a transferable crossing when u[i] > u[i + 1] and
    b[i] < b[i + 1] (the descent test of _is_normal_words), and moving it
    swaps i and i + 1 in both words.  The tails that can move form the
    interval [1, m], so single moves in any order end at (head^-1, tail)
    after exactly |m| swaps.  All first candidates are found at C level:
    u and b read as ints of byte lanes, every value below the lane's top
    bit, which is set as a guard, so that one subtraction per word leaves
    lane i's guard set exactly when its test holds at i.  A zero mask is
    a normal pair, returned as it is.  Each swap can only make candidates
    of its two neighbours, so they go on the work stack; the words are
    padded with a zero at each end, where the test never holds.
    """
    n = len(u)
    lu, lb = int.from_bytes(u, "little"), int.from_bytes(b, "little")
    guard = _GUARD & (1 << 8 * n) - 1  # one lane per position
    mask = ((lu | guard) - (lu >> 8)) & (((lb >> 8) | guard) - lb) & guard >> 8
    if not mask or mask.bit_count() > _SWAP_FIRST:  # a normal pair, or too many candidates
        return None if mask else (u, b)
    us, bs = bytearray(b"\0" + u + b"\0"), bytearray(b"\0" + b + b"\0")
    stack = list(compress(count(1), mask.to_bytes(n, "little")))  # lane i is the padded pair at i + 1
    budget = _SWAP_BUDGET
    while stack and budget:
        j = stack.pop()
        if us[j] > us[j + 1] and bs[j] < bs[j + 1]:
            budget -= 1
            us[j], us[j + 1] = us[j + 1], us[j]
            bs[j], bs[j + 1] = bs[j + 1], bs[j]
            stack += (j - 1, j + 1)
    return None if stack else (bytes(us[1:-1]), bytes(bs[1:-1]))


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

