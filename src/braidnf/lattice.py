"""
The weak-order lattice on inversion sets.

Permutations ordered by inclusion of inversion sets form a lattice: the
empty set at the bottom, the full pair set (the reversing permutation) at
the top.  This module provides InversionSet, a PairSet that is the
inversion set of some permutation, together with the lattice structure:
complement, star, meet, join, the partial order, and the
degree-lexicographic total order used to rank simple braids.

A set is built one of two ways.  The constructor, InversionSet(n, bits),
runs PairSet's checks and then the inversion-set test.  A set that is
one by construction (from_permutation's, the results of complement and
star, and oracle.brute_meet's) is built through _Value._trusted and runs
neither.  meet runs the constructor, so a broken fixpoint raises.

The meet also has a fast form on one-line words, an insertion pass that
never builds a pair set.  The transfer runs it directly: it carries
values rather than positions, so it yields a^-1 and b read in the meet's
order, head^-1 and the tail, with no product or inverse of the meet;
meet_permutations is a view of the same pass.
"""
from __future__ import annotations

from typing import Sequence

from .perms import (
    PairSet,
    _check_strands,
    _pairs,
    _same_strands,
    act_on_pairs,
    check_permutation,
    compose,
    full_bits,
    inversion_bits,
    inverse,
    is_inversion_set,
)


class InversionSet(PairSet):
    """
    A pair set that is the inversion set of some permutation: checked so
    when built through the constructor, by construction when built
    through _trusted.
    """

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if not is_inversion_set(self):
            raise ValueError(f"not an inversion set: {self.pairs()}")

    @classmethod
    def from_permutation(cls, p: Sequence[int]) -> InversionSet:
        """
        The inversion set of p, a permutation in one-line notation.  Its
        one check is the strand count: the empty word raises need at least
        one strand.  That p is a permutation is not checked; every caller
        holds a checked one.  The rest needs no check: inversion_bits sets
        no bit at or above pair_count(len(p)), and the inversion set of a
        permutation passes the inversion-set test, so the set is built
        through _trusted.
        """
        _check_strands(len(p))
        return cls._trusted(len(p), inversion_bits(p))


def complement(r: InversionSet) -> InversionSet:
    """
    The full pair set minus r.  This is again an inversion set: it belongs
    to p*omega when r belongs to p, because appending the reversing
    permutation inverts exactly the previously non-inverted pairs.  So it
    is built through _trusted, with no check.
    """
    return InversionSet._trusted(r.n, full_bits(r.n) ^ r.bits)


def star(r: InversionSet, p: Sequence[int]) -> InversionSet:
    """
    The image of r under its own permutation p: the crossings renumbered
    from the bottom of the braid.  Equals the inversion set of the inverse
    permutation.  Requires r == inversion_set(p), which is checked; the
    image is then an inversion set by construction, built through _trusted.
    """
    p = check_permutation(p)
    if inversion_bits(p) != r.bits:
        raise ValueError("pair set is not the inversion set of the given permutation")
    return InversionSet._trusted(r.n, act_on_pairs(p, r).bits)


def _between_mask(i: int, k: int) -> int:
    """Strand-index bits j with i < j < k (bit j set for strand j)."""
    return (1 << k) - (1 << (i + 1))


def _interval_closed_fixpoint(n: int, bits: int) -> int:
    """
    Greedily delete pairs violating betweenness until none are left.

    Subsets satisfying betweenness are closed under union (the condition
    only ever asks that some pair be PRESENT, so enlarging a witness set
    never breaks it), hence a unique maximal betweenness-closed subset of
    the input exists.  A pair violating betweenness in the current set
    cannot lie in any betweenness-closed subset of it, so deletion order
    is irrelevant and the fixpoint is exactly that maximal subset.

    When the input is transitive (any intersection of inversion sets is),
    the fixpoint is transitive too: if (i,j) and (j,k) survive, one shows
    by induction on k - i that adding (i,k) back would keep betweenness,
    so maximality forces (i,k) to be present already.  InversionSet still
    validates the result, so a broken fixpoint raises instead of passing.
    """
    while True:
        partners = [0] * (n + 1)  # partners[i]: bit j set for each pair holding i and j
        for i, j in _pairs(bits):
            partners[i] |= 1 << j
            partners[j] |= 1 << i
        broken = [
            (i, k) for i, k in _pairs(bits) if _between_mask(i, k) & ~(partners[i] | partners[k])
        ]
        if not broken:
            return bits
        bits &= ~PairSet.from_pairs(n, broken).bits


def meet(r1: InversionSet, r2: InversionSet) -> InversionSet:
    """
    The greatest lower bound in the weak order: the unique maximal
    inversion set contained in the intersection of r1 and r2.
    """
    _same_strands("inversion sets", r1.n, r2.n)
    return InversionSet(r1.n, _interval_closed_fixpoint(r1.n, r1.bits & r2.bits))


def join(r1: InversionSet, r2: InversionSet) -> InversionSet:
    """The least upper bound, via De Morgan over the complement."""
    return complement(meet(complement(r1), complement(r2)))


def leq(r1: InversionSet, r2: InversionSet) -> bool:
    """The weak order itself: containment of inversion sets."""
    _same_strands("inversion sets", r1.n, r2.n)
    return r1.bits & ~r2.bits == 0


def deglex_key(r: InversionSet) -> tuple[int, tuple[tuple[int, int], ...]]:
    """
    Sort key for the degree-lexicographic order: cardinality first, then
    the pair listing sorted by (first, second) coordinate, compared
    pairwise the same way.
    """
    return (len(r), r.pairs())


def deglex_compare(r1: InversionSet, r2: InversionSet) -> int:
    """Three-way degree-lexicographic comparison: -1, 0 or 1."""
    _same_strands("inversion sets", r1.n, r2.n)
    k1, k2 = deglex_key(r1), deglex_key(r2)
    return (k1 > k2) - (k1 < k2)


def _meet_reads(u: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """
    The weak-order meet m of u and b*omega, read off as two lists: u read
    in m's order and b read in m's order, that is m^-1*u and m^-1*b.  Run
    on u = a^-1 they are head^-1 and tail of the transfer of (a, b).  This
    is the insertion of meet_permutations carrying values, not positions:
    v = b*omega inverts (p, r) exactly when b[p] < b[r], and a running
    maximum of b stands in for the running minimum of v.

    A crossing boundary is a prefix length r at which u[:r] holds the r
    largest values of u and b[:r] the r least of b.  Every later position
    inverts with all r of them in u and in b*omega, so passes them all:
    they stay at the back of the list, and a walk starts in front of the
    entries placed before the last boundary.  Boundaries are looked for
    only when an entry passes the whole list; a missed one makes a walk
    longer, never different.  A near-top u against a sparse b then takes
    O(n) comparisons instead of O(n^2).  u and b must be on the same
    strands, as every caller checks or builds them: this is not checked.
    """
    n = len(u)
    us: list[int] = []
    bs: list[int] = []
    low_u, high_b = n + 1, 0  # the least u and greatest b placed so far
    base = 0  # entries placed before the last crossing boundary
    for ur, br in zip(u, b):
        if ur < low_u and br > high_b:  # r passes the whole list
            k, low_u, high_b = 0, ur, br
            if ur + br == n + 1 and br == len(us) + 1:
                base = len(us) + 1
        else:
            k = len(us) - base
            while k and ur < us[k - 1] and br > bs[k - 1]:
                k -= 1
            low_u = ur if ur < low_u else low_u
            high_b = br if br > high_b else high_b
        us.insert(k, ur)
        bs.insert(k, br)
    return us, bs


def meet_permutations(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """
    The weak-order meet of two permutations in one-line notation, by
    insertion: positions r = 0, 1, ... enter an order list one at a time,
    and m(p) is the final rank of p.  Restricting to a parabolic subgroup
    is a lattice congruence of the weak order, so the list orders each
    prefix as the meet of the prefixes of u and v.  r passes, and so
    inverts, the longest suffix whose entries p all invert (p, r) in u and
    in v; a lower bound passing an entry p before the entry q that stops r
    would invert (q, r) in both, by transitivity through p.  Running minima
    spot a position that passes the whole list, and crossing boundaries
    cut the walks short, so (omega, omega) and a near-top u against a
    sparse v take O(n) comparisons.  The loop is _meet_reads, which lists
    u in that order, m^-1*u, so m = u * (m^-1*u)^-1.  The tests check this
    function against meet.
    """
    _same_strands("permutations", len(u), len(v))
    n = len(v)
    reads, _ = _meet_reads(u, [n + 1 - x for x in v])
    return compose(u, inverse(reads))
