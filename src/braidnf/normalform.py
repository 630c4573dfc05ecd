"""
Greedy normal forms for positive words and for group elements.

A positive word is a sequence of simple braids.  Its right-greedy normal
form is the unique factorisation into non-identity simple braids in which
no adjacent pair admits a transfer; half-twist factors, when present,
form a block at its right end.

Both normal forms come from one engine that appends letters at the right.
It holds the running element as core * Omega^delta, core a normal form
free of half twists and delta one signed count: an appended letter
bubbles leftwards through the core with one transfer per non-normal pair,
a half twist, appended or formed at the right end of the core, adds one
to delta, and an inverse half twist takes one away.  Since Omega * x =
flip(x) * Omega, a letter x appended to core * Omega^delta enters the
core as flip^delta(x), and the group form is Omega^delta *
flip^delta(core), so the core itself is flipped at most once, at the
end.  Each rewrite is one step of Thurston's automaton over pairs of
simple braids.

The engine is one loop (_normalize_letters) over an alphabet chosen once
per call, which it reads as tables: step[a][b] and extend[s][p] by
subscription, the other rules by C-level calls.  The rules are stated
once, on one-line words (_word_alphabet): a letter is its one-line word
and a step is one transfer (simple._step_words), computed on each read.
Its letters, run extensions and support rule are built once per strand
count (_word_parts); its flip and step are read from this module on each
call.  Up to six strands (TABLE_MAX_STRANDS) rank_tables tabulates that
alphabet over S_n, so a letter is the rank of its simple braid and the
whole run is integer table reads: each step is a read of its left
factor's row, filled on first read, each flip and run extension a list
read, and each output factor a shared SimpleBraid.  From seven to 255
strands the word alphabet's letters are bytes, one byte per strand, so
that a letter's inverse, flip and run swap are each one C-level table
call and its hash is computed once; a byte numbers at most 255 strands,
so above that letters stay tuples.

A step is memoised by one class, _Memo: a dict whose missing entry is
computed on its first read and kept while a room shared with the other
rows lasts.  The rank tables' rows are memos with room for every pair.
equal cancels the two words' common prefix and suffix, so only their
middles R1 and R2 reach the engine.  Up to the table bound, where every
step is a table read, it runs the engine once, on R1 followed by R2^-1,
and answers whether that form is trivial: a second form would cost its
building, flip and validation and share nothing.  Above the bound each
middle is normalised through one alphabet whose step is a memo of memos
that lives for the one call and stores at most a fixed budget of
entries, so the second middle reads the steps it shares with the first
instead of taking their transfers again.

Generators do not enter the engine's core one at a time.  They are
folded first into a pending run, a fraction B * C^-1 of simple braids,
so a run costs at most two transfer chains, not one per generator.  A
positive generator commuting with all of C (C may be empty) grows B;
any other cancels a crossing of C.  An inverse generator cancels a
crossing of B while C is empty and grows C otherwise.  On a
mixed word at many strands most opposite-sign neighbours commute or
cancel, so a run spans many sign changes, as in the treatment of
inverse letters by the Delta-form algorithm of Epstein et al., Word
Processing in Groups (1992), ch. 9.  A closed run enters the core as B,
then C^-1 as Omega^-1 * (Omega * C^-1), an inverse half twist followed
by the simple complement of C.  B and Omega * C^-1 are carried as the
letters they enter as, and each generator grows one of them by one
rule, so a run closes with no further work.  A run is folded in the
word's own frame: flip is an automorphism, so flipping the folded
letters on arrival is the same as flipping each of their generators.

A generator that the run cannot take often needs only one side to
leave, and the other stays pending; each entered letter costs a chain
of transfers, so this saves about a fifth of the steps on mixed words
at 64 strands.  If the generator commutes with C, B * C^-1 * s =
B * (s * C^-1): B leaves alone.  If B commutes with C, B * C^-1 * s =
C^-1 * (B * s): C^-1 leaves alone, and s grows B or, inverse, starts C
anew.  Commuting is read off supports, the generators a letter's
reduced words use, and tested only when a run closes.

The same rewriting step (replace an adjacent pair by its head and tail)
applied at arbitrary non-normal positions is confluent and terminating,
so `gs_rewrite_to_fixpoint` reaches the identical form under a leftmost
or rightmost strategy; it is the slow twin the tests and the oracle
module check the engine against.
"""
from __future__ import annotations

import functools
from itertools import accumulate, chain, compress, count, islice
from operator import getitem, ne, neg
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .perms import (
    _check_strands, _same_strands, _Value, all_permutations, flip, identity, length, omega
)
from .simple import (
    SimpleBraid,
    _is_normal_words,
    _step_words,
    _transfer_words,
)


class PositiveWord(_Value):
    """
    A word over simple braids on n strands, its letters kept as a tuple;
    letters may include the identity.
    """

    __slots__ = _fields = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[SimpleBraid]):
        super().__init__(n, tuple(letters))

    def __post_init__(self):
        _perms_on(self.n, self.letters, "letter", "word")

    def crossing_number(self) -> int:
        """
        The total number of crossings.  Each letter object's count is taken
        once, as the Coxeter length of its permutation: at 1,024 strands,
        hashing a letter costs a pass over it, and building its inversion
        set takes seconds.
        """
        letters = {id(letter): letter for letter in self.letters}
        crossings = {key: length(letter.perm) for key, letter in letters.items()}
        return sum(crossings[id(letter)] for letter in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


def _perms_on(n: int, braids: Sequence[SimpleBraid], part: str, whole: str) -> list:
    """
    The braids' one-line words, or ValueError naming the first braid not
    on n strands as a part of the whole.  The lengths of all the words are
    tested in one C-level pass, and the first offender is looked for only
    when that pass fails.
    """
    _check_strands(n)
    perms = [b.perm for b in braids]
    if not {n}.issuperset(map(len, perms)):
        bad = next(b for b in braids if b.n != n)
        raise ValueError(f"{part} on {bad.n} strands in a {whole} on {n}")
    return perms


def is_normal(factors: Sequence[SimpleBraid]) -> bool:
    """
    Whether a factor sequence is a right-greedy normal form: no identity
    factors, and every adjacent pair admits no transfer (a step that
    rewrites nothing).  Raises ValueError unless all factors are on as
    many strands as the first.
    """
    if not factors:
        return True
    n = factors[0].n
    return _is_normal_perms(n, _perms_on(n, factors, "factor", "sequence"))


def _is_normal_perms(n: int, perms: list) -> bool:
    """
    is_normal on the factors' one-line words, all on n strands.  Up to
    TABLE_MAX_STRANDS the pairs are stepped in order, step[a][b] read
    through C-level maps, until one rewrites: a step is None or a
    non-empty tuple, so any() finds it.  Above it each pair takes the
    descent test (simple._is_normal_words) on the word alphabet's
    letters, so a form is not checked by the transfer that made it.
    """
    alphabet = _alphabet(n)
    word = list(map(alphabet.letter, perms))
    if n > TABLE_MAX_STRANDS:
        return alphabet.ident not in word and all(map(_is_normal_words, word, word[1:]))
    rows = map(alphabet.step.__getitem__, word)
    return alphabet.ident not in word and not any(map(getitem, rows, word[1:]))


def _check_form(n: int, factors: Sequence[SimpleBraid]) -> list:
    """
    Raise ValueError unless the factors are on n strands and form a normal
    form; returns their one-line words, read once for both checks.
    """
    perms = _perms_on(n, factors, "factor", "form")
    if perms and not _is_normal_perms(n, perms):
        raise ValueError("factor sequence is not a greedy normal form")
    return perms


class PositiveNormalForm(PositiveWord):
    """
    A validated right-greedy normal form of a positive braid: a positive
    word whose letters, read as factors, pass the normal-form check
    (_check_form) instead of the word's.
    """

    __slots__ = ()

    def __post_init__(self):
        _check_form(self.n, self.letters)

    @property
    def factors(self) -> tuple[SimpleBraid, ...]:
        return self.letters


class GroupNormalForm(_Value):
    """
    Canonical form of a braid group element: delta_power copies of the
    half twist followed by a positive normal form containing none, its
    factors kept as a tuple.
    """

    __slots__ = _fields = ("n", "delta_power", "factors")

    def __init__(self, n: int, delta_power: int, factors: Iterable[SimpleBraid]):
        super().__init__(n, delta_power, tuple(factors))

    def __post_init__(self):
        perms = _check_form(self.n, self.factors)
        if omega(self.n) in perms:
            raise ValueError("half-twist factors belong in delta_power")


# ---------------------------------------------------------------------------
# The engine


class _Alphabet(NamedTuple):
    """The engine's letters on n strands and what it does with them."""

    ident: object
    top: object  # the half twist
    letter: Callable  # one-line word -> letter
    braid: Callable  # letter -> SimpleBraid
    flip: Callable
    step: object  # step[a][b]: None when (a, b) is normal, else (head, tail)
    extend: object  # extend[s][run]: the run grown by generator s, or -1 when not simple
    support: object  # support[x]: an int, bit k set when letter x does not fix {1..k}


class _Rule(functools.partial):
    """
    A partial application read by subscription: rule[x] is rule(x), a
    C-level call.  The word alphabet reads its rules like the rank tables
    but computes them on each read and stores nothing: its step is a rule
    of rules, step[a][b], and its extend a tuple of rules, one per signed
    generator, extend[s][p].
    """

    __getitem__ = functools.partial.__call__


# A byte numbers at most 255 strands.
_BYTE_MAX_STRANDS = 255


def _extend_run(s: int, swap: Optional[bytes], p: Sequence[int]) -> object:
    """
    p * s_|s| for a run p of the word alphabet, the values |s| and |s| + 1
    swapped, when that adds a crossing (s > 0) or removes one (s < 0);
    else -1, the run would not stay simple.  A bytes p is swapped by one
    translate through swap, the table exchanging |s| and |s| + 1, and a
    tuple p is rebuilt.
    """
    j = abs(s)
    a, b = p.index(j), p.index(j + 1)
    if (a < b) is not (s > 0):
        return -1
    if p.__class__ is bytes:
        return p.translate(swap)
    grown = list(p)
    grown[a], grown[b] = j + 1, j
    return tuple(grown)


@functools.lru_cache(maxsize=8)
def _word_parts(n: int) -> tuple:
    """
    The parts of the word alphabet on n strands that only n fixes, as
    (ident, top, letter, extend, support): the identity and half-twist
    letters, the letter type, the run extensions and the support rule.
    Entry s of extend is the rule of the signed generator s
    (_extend_run), listed as None, +1 .. +(n - 1), -(n - 1) .. -1, so
    extend[-j] is the rule of generator j's inverse.  Up to 255 strands,
    where a letter may be bytes, +j and -j share one swap table of 256
    bytes, also at n <= TABLE_MAX_STRANDS, since a rule takes a letter of
    either type.  The parts take about 60 us to build at n = 64, most of
    it the 2(n - 1) rules and their tables, so those of the last few
    strand counts are kept; they store nothing.
    """
    word = bytes if TABLE_MAX_STRANDS < n <= _BYTE_MAX_STRANDS else tuple
    swaps = [None] * n
    if n <= _BYTE_MAX_STRANDS:
        swaps[1:] = (bytes.maketrans(bytes((j, j + 1)), bytes((j + 1, j))) for j in range(1, n))
    rules = (_Rule(_extend_run, s, swaps[abs(s)]) for s in chain(range(1, n), range(1 - n, 0)))
    return word(identity(n)), word(omega(n)), word, (None, *rules), _Rule(_support)


def _support(p: Sequence[int]) -> int:
    """
    The generators of p as an int, bit k set when p does not fix {1..k},
    that is when p[:k] holds a value above k: exactly then s_k is a
    letter of every reduced word of p.  One C-level pass of running maxima.
    """
    return sum(map((1).__lshift__, compress(count(1), map(ne, accumulate(p, max), count(1)))))


def _word_alphabet(n: int) -> _Alphabet:
    """
    The engine's alphabet on one-line words, where every rule is stated
    once: a step is one transfer (simple._step_words), a run of
    generators grows by one swap (_extend_run), and a support is one
    pass (_support).  Above the table bound and up to 255 strands a
    letter is its one-line word as bytes, one byte per strand: its
    inverse, flip and swap are then one C-level table call each, and its
    hash is computed once, where a tuple's is a
    pass per dict read.  Above 255 strands letters are tuples, as are
    those the rank tables read, so each rule takes either type and
    returns the type it is given.

    The parts that only n fixes are built once per strand count
    (_word_parts); the flip and the step are read from this module on
    each call, so a wrapper set on normalform.flip or
    normalform._step_words runs in the next alphabet built.
    """
    ident, top, word, extend, support = _word_parts(n)
    return _Alphabet(ident, top, word, SimpleBraid, flip, _Rule(_Rule, _step_words), extend, support)


# Thurston's transitions number (n!)^2: 14,400 at n = 5, 518,400 at n = 6 and
# 25.4M at n = 7, so rank tables stop at six strands.  rank_tables(6) builds
# in 12-13 ms with a tracemalloc peak of 0.3 MB before any step row fills
# (2-core VM, CPython 3.11.7); rows fill lazily, and a full fill, the
# ceiling, takes about 2 s and 61 MB of RSS.
TABLE_MAX_STRANDS = 6


class _Memo(dict):
    """
    A memo read by subscription: a missing key k is fill(k), stored only
    while room[0] is non-zero, each store taking one unit of it, and a
    dict read ever after.  room is a one-item list that a memo shares
    with the memos in its values, its rows; nothing points back from a
    row, so a memo and its rows form no reference cycle.
    """

    __slots__ = ("fill", "room")

    def __init__(self, fill: Callable, room: list):
        self.fill, self.room = fill, room

    def __missing__(self, key):
        value = self.fill(key)
        if self.room[0]:
            self.room[0] -= 1
            self[key] = value
        return value


def _rank_step(left: tuple, perms: list, rank: dict, b: int) -> Optional[tuple[int, int]]:
    """
    The rank tables' step entry of rank b in the row of the one-line word
    left: None when the pair is normal, else the ranks (head, tail), by
    one transfer (_step_words).
    """
    rewrite = _step_words(left, perms[b])
    return rewrite and (rank[rewrite[0]], rank[rewrite[1]])


_TABLES: dict[int, _Alphabet] = {}


def rank_tables(n: int) -> _Alphabet:
    """
    Thurston's automaton on n <= TABLE_MAX_STRANDS strands, on integer
    states: the word alphabet (_word_alphabet) tabulated over S_n, built
    when n is first seen.  A simple braid's rank is its index in S_n
    listed in itertools (lexicographic) order, so the identity is 0 and
    the half twist n! - 1.  Every rule of the word alphabet is read
    through ranks, as list reads: the flip, the run extensions
    extend[s][a] (-1 where a run stops being simple), the supports and
    one SimpleBraid per rank, checked once and shared.  The step has one
    row per left rank, read as step[a][b]: a memo (_Memo) of one transfer
    per entry (_rank_step), filled on the entry's first read.  The rows
    share room for every pair, so they never forget; only they grow with
    use, and the rest is O(n!).
    """
    if n in _TABLES:
        return _TABLES[n]
    if not 1 <= n <= TABLE_MAX_STRANDS:
        raise ValueError(f"rank tables need 1 <= n <= {TABLE_MAX_STRANDS}, got {n}")
    perms = list(all_permutations(n))
    rank = {p: r for r, p in enumerate(perms)}
    words = _word_alphabet(n)
    room = [len(perms) ** 2]  # every pair: the rows never forget
    tables = _TABLES[n] = _Alphabet(
        rank[words.ident], rank[words.top], rank.__getitem__,
        list(map(words.braid, perms)).__getitem__, [rank[words.flip(p)] for p in perms].__getitem__,
        [_Memo(functools.partial(_rank_step, p, perms, rank), room) for p in perms],
        [None, *([rank.get(rule[p], -1) for p in perms] for rule in words.extend[1:])],
        list(map(_support, perms)),
    )
    return tables


def _alphabet(n: int) -> _Alphabet:
    """
    The alphabet of one engine call or normality test, chosen once per
    call: the rank tables up to TABLE_MAX_STRANDS, where every operation
    is a table read, and the word alphabet above, where a step is one
    transfer.
    """
    return rank_tables(n) if n <= TABLE_MAX_STRANDS else _word_alphabet(n)


_END = object()  # closes the symbol stream of an engine call


def _normalize_letters(alphabet: _Alphabet, symbols: Iterable) -> tuple[int, list]:
    """
    Run the engine over a stream of symbols: signed generator indices (i
    for sigma_i, -i for its inverse, as ArtinWord holds them), one-line
    words, and None for the inverse half twist.  Returns (delta, core)
    with the product equal to core * Omega^delta, core a normal form free
    of half twists.  It is one loop: the alphabet's rules are read by
    subscription or C-level calls, with no Python call per symbol, letter
    or step.

    Generators are folded into a run, the fraction B * C^-1, carried as
    the two letters it enters the core as: pos = B, which enters as
    itself, and neg = Omega * C^-1, which enters as None followed by that
    letter; an empty run is the identity and Omega.  A generator, read
    with its sign s, multiplies one of them on the right by s_|s|, and
    that letter stays simple exactly when this adds a crossing (s > 0) or
    removes one (s < 0): one read, extend[s][letter], which is -1
    otherwise.  On pos, s > 0 grows B and s < 0 cancels a crossing of B;
    on neg, s < 0 grows C (C^-1 * s_k^-1 = (s_k * C)^-1) and s > 0
    cancels a crossing of C.  An int mask, blocked, holds bits k - 1, k
    and k + 1 for each generator k that C has taken in, and is zero
    exactly when C is empty.  So s = k > 0 whose bit k is clear, C empty
    or not, commutes with all of C and can only grow B; otherwise it can
    only cancel a crossing of C.  s = -k < 0 cancels into B while C is
    empty, and grows C otherwise.  Any other symbol and the end of the
    stream close the whole run: it enters the core as pos, then, unless
    C is empty, None and neg, and the next run is empty.

    A generator s that no rule takes sends only one side into the core
    when the other can stay, and the run goes on with s:
      (A) s > 0 with bit s clear commutes with C, and B * s is not
          simple: B enters alone, and the run becomes s * C^-1 (C
          empty or not);
      (B) s > 0 with bit s set cannot cancel into C; if B commutes with
          C, B * C^-1 * s = C^-1 * (B * s), so None and neg enter, and
          the run becomes B * s with C empty;
      (C) s < 0 cannot grow C; if B commutes with C, B * C^-1 * s =
          C^-1 * B * s, so None and neg enter, and s starts C anew.
    B commutes with C when support[pos] & blocked is zero: support[x]
    has bit k set when x does not fix {1..k}, that is when s_k is a
    letter of x, and blocked holds every generator of C with its two
    neighbours.  The support is read only here, never per symbol.  In
    (B) bit s of blocked is set, so s_|s| is no letter of B and B * s is
    simple; in (C) s_|s| is a letter of C, so again not of B, and s
    cannot cancel into B.  Otherwise both sides enter, and s starts the
    next run.  With B or C empty each rule is the whole run's close.

    A letter bubbles leftwards from the right end of the core: rewrite the
    last pair, then the pair to its left, and so on until a pair is
    already normal.  Everything to the right of the current position
    stays normal throughout: along the unbroken chain of rewrites this is
    the left-normality stopping implication.  When a head vanishes the
    pair merges into the single factor a*b, and the bubble ends there: a
    tail y of the left neighbour with y*a*b simple would make y*a simple,
    so a nontrivial y would already have moved into a.
    """
    ident, top, letter, flip_letter = alphabet.ident, alphabet.top, alphabet.letter, alphabet.flip
    step, extend, support = alphabet.step, alphabet.extend, alphabet.support
    delta = 0
    core: list = []
    pos, neg, blocked = ident, top, 0
    for s in chain(symbols, (_END,)):
        if s.__class__ is int:
            if s > 0:
                # the first test spares runs with C empty the shift
                if not blocked or not blocked >> s & 1:
                    if (grown := extend[s][pos]) != -1:
                        pos = grown
                        continue
                elif (grown := extend[s][neg]) != -1:
                    neg = grown
                    if neg == top:
                        blocked = 0
                    continue
            else:
                if not blocked and (grown := extend[s][pos]) != -1:
                    pos = grown
                    continue
                if (grown := extend[s][neg]) != -1:
                    neg = grown
                    blocked |= 7 << (-s - 1)
                    continue
        if s.__class__ is not int:  # the whole run leaves
            letters = [pos, None, neg] if blocked else [pos]
            pos, neg, blocked = ident, top, 0
            if s is not _END:
                letters.append(None if s is None else letter(s))
        elif s > 0 and not blocked >> s & 1:  # (A) s commutes with C: B leaves alone
            letters, pos = [pos], extend[s][ident]
        else:  # s > 0 cannot cancel into C, or s < 0 cannot grow C
            if support[pos] & blocked:
                letters, pos = [pos, None, neg], ident  # both sides leave
            else:
                letters = [None, neg]  # (B), (C) B commutes with C: C^-1 leaves alone
            if s > 0:
                pos, neg, blocked = extend[s][pos], top, 0
            else:
                neg, blocked = extend[s][top], 7 << (-s - 1)
        for x in letters:
            if x is None:
                delta -= 1
                continue
            # identity and half twist are fixed by flip, so test them first
            if x == ident:
                continue
            if x == top:
                delta += 1
                continue
            if delta & 1:
                x = flip_letter(x)
            # x bubbles leftwards; core[i] is x, its pair is (core[i-1], x)
            i = len(core)
            core.append(x)
            while i:
                rewrite = step[core[i - 1]][x]
                if rewrite is None:
                    break
                x, core[i] = rewrite  # the head bubbles on, the tail stays
                if x == ident:
                    del core[i - 1]
                    break
                i -= 1
                core[i] = x
            while core and core[-1] == top:
                core.pop()
                delta += 1
    return delta, core


# ---------------------------------------------------------------------------
# Public operations on positive words


def rewrite_pair_at(w: PositiveWord, i: int) -> PositiveWord:
    """
    Replace the adjacent pair (x_i, x_{i+1}) by its transfer (head, tail).
    Leaves the underlying braid, in particular the total permutation and
    every per-strand-pair crossing count, unchanged.
    """
    if not 0 <= i < len(w.letters) - 1:
        raise IndexError(f"no adjacent pair at position {i} in a word of length {len(w.letters)}")
    head, tail = _transfer_words(w.letters[i].perm, w.letters[i + 1].perm)
    letters = (
        w.letters[:i] + (SimpleBraid(head), SimpleBraid(tail)) + w.letters[i + 2 :]
    )
    return PositiveWord(w.n, letters)


def prepend_simple(a: SimpleBraid, nf: PositiveNormalForm) -> PositiveNormalForm:
    """The normal form of a * nf: the engine appends a, f1, ..., fk in turn."""
    return normalize_positive(PositiveWord(nf.n, (a,) + nf.factors))


def _generator_index(p: tuple[int, ...]) -> Optional[int]:
    """i when p is the adjacent transposition s_i, else None; O(n)."""
    moved = [i for i, v in enumerate(p, 1) if v != i]
    return moved[0] if len(moved) == 2 and moved[1] == moved[0] + 1 else None


def normalize_positive(w: PositiveWord) -> PositiveNormalForm:
    """
    The right-greedy normal form of a positive word, appending its letters
    in order at the right end, runs of generator letters folded; the
    engine's delta half twists come back as a block of factors there.
    Each distinct letter is tested once for being a generator.
    """
    n = w.n
    perms = [letter.perm for letter in w.letters]
    symbols = {p: _generator_index(p) or p for p in set(perms)}
    alphabet = _alphabet(n)
    delta, core = _normalize_letters(alphabet, map(symbols.__getitem__, perms))
    factors = core + [alphabet.top] * delta
    return PositiveNormalForm(n, tuple(map(alphabet.braid, factors)))


def _rewrite_to_fixpoint(letters: list, strategy: str, ident, step: Callable) -> Iterator:
    """
    Rewrite the list letters in place, identity dropped, one non-normal
    adjacent pair at a time, the leftmost or the rightmost one, and yield
    each rewrite as it is made, as (position, left, right, head, tail) in
    letters; letters is at its fixpoint once the rewrites are exhausted.
    step(a, b) is None for a normal pair, else (head, tail), as the
    engine reads its step; a vanished head merges the pair into its tail.
    After a rewrite the scan steps back one pair, since only the pairs
    next to the rewritten one can have changed.  The rewrites are yielded,
    not kept: a 3,000-letter word on four strands takes some 64,000 of
    them.  oracle.verify_confluence checks termination and crossing
    conservation on the rewrites it lists.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    letters[:] = [x for x in letters if x != ident]
    last = len(letters) - 2  # the index of the last pair
    forward, i = (1, 0) if strategy == "leftmost" else (-1, last)
    while 0 <= i <= last:
        rewrite = step(letters[i], letters[i + 1])
        if rewrite is None:
            i += forward
            continue
        head, tail = rewrite
        yield i, letters[i], letters[i + 1], head, tail
        if head == ident:
            rewrite, last = (tail,), last - 1
        letters[i : i + 2] = rewrite
        i = 0 if i < forward else last if i - forward > last else i - forward  # one pair back


def gs_rewrite_to_fixpoint(w: PositiveWord, strategy: str = "leftmost") -> PositiveNormalForm:
    """
    Normalise by repeatedly rewriting one non-normal adjacent pair chosen
    by the given strategy, dropping identity factors as they appear.
    Confluence makes the result independent of the strategy; termination
    is bounded by the position-weighted crossing count of the input.  A
    pair is judged by the normality test and rewritten by the transfer on
    one-line words, never by the engine's step.
    """

    def step(a, b):
        return None if _is_normal_words(a, b) else _transfer_words(a, b)

    perms = [letter.perm for letter in w.letters]
    for _rewrite in _rewrite_to_fixpoint(perms, strategy, identity(w.n), step):
        pass
    return PositiveNormalForm(w.n, tuple(map(SimpleBraid, perms)))


def rewrite_potential(w: PositiveWord) -> int:
    """
    Termination bound for the pairwise rewriting: crossings weighted by
    distance from the right end.  Each nontrivial rewrite moves at least
    one crossing one slot to the right, so the rewrite count never exceeds
    this number.
    """
    ell = len(w.letters)
    return sum((ell - 1 - idx) * letter.crossings() for idx, letter in enumerate(w.letters))


# ---------------------------------------------------------------------------
# The group normal form


def normalize_group(word) -> GroupNormalForm:
    """
    Canonicalise a signed word over Artin generators and half-twist
    symbols (a textio.ArtinWord) into (delta_power, positive factors).

    The engine holds the element as core * Omega^delta; its half twists
    are commuted to the front at the end as Omega^delta *
    flip^delta(core), so the core is flipped at most once.
    """
    return _group_form(word.n, word.symbols, _alphabet(word.n))


def _group_form(n: int, symbols: Iterable[int], alphabet: _Alphabet) -> GroupNormalForm:
    """
    normalize_group on the symbols of a word on n strands, read once as a
    stream, through the given alphabet.
    """
    if n == 1:
        # one strand: every symbol is trivial
        return GroupNormalForm(1, 0, ())
    # D and -D become the half twist and None; a generator stays an int.
    # One list read per symbol: laid out as 0, 1 .. n - 1, D, -D,
    # -(n - 1) .. -1, the list holds each symbol s at index s.
    symbols = map([*range(n), omega(n), None, *range(1 - n, 0)].__getitem__, symbols)
    delta, core = _normalize_letters(alphabet, symbols)
    if delta & 1:
        core = map(alphabet.flip, core)
    return GroupNormalForm(n, delta, tuple(map(alphabet.braid, core)))


# The step memo of one equal call above the table bound stores at most
# _MEMO_BUDGET // n entries, step rows counted as entries, whatever the
# words' length.  An entry keeps up to three letters alive, one-line
# words as bytes up to 255 strands and as tuples of n ints above: a full
# memo measured about 210, 340 and 470 bytes per entry at n = 7, 16 and
# 64 (300, 510 and 1,050 with tuple letters), so 7.9, 5.5 and 1.9 MB in
# all (tracemalloc peak of one eq of two 20,000-letter words, CPython
# 3.11.7), and 2,760 bytes per entry, 2.8 MB, at n = 256 (two 3,000-letter
# words; 3,500 bytes per entry at 20,000 letters).
# An eq of the benchmark's n = 64 words of up to 256 letters stores at
# most 514 of its 4,096 entries (the 108 eq calls of six mixed-n64
# cycles at seeds 1-3).
_MEMO_BUDGET = 2**18


def _common_ends(a: Sequence, b: Sequence) -> tuple[int, int]:
    """
    The lengths of the longest common prefix of a and b, and of the
    longest common suffix of what follows it, each found by one C-level
    pass over the symbols.
    """
    short = min(len(a), len(b))
    head = next(compress(count(), map(ne, a, b)), short)
    tail = next(compress(count(), map(ne, reversed(a[head:]), reversed(b[head:]))), short - head)
    return head, tail


def equal(w1, w2) -> bool:
    """
    Whether two signed words represent the same braid group element.

    Their longest common prefix Q and then their longest common suffix S
    are cancelled first, exactly, since Q * R1 * S = Q * R2 * S if and
    only if R1 = R2; only the middles R1 and R2 reach the engine, as
    symbol streams, and neither is copied.  Up to TABLE_MAX_STRANDS the
    rank tables make every step a table read, so the engine runs once,
    on R1 followed by R2^-1 (R2 reversed, each symbol negated, so D and
    -D swap), and the answer is whether that validated form is trivial:
    the normal form solves the word problem.  Above the bound a step is
    a transfer, and words that differ by local moves pass the same
    (factor, letter) pairs away from the moves, so each middle is
    normalised on its own and the two forms compared, both through the
    word alphabet behind a step memo (_Memo, whose rows are memos over
    the word alphabet's rows) that lives for this call only and stores
    at most _MEMO_BUDGET // n entries, rows included: the second middle
    reads much of its steps from the first.
    """
    n = w1.n
    _same_strands("words", n, w2.n)
    a, b = w1.symbols, w2.symbols
    head, tail = _common_ends(a, b)
    alphabet = _alphabet(n)
    if n <= TABLE_MAX_STRANDS:
        inverse = map(neg, islice(reversed(b), tail, len(b) - head))
        form = _group_form(n, chain(islice(a, head, len(a) - tail), inverse), alphabet)
        return not form.delta_power and not form.factors
    rows, room = alphabet.step, [_MEMO_BUDGET // n]
    alphabet = alphabet._replace(step=_Memo(lambda a: _Memo(rows[a].__getitem__, room), room))
    forms = [_group_form(n, islice(w, head, len(w) - tail), alphabet) for w in (a, b)]
    return forms[0] == forms[1]
