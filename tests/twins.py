"""Slow twins, and inputs that stress the fast paths, shared by the test modules."""
import functools

from braidnf.automaton import AutomatonGraph
from braidnf.lattice import deglex_key
from braidnf.normalform import GroupNormalForm, PositiveWord, gs_rewrite_to_fixpoint
from braidnf.perms import adjacent_transposition, all_permutations, compose, flip, identity, omega
from braidnf.simple import SimpleBraid, _transfer_words
from braidnf.textio import ArtinWord, simple_to_artin


def formal_inverse(word) -> ArtinWord:
    """The reversed word with every exponent negated."""
    return ArtinWord(word.n, tuple(-s for s in reversed(word.symbols)))


def word_permutation(w) -> tuple:
    """The permutation of a positive word's product, left letter first."""
    return functools.reduce(compose, (b.perm for b in w.letters), identity(w.n))


def spelled_form(form) -> ArtinWord:
    """
    A group normal form D^m a_1 ... a_k as a word: |m| symbols D, or -D
    when m < 0, then the reduced word of each factor.
    """
    n = form.n
    symbols = [n if form.delta_power > 0 else -n] * abs(form.delta_power)
    for factor in form.factors:
        symbols += simple_to_artin(factor).symbols
    return ArtinWord(n, tuple(symbols))


def state_after(graph, indices) -> SimpleBraid:
    """
    The automaton's state after a word of generator indices: start at
    state 0, the identity, and follow graph.transitions[state][i - 1][0].
    """
    state = 0
    for i in indices:
        state = graph.transitions[state][i - 1][0]
    return graph.states[state]


def automaton_twin(n) -> AutomatonGraph:
    """
    The automaton built the direct way: every simple braid a state, sorted
    by the degree-lexicographic order of its inversion set, and one
    transfer (simple._transfer_words) per state and generator, which moves
    to the tail and emits the head.
    """
    states = tuple(
        sorted((SimpleBraid(p) for p in all_permutations(n)), key=lambda b: deglex_key(b.inv))
    )
    index = {state.perm: k for k, state in enumerate(states)}
    gens = [adjacent_transposition(n, i) for i in range(1, n)]
    transitions = []
    for state in states:
        row = []
        for gen in gens:
            head, tail = _transfer_words(state.perm, gen)
            row.append((index[tail], index[head]))
        transitions.append(tuple(row))
    return AutomatonGraph(n, states, tuple(transitions))


def half_twist_letters(n) -> list:
    """The half twist on n strands as sigma_1, sigma_2 sigma_1, ..., sigma_{n-1} ... sigma_1."""
    return [i for top in range(1, n) for i in range(top, 0, -1)]


def artin_letters(word) -> list:
    """
    The symbols of a word with each D and -D spelled out in generators, so
    that every letter is a k with 0 < |k| < n; the symbols n and -n are
    never read as a generator sigma_n.
    """
    delta = half_twist_letters(word.n)
    spelled = {word.n: delta, -word.n: [-s for s in reversed(delta)]}
    return [x for s in word.symbols for x in spelled.get(s, (s,))]


def handle_reduce(symbols) -> list:
    """
    Dehornoy's handle reduction ("A fast method for comparing braids",
    Adv. Math. 125, 1997) of a word of generators, k for sigma_|k|^sign(k);
    it reads Artin letters only, with no permutation, meet or half twist.
    A sigma_i-handle is sigma_i^e w sigma_i^-e with every letter of w above
    i.  The handle whose right end comes first is reduced: its ends are
    dropped and each sigma_{i+1}^d in w becomes
    sigma_{i+1}^-e sigma_i^d sigma_{i+1}^e.  The prefix before the handle
    held no handle, so the scan resumes at its left end.  The handle-free
    word left is empty exactly when the braid is trivial.
    """
    word = list(symbols)
    j = 0
    while j < len(word):
        i = abs(word[j])
        k = j - 1
        while k >= 0 and abs(word[k]) > i:
            k -= 1
        if k < 0 or word[k] != -word[j]:
            j += 1
            continue
        e = 1 if word[k] > 0 else -1
        inner = [
            [-e * (i + 1), i if s > 0 else -i, e * (i + 1)] if abs(s) == i + 1 else [s]
            for s in word[k + 1 : j]
        ]
        word[k : j + 1] = [x for letters in inner for x in letters]
        j = k
    return word


def lifted_group_twin(word) -> GroupNormalForm:
    """
    The group normal form of a signed word on at least two strands, the
    slow way.  Every inverse symbol is lifted through
    sigma_i^-1 = Omega^-1 * (Omega * s_i) and D^-1 = Omega^-1, and each
    Omega^-1 is moved to the front by flipping every letter before it.
    The positive word that is left is normalised by rightmost rewriting,
    and its trailing half twists go to the front, flipping the rest once
    each.
    """
    n = word.n
    top = omega(n)
    power, letters = 0, []
    for s in word.symbols:
        if s < 0:
            power -= 1
            letters = [flip(p) for p in letters]
        if abs(s) < n:
            x = adjacent_transposition(n, abs(s))
            letters.append(x if s > 0 else compose(top, x))
        elif s > 0:
            letters.append(top)
    nf = gs_rewrite_to_fixpoint(
        PositiveWord(n, tuple(SimpleBraid(p) for p in letters)), "rightmost"
    )
    factors = [f.perm for f in nf.factors]
    trailing = 0
    while factors and factors[-1] == top:
        factors.pop()
        trailing += 1
    if trailing % 2:
        factors = [flip(p) for p in factors]
    return GroupNormalForm(n, power + trailing, tuple(SimpleBraid(p) for p in factors))


def near_top(rng, n):
    """omega(n) with one to four random adjacent swaps."""
    w = list(omega(n))
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def rewrite_twin(letters, strategy, ident, step):
    """
    The pairwise rewriting loop written plainly: rewrite the leftmost or
    rightmost non-normal pair, merge a vanished head into its tail, step
    back one pair and clamp to the word.  Returns the letters and the
    (position, left, right, head, tail) of every rewrite, in order.
    """
    letters, hooks = [x for x in letters if x != ident], []
    forward = 1 if strategy == "leftmost" else -1
    i = 0 if forward == 1 else len(letters) - 2
    while 0 <= i < len(letters) - 1:
        rewrite = step(letters[i], letters[i + 1])
        if rewrite is None:
            i += forward
            continue
        hooks.append((i, letters[i], letters[i + 1], *rewrite))
        letters[i : i + 2] = rewrite[1:] if rewrite[0] == ident else rewrite
        i = min(max(i - forward, 0), len(letters) - 2)
    return letters, hooks


BURAU_PRIME = 2**61 - 1


def burau_image(n, symbols, t, vector) -> list:
    """
    A row vector times the Burau image of a word, mod BURAU_PRIME: sigma_i
    acts as I + [[1 - t, t], [1, 0]] on coordinates i - 1 and i (from 0),
    a homomorphism B_n -> GL_n(Z[t, 1/t]) (W. Burau, 1936) evaluated at t.
    symbols holds k for sigma_|k|^sign(k) and n and -n for D and -D, which
    are spelled as sigma_1 (sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1).
    Each letter changes two coordinates, so the cost is the letter count
    with each D counted as n(n - 1)/2.  Equal braids have equal images;
    Burau is not faithful for n >= 5 (S. Bigelow, Geom. Topol. 3, 1999),
    so only a differing image decides anything.
    """
    p = BURAU_PRIME
    t_inv = pow(t, p - 2, p)
    up, down = (1 - t) % p, (t - 1) * t_inv % p
    delta = half_twist_letters(n)
    spelled = {n: delta, -n: [-s for s in reversed(delta)]}
    v = list(vector)
    for s in symbols:
        for k in spelled.get(s, (s,)):
            i = abs(k) - 1
            x, y = v[i], v[i + 1]
            if k > 0:
                v[i], v[i + 1] = (x * up + y) % p, x * t % p
            else:
                v[i], v[i + 1] = y * t_inv % p, (x + y * down) % p
    return v


def sorted_word(perm) -> list:
    """
    A reduced word of the simple braid with this one-line word, read off an
    insertion sort: each swap of positions i and i + 1 (from 1) peels
    sigma_i off the left, so the swaps in order spell the braid.
    """
    current, word = list(perm), []
    for j in range(1, len(current)):
        i = j
        while i and current[i - 1] > current[i]:
            current[i - 1], current[i] = current[i], current[i - 1]
            word.append(i)
            i -= 1
    return word


def form_symbols(form) -> list:
    """A group normal form D^m a_1 ... a_k as symbols, each factor spelled by sorted_word."""
    symbols = [form.n if form.delta_power > 0 else -form.n] * abs(form.delta_power)
    for factor in form.factors:
        symbols += sorted_word(factor.perm)
    return symbols


def growth_series(n, length) -> list:
    """
    The numbers of positive braids on n strands with 0, 1, ..., length
    crossings: the coefficients of Deligne's growth series ("Les immeubles
    des groupes de tresses generalises", Invent. Math. 17, 1972),
    1 / sum over J of (-1)^|J| t^l(Delta_J), J running over the subsets of
    the n - 1 generators and Delta_J the longest element of the subgroup
    J generates.  l(Delta_J) is the sum of r(r+1)/2 over the maximal runs
    of r consecutive generators in J.
    """
    denominator = [0] * (length + 1)
    for subset in range(1 << (n - 1)):
        runs = [len(run) for run in f"{subset:b}".split("0")]
        top = sum(r * (r + 1) // 2 for r in runs)
        if top <= length:
            denominator[top] += (-1) ** sum(runs)
    counts = [1]  # denominator[0] is 1, from the empty set alone
    for total in range(1, length + 1):
        counts.append(-sum(denominator[k] * counts[total - k] for k in range(1, total + 1)))
    return counts


WHITESPACE = " \t\n\r\x0c\x0b"  # space, tab, newline, carriage return, form feed, vertical tab
DIGITS = "0123456789"


def _natural(digits):
    """The value of a run of the digits 0-9, or None when it is empty or holds anything else."""
    if not digits or any(c not in DIGITS for c in digits):
        return None
    value = 0
    for c in digits:
        value = 10 * value + DIGITS.index(c)
    return value


def grammar_twin(text, max_strands, max_letters):
    """
    The word grammar of the textio module docstring, read character by
    character with no regex, int() or str.split(): (n, symbols) when text
    is a word, else None.  The header is what comes before the first
    ``;``: optional whitespace, ``n``, optional whitespace, ``=``,
    optional whitespace, a run of digits for 1 <= n <= max_strands, and
    optional whitespace.  The body is tokens separated by whitespace, the
    six ASCII characters of WHITESPACE and nothing else; a token is ``D``,
    ``-D``, or an optional ``-`` or ``+`` and a run of digits for k with
    0 < |k| < n.  Any other character is part of a token, which it spoils,
    and a word has at most max_letters tokens.
    """
    head, sep, body = text.partition(";")
    if not sep:
        return None
    head = head.strip(WHITESPACE)
    if head[:1] != "n":
        return None
    head = head[1:].lstrip(WHITESPACE)
    if head[:1] != "=":
        return None
    n = _natural(head[1:].lstrip(WHITESPACE))
    if n is None or not 1 <= n <= max_strands:
        return None
    tokens, token = [], ""
    for c in body + " ":
        if c not in WHITESPACE:
            token += c
        elif token:
            tokens.append(token)
            token = ""
    if len(tokens) > max_letters:
        return None
    symbols = []
    for token in tokens:
        if token in ("D", "-D"):
            symbols.append(n if token == "D" else -n)
            continue
        sign = -1 if token[:1] == "-" else 1
        k = _natural(token[1:] if token[:1] in "+-" else token)
        if k is None or not 0 < k < n:
            return None
        symbols.append(sign * k)
    return n, tuple(symbols)
