"""Slow twins, and inputs that stress the fast paths, shared by the test modules."""
from braidnf.normalform import GroupNormalForm, PositiveWord, gs_rewrite_to_fixpoint
from braidnf.perms import adjacent_transposition, compose, flip, omega
from braidnf.simple import SimpleBraid


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
