"""
The explicit normal-form automaton over simple braids, for small n.

States are all n! simple braids.  Reading an Artin generator from state a
moves to tail_op(a, s_i) and emits head_op(a, s_i); after reading a
positive word the state is the maximal simple tail of the word, i.e. the
last factor of its greedy normal form.  States are ranked by the
degree-lexicographic order of their inversion sets so node identifiers in
exports are stable.

The graph is a view of the engine's alphabet (normalform._alphabet): each
transition is one step read, step[a][s_i].  Up to six strands that is a
read of the rank tables, filled on first read and kept, so a second
build of the same automaton takes no transfer; above six it is one
transfer per read.
"""
from __future__ import annotations

from . import normalform
from .lattice import deglex_key
from .perms import _Value, adjacent_transposition, all_permutations

MAX_STATE_STRANDS = 8


class AutomatonGraph(_Value):
    """
    Complete transition table over the states, the simple braids on n
    strands in rank order: transitions[s][i-1] is the pair
    (index of tail_op(state s, generator i), index of the emitted head).
    State 0 is the identity (its inversion set is empty), so the state
    after a positive word is read off by following transitions[s][i-1][0]
    from state 0, letter by letter.
    """

    __slots__ = _fields = ("n", "states", "transitions")


def build(n: int) -> AutomatonGraph:
    """
    Materialise the automaton; guarded because the state set is n!.  The
    states are the alphabet's letters, sorted by the inversion sets of
    their braids, and a step None means the pair (state, generator) is
    normal: it moves to the generator and emits the state.  Each state's
    step row is read once.
    """
    if not 2 <= n <= MAX_STATE_STRANDS:
        raise ValueError(f"state table has n! entries; need 2 <= n <= {MAX_STATE_STRANDS}")
    alphabet = normalform._alphabet(n)
    braids = {x: alphabet.braid(x) for x in map(alphabet.letter, all_permutations(n))}
    states = sorted(braids, key=lambda x: deglex_key(braids[x].inv))
    index = {x: k for k, x in enumerate(states)}
    gens = [alphabet.letter(adjacent_transposition(n, i)) for i in range(1, n)]
    transitions = []
    for x in states:
        row = alphabet.step[x]
        steps = [row[g] or (x, g) for g in gens]
        transitions.append(tuple((index[tail], index[head]) for head, tail in steps))
    return AutomatonGraph(n, tuple(map(braids.__getitem__, states)), tuple(transitions))


def export_dot(g: AutomatonGraph) -> str:
    """
    Deterministic DOT rendering: nodes in state-rank order labelled with
    one-line permutations, one edge per (state, generator) labelled by the
    generator index.
    """
    lines = [f"digraph braid_automaton_n{g.n} {{", "  rankdir=TB;"]
    for k, state in enumerate(g.states):
        label = " ".join(str(v) for v in state.perm)
        lines.append(f'  s{k} [label="{label}"];')
    for k, row in enumerate(g.transitions):
        for i, (nxt, _emit) in enumerate(row, start=1):
            lines.append(f'  s{k} -> s{nxt} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
