"""
The explicit normal-form automaton over simple braids, for small n.

States are all n! simple braids.  Reading an Artin generator from state a
moves to tail_op(a, s_i) and emits head_op(a, s_i); after reading a
positive word the state is the maximal simple tail of the word, i.e. the
last factor of its greedy normal form.  States are ranked by the
degree-lexicographic order of their inversion sets so node identifiers in
exports are stable.
"""
from __future__ import annotations

import dataclasses

from .lattice import deglex_key
from .perms import adjacent_transposition, all_permutations
from .simple import SimpleBraid, _transfer_words

MAX_STATE_STRANDS = 8


@dataclasses.dataclass(frozen=True)
class AutomatonGraph:
    """
    Complete transition table: transitions[s][i-1] is the pair
    (index of tail_op(state s, generator i), index of the emitted head).
    State 0 is the identity (its inversion set is empty), so the state
    after a positive word is read off by following transitions[s][i-1][0]
    from state 0, letter by letter.
    """

    n: int
    states: tuple[SimpleBraid, ...]
    transitions: tuple[tuple[tuple[int, int], ...], ...]


def build(n: int) -> AutomatonGraph:
    """Materialise the automaton; guarded because the state set is n!."""
    if not 2 <= n <= MAX_STATE_STRANDS:
        raise ValueError(f"state table has n! entries; need 2 <= n <= {MAX_STATE_STRANDS}")
    states = tuple(
        sorted((SimpleBraid(p) for p in all_permutations(n)), key=lambda b: deglex_key(b.inv))
    )
    index = {state.perm: k for k, state in enumerate(states)}
    transitions = []
    gens = [adjacent_transposition(n, i) for i in range(1, n)]
    for state in states:
        row = []
        for gen in gens:
            head, tail = _transfer_words(state.perm, gen)
            row.append((index[tail], index[head]))
        transitions.append(tuple(row))
    return AutomatonGraph(n, states, tuple(transitions))


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
