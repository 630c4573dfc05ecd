import math
import random

import pytest

from braidnf import normalform
from braidnf.automaton import build, export_dot
from braidnf.normalform import normalize_positive
from braidnf.perms import compose, length
from braidnf.simple import generator_braid, identity_braid, omega_braid
from braidnf.textio import ArtinWord, word_to_simple_letters
from twins import automaton_twin, state_after


def test_build_sizes():
    for n in (3, 4):
        g = build(n)
        assert len(g.states) == math.factorial(n)
        assert sum(map(len, g.transitions)) == (n - 1) * math.factorial(n)
    with pytest.raises(ValueError):
        build(9)
    with pytest.raises(ValueError):
        build(1)


def test_build_matches_the_transfer_twin():
    # states, their order and every transition, against one transfer per
    # state and generator; n = 2..6 read the rank tables
    for n in range(2, 7):
        assert build(n) == automaton_twin(n)


def test_second_build_reads_the_filled_step_rows(monkeypatch):
    # the first build(6) fills (n - 1) * n! = 3,600 entries of fresh rank
    # tables; a second build in the same process takes no transfer
    monkeypatch.setattr(normalform, "_TABLES", {})
    calls = 0
    step_words = normalform._step_words

    def counted(a, b):
        nonlocal calls
        calls += 1
        return step_words(a, b)

    monkeypatch.setattr(normalform, "_step_words", counted)
    first = build(6)
    assert calls == 5 * 720
    assert build(6) == first and calls == 5 * 720
    shared = normalform.rank_tables(6)
    assert all(state is shared.braid(shared.letter(state.perm)) for state in first.states)


def test_states_ranked_identity_first():
    g = build(3)
    assert g.states[0] == identity_braid(3)
    assert g.states[-1] == omega_braid(3)


def test_fixed_transitions():
    g = build(3)
    e = g.states.index(identity_braid(3))
    s1 = g.states.index(generator_braid(3, 1))
    nxt, emitted = g.transitions[e][0]
    assert g.states[nxt] == generator_braid(3, 1) and g.states[emitted] == identity_braid(3)
    nxt, emitted = g.transitions[s1][0]
    assert g.states[nxt] == generator_braid(3, 1) and g.states[emitted] == generator_braid(3, 1)
    with pytest.raises(ValueError):
        g.states.index(identity_braid(4))  # not a state of the three-strand automaton


def test_transition_consistency():
    # emitted * next == state * generator, with crossing counts adding up
    for n in (3, 4):
        g = build(n)
        for k, state in enumerate(g.states):
            for i in range(1, n):
                nxt, emitted = g.transitions[k][i - 1]
                head, tail = g.states[emitted], g.states[nxt]
                assert compose(head.perm, tail.perm) == compose(state.perm, generator_braid(n, i).perm)
                assert length(head.perm) + length(tail.perm) == length(state.perm) + 1


def test_run_values():
    g = build(3)
    assert state_after(g, [1, 2, 1]) == omega_braid(3)
    assert state_after(g, []) == identity_braid(3)
    assert state_after(g, [1, 1]) == generator_braid(3, 1)


def test_run_is_last_normal_form_factor():
    rng = random.Random(61)
    for n in (3, 4):
        g = build(n)
        for _ in range(300):
            idxs = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 20))]
            state = state_after(g, idxs)
            nf = normalize_positive(word_to_simple_letters(ArtinWord(n, tuple(idxs))))
            expect = nf.factors[-1] if nf.factors else identity_braid(n)
            assert state == expect


def test_every_state_reachable():
    g = build(3)
    seen = {g.states.index(identity_braid(3))}
    frontier = list(seen)
    while frontier:
        k = frontier.pop()
        for nxt, _ in g.transitions[k]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == len(g.states)


def test_export_dot():
    g2 = build(2)
    dot = export_dot(g2)
    assert dot == export_dot(build(2))  # byte stable
    lines = dot.splitlines()
    assert lines[0] == "digraph braid_automaton_n2 {"
    assert sum(1 for l in lines if "->" in l) == 2
    assert sum(1 for l in lines if "label=" in l and "->" not in l) == 2
    assert dot.endswith("}\n")
    dot3 = export_dot(build(3))
    assert dot3.count("->") == 12
    assert "\r" not in dot3
