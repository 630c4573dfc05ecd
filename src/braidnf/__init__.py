"""
braidnf: greedy normal forms for braid monoids and groups computed in
simple-braid (permutation) generators, with inversion-set calculus, the
weak-order lattice, a confluent rewriting system, an explicit small-n
normal-form automaton, and brute-force verification sweeps.
"""
import types

from .lattice import (
    InversionSet,
    complement,
    deglex_compare,
    deglex_key,
    join,
    leq,
    meet,
    meet_permutations,
    star,
)
from .normalform import (
    GroupNormalForm,
    PositiveNormalForm,
    PositiveWord,
    equal,
    gs_rewrite_to_fixpoint,
    is_normal,
    normalize_group,
    normalize_positive,
    prepend_simple,
    rewrite_pair_at,
)
from .perms import (
    PairSet,
    act_on_pairs,
    adjacent_transposition,
    compose,
    flip,
    identity,
    inverse,
    inversion_set,
    is_inversion_set,
    omega,
    permutation_from_inversions,
)
from .oracle import (
    VerificationReport,
    brute_meet,
    brute_validity,
    strand_crossings,
    verify_confluence,
    verify_gsb,
    verify_gsb_strict,
    verify_meet,
    verify_stop,
    verify_strand_lemma,
    verify_validity,
)
from .simple import (
    SimpleBraid,
    Transfer,
    flip_braid,
    generator_braid,
    head_op,
    identity_braid,
    is_clean_transfer,
    is_head,
    is_normal_pair,
    is_tail,
    omega_braid,
    product_in_D,
    star_set,
    tail_op,
    transfer,
)
from .textio import (
    ArtinWord,
    ParseError,
    format_normal_form,
    format_permutation,
    format_word,
    parse_permutation,
    parse_word,
    render_diagram,
    simple_to_artin,
    word_to_simple_letters,
)

__version__ = "0.1.0"

# The imports above are the one listing of the public namespace.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
