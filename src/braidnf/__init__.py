"""
braidnf: greedy normal forms for braid monoids and groups computed in
simple-braid (permutation) generators, with inversion-set calculus, the
weak-order lattice, a confluent rewriting system, an explicit small-n
normal-form automaton, and brute-force verification sweeps.
"""
import importlib
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


def _lazy_getattr(namespace: dict, lazy: dict):
    """
    A module __getattr__ (PEP 562) for lazy, a map from name to the
    submodule of this package that defines it: the first access imports the
    submodule and keeps the name in namespace, where later reads find it.
    """

    def __getattr__(name):
        if name not in lazy:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(f"{__name__}.{lazy[name]}"), name)
        return namespace[name]

    return __getattr__


# The oracle loads on first use: the normal forms and the commands that
# print them never run the brute-force twins.
_LAZY = dict.fromkeys(
    ["VerificationReport", "brute_meet", "brute_validity", "strand_crossings",
     "verify_confluence", "verify_gsb", "verify_gsb_strict", "verify_meet", "verify_stop",
     "verify_strand_lemma", "verify_validity"],
    "oracle",
)
__getattr__ = _lazy_getattr(globals(), _LAZY)

# The imports above and _LAZY are the one listing of the public namespace.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY)
