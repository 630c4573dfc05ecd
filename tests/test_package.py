"""
The package surface: the public namespace, the modules each command
loads, and the one strand-count check every binary operation shares, with
its messages pinned site by site.
"""
import ast
import importlib
import pathlib
import subprocess
import sys
import types

import pytest

import braidnf
from braidnf import cli, lattice, normalform, oracle, perms, simple
from braidnf.lattice import InversionSet
from braidnf.perms import PairSet, identity
from braidnf.simple import identity_braid
from braidnf.textio import parse_word

PUBLIC_NAMES = [
    "ArtinWord", "GroupNormalForm", "InversionSet", "PairSet", "ParseError",
    "PositiveNormalForm", "PositiveWord", "SimpleBraid", "Transfer", "VerificationReport",
    "act_on_pairs", "adjacent_transposition", "brute_meet", "brute_validity", "complement",
    "compose", "deglex_compare", "deglex_key", "equal", "flip", "flip_braid",
    "format_normal_form", "format_permutation", "format_word", "generator_braid",
    "gs_rewrite_to_fixpoint", "head_op", "identity", "identity_braid", "inverse",
    "inversion_set", "is_clean_transfer", "is_head", "is_inversion_set", "is_normal",
    "is_normal_pair", "is_tail", "join", "leq", "meet", "meet_permutations",
    "normalize_group", "normalize_positive", "omega", "omega_braid", "parse_permutation",
    "parse_word", "permutation_from_inversions", "prepend_simple", "product_in_D",
    "render_diagram", "rewrite_pair_at", "simple_to_artin", "star", "star_set",
    "strand_crossings", "tail_op", "transfer", "verify_confluence", "verify_gsb",
    "verify_gsb_strict", "verify_meet", "verify_stop", "verify_strand_lemma",
    "verify_validity", "word_to_simple_letters",
]


def test_namespace():
    assert len(PUBLIC_NAMES) == 66
    assert sorted(braidnf.__all__) == PUBLIC_NAMES
    for name in braidnf.__all__:
        assert not isinstance(getattr(braidnf, name), types.ModuleType), name
    namespace: dict = {}
    exec("from braidnf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


@pytest.mark.parametrize("module", [braidnf, cli], ids=lambda module: module.__name__)
def test_lazy_names_are_the_defining_modules_names(module):
    for name, home in module._LAZY.items():
        assert getattr(module, name) is getattr(importlib.import_module(f"braidnf.{home}"), name)
    message = f"^module '{module.__name__}' has no attribute 'no_such_name'$"
    with pytest.raises(AttributeError, match=message):
        getattr(module, "no_such_name")


# A fresh interpreter without site, so that neither the tests run before
# nor the site packages have filled sys.modules.
STARTUP_PROBE = """\
import contextlib, io, sys
sys.path.insert(0, {src!r})
from braidnf import cli, normalform, textio
with contextlib.redirect_stdout(io.StringIO()):
    {call}
print(" ".join(m for m in ("braidnf.oracle", "braidnf.automaton", "json") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "call, loaded",
    [
        ("cli.main(['normalize', 'n=4; 1 -2 D 3'])", ""),
        ("cli.main(['eq', 'n=3; 1 2 1', 'n=3; 2 1 2'])", ""),
        (
            "normalform.normalize_positive("
            "textio.word_to_simple_letters(textio.parse_word('n=4; 1 2 3 1')))",
            "",
        ),
        ("cli.main(['normalize', '--json', 'n=3; 1 2'])", "json"),
        ("cli.main(['verify', '--suite', 'validity', '--n', '3'])", "braidnf.oracle json"),
        ("cli.main(['automaton', '--n', '3'])", "braidnf.automaton"),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(call, loaded):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = STARTUP_PROBE.format(src=str(src), call=call)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == loaded + "\n"


def _braids():
    return identity_braid(3), identity_braid(4)


def _inversion_sets():
    return InversionSet.from_permutation(identity(3)), InversionSet.from_permutation(identity(4))


def _permutations():
    return identity(3), identity(4)


def _pair_sets():
    return PairSet(3, 0), PairSet(4, 0)


def _words():
    return parse_word("n=3; 1"), parse_word("n=4; 1")


STRAND_CHECKS = [
    (simple.product_in_D, _braids, "braids"),
    (simple.transfer, _braids, "braids"),
    (simple.is_normal_pair, _braids, "braids"),
    (simple.is_clean_transfer, _braids, "braids"),
    (simple.is_head, _braids, "braids"),
    (simple.is_tail, _braids, "braids"),
    (lattice.meet, _inversion_sets, "inversion sets"),
    (lattice.leq, _inversion_sets, "inversion sets"),
    (lattice.deglex_compare, _inversion_sets, "inversion sets"),
    (lattice._meet_reads, _permutations, "permutations"),
    (lattice.meet_permutations, _permutations, "permutations"),
    (oracle.brute_meet, _inversion_sets, "inversion sets"),
    (normalform.equal, _words, "words"),
    (perms.compose, _permutations, "cannot compose permutations"),
    (PairSet.__and__, _pair_sets, "pair sets"),
]


@pytest.mark.parametrize(
    "call, operands, kind", STRAND_CHECKS, ids=[call.__qualname__ for call, _, _ in STRAND_CHECKS]
)
def test_strand_mismatch_message(call, operands, kind):
    left, right = operands()
    with pytest.raises(ValueError) as caught:
        call(left, right)
    assert str(caught.value) == f"{kind} on 3 and 4 strands"


def _source_trees() -> dict:
    """The syntax tree of each module of the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(braidnf.__file__).parent.glob("*.py"))
    }


def test_src_keeps_no_test_only_names():
    """
    Every public module-level function or class of the package is public
    API, a lazy name loaded from its own module, imported by another
    module, or used by name in its own module; none exists only for tests.
    The sources are read as syntax trees, so a local variable elsewhere
    that shares a name does not count as a use.
    """
    trees = _source_trees()
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    lazy = set(braidnf._LAZY.items()) | set(cli._LAZY.items())
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in braidnf.__all__ or name in used:
                continue
            if (name, module) not in lazy and (module, name) not in imported:
                unused.append(f"{module}.{name}")
    assert not unused, "only tests use " + ", ".join(unused)


def test_src_keeps_no_test_only_members():
    """
    Every public method or property of a class in the package is read by
    attribute name (x.name) somewhere in the package; none exists only
    for tests.  Dunder and private methods are not checked, and dataclass
    fields are not methods.  A read of any object's attribute of that name
    counts, so the pin catches a member no source names at all.
    """
    trees = _source_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert not unused, "only tests use " + ", ".join(unused)
