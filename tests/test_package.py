"""
The package surface: the public namespace, the modules each command
loads, the value types' shared semantics, and the one strand-count check
every binary operation shares, with its messages pinned site by site.
"""
import ast
import copy
import importlib
import pathlib
import pickle
import re
import subprocess
import sys
import types

import pytest

import braidnf
from braidnf import cli, lattice, normalform, oracle, perms, simple
from braidnf.automaton import AutomatonGraph
from braidnf.lattice import InversionSet
from braidnf.normalform import GroupNormalForm, PositiveNormalForm, PositiveWord
from braidnf.oracle import VerificationReport
from braidnf.perms import PairSet, identity
from braidnf.simple import SimpleBraid, Transfer, generator_braid, identity_braid
from braidnf.textio import ArtinWord, parse_word

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
MODULES = ("braidnf.oracle", "braidnf.automaton", "json", "dataclasses", "inspect")
print(" ".join(m for m in MODULES if m in sys.modules))
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


# One value of each of the ten value types, its fields in order, and its repr.
E, S1, S2 = identity_braid(3), generator_braid(3, 1), generator_braid(3, 2)
VALUES = [
    (SimpleBraid, ((2, 1, 3),), "SimpleBraid([2, 1, 3])"),
    (PairSet, (3, 0b101), "PairSet(n=3, bits=5)"),
    (InversionSet, (3, 0b001), "InversionSet(n=3, bits=1)"),
    (
        Transfer,
        ((2, 1, 3), E, SimpleBraid((3, 1, 2))),
        "Transfer(m=(2, 1, 3), head=SimpleBraid([1, 2, 3]), tail=SimpleBraid([3, 1, 2]))",
    ),
    (
        PositiveWord,
        (3, (S1, E)),
        "PositiveWord(n=3, letters=(SimpleBraid([2, 1, 3]), SimpleBraid([1, 2, 3])))",
    ),
    (
        PositiveNormalForm,
        (3, (S1, S1)),
        "PositiveNormalForm(n=3, letters=(SimpleBraid([2, 1, 3]), SimpleBraid([2, 1, 3])))",
    ),
    (
        GroupNormalForm,
        (3, -1, (S2,)),
        "GroupNormalForm(n=3, delta_power=-1, factors=(SimpleBraid([1, 3, 2]),))",
    ),
    (ArtinWord, (3, (1, -2, 3)), "ArtinWord(n=3, symbols=(1, -2, 3))"),
    (
        AutomatonGraph,
        (2, (identity_braid(2), generator_braid(2, 1)), (((1, 0),), ((1, 1),))),
        "AutomatonGraph(n=2, states=(SimpleBraid([1, 2]), SimpleBraid([2, 1])),"
        " transitions=(((1, 0),), ((1, 1),)))",
    ),
    (
        VerificationReport,
        ("demo", 3, 10, [["item"]], True),
        "VerificationReport(suite='demo', n=3, cases=10, failures=[['item']], diagnostic=True)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_semantics(cls, fields, text, monkeypatch):
    checked = []
    validate = cls.__post_init__

    def wrapped(self):
        checked.append(self)
        validate(self)

    monkeypatch.setattr(cls, "__post_init__", wrapped)
    value = cls(*fields)
    assert checked == [value]  # construction runs the validation set on the class
    copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    assert checked == [value] * 4  # and so does every copy
    assert tuple(getattr(value, name) for name in cls._fields) == fields
    assert value == cls(*fields) and value != fields
    monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    assert value != cls(*fields[:-1], ())
    if cls is VerificationReport:  # its failures are a list, so its fields have no hash
        with pytest.raises(TypeError):
            hash(value)
    else:  # a value of one field hashes as that field
        assert hash(value) == hash(fields if len(fields) > 1 else fields[0])
    assert repr(value) == text
    assert value.__reduce__() == (cls, fields)
    for name in (cls._fields[0], "_inv", "other"):  # _inv: the braid's cache slot
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        cls(*fields, None)


def test_values_of_different_classes_differ():
    assert InversionSet(3, 1) != PairSet(3, 1) and PairSet(3, 1) != InversionSet(3, 1)
    assert PositiveNormalForm(3, (S1,)) != PositiveWord(3, (S1,))


@pytest.mark.parametrize(
    "value", [cls(*fields) for cls, fields, _ in VALUES], ids=[cls.__name__ for cls, _, _ in VALUES]
)
def test_values_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize(
    "build",
    [
        lambda: SimpleBraid([]),
        lambda: PositiveWord(0, ()),
        lambda: PositiveNormalForm(-2, ()),
        lambda: GroupNormalForm(0, 0, ()),
        lambda: normalform.is_normal([SimpleBraid([])]),
    ],
    ids=["SimpleBraid", "PositiveWord", "PositiveNormalForm", "GroupNormalForm", "is_normal"],
)
def test_values_on_no_strands_are_refused(build):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == "need at least one strand"


def test_a_copy_is_validated(monkeypatch):
    calls = []
    monkeypatch.setattr(GroupNormalForm, "__post_init__", lambda self: calls.append(self))
    form = normalform.normalize_group(parse_word("n=3; 1 -2 2"))
    pickle.loads(pickle.dumps(form))
    copy.deepcopy(form)
    assert calls == [form, form, form]


def test_sequence_fields_are_stored_as_tuples():
    letters, symbols, factors = [S1, S1], [1, 2], [S2]
    values = [
        PositiveWord(3, letters),
        PositiveNormalForm(3, letters),
        ArtinWord(3, symbols),
        GroupNormalForm(3, 0, factors),
    ]
    letters[1] = E
    symbols.append(0)
    factors.append(E)
    assert values[0].letters == values[1].letters == (S1, S1)
    assert values[2].symbols == (1, 2) and values[3].factors == (S2,)
    assert normalform.is_normal(values[1].factors) and normalform.is_normal(values[3].factors)
    assert len({*values}) == 4  # tuples, so every value hashes
    word = (S1, S1)
    assert PositiveNormalForm(3, word).letters is word


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


def _permutation_and_pair_set():
    return identity(3), PairSet(4, 0)


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
    (lattice.meet_permutations, _permutations, "permutations"),
    (oracle.brute_meet, _inversion_sets, "inversion sets"),
    (normalform.equal, _words, "words"),
    (perms.compose, _permutations, "cannot compose permutations"),
    (PairSet.__and__, _pair_sets, "pair sets"),
    (perms.act_on_pairs, _permutation_and_pair_set, "permutation and pair set"),
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
    for tests.  Dunder and private methods are not checked, and the fields
    a class names in `_fields` are not methods.  A read of any object's attribute of that name
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


def test_src_sets_no_field_through_object_setattr():
    """Value fields are set only through the value base's slot setters."""
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in _source_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__setattr__"
    ]
    assert not calls, calls


def test_src_reads_slot_setters_only_in_the_value_base():
    """
    Values are built through the value base, perms._Value: by its checked
    constructor, or by its _trusted when they are valid by construction.
    No code outside the base reads a class's _setters.
    """
    allowed = {("perms", "_Value")}

    def reads(tree) -> set:
        return {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_setters"
        }

    stray = [
        f"{module}:{line}"
        for module, tree in _source_trees().items()
        for line in sorted(
            reads(tree).difference(
                *(
                    reads(scope)
                    for scope in ast.walk(tree)
                    if isinstance(scope, (ast.ClassDef, ast.FunctionDef))
                    and (module, scope.name) in allowed
                )
            )
        )
    ]
    assert not stray, stray


def test_readme_names_resolve():
    """
    Every backticked `<module>.<name>` of a package module in README.md
    names something that exists, attribute chains included.  A name
    followed by `<`, such as `cli._cmd_<command>`, is a placeholder.
    """
    modules = ["braidnf", *(name for name in _source_trees() if name[0] != "_")]
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)  # code blocks
    dotted = re.compile(
        rf"(?<![\w./])({'|'.join(modules)})((?:\.[A-Za-z_]\w*)+)(?!\w*<)"
    )
    missing, checked = [], 0
    for span in re.findall(r"`([^`]+)`", readme):
        for module, chain in dotted.findall(span):
            target = braidnf if module == "braidnf" else importlib.import_module(f"braidnf.{module}")
            for name in chain[1:].split("."):
                target = getattr(target, name, None)
                if target is None:
                    missing.append(module + chain)
                    break
            checked += 1
    assert checked > 50 and not missing, missing
