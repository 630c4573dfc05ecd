"""
Outside-in layer tracing for the benchmark's traced run.

Each layer is a function of the package, wrapped at every name through
which a calling module binds it (so `normalform.flip`, not `perms.flip`,
because `normalize_group` looks `flip` up in its own module).  A wrapped
call is a span; spans are aggregated in memory by call path, so the trace
stays small however many calls the run makes, and are written out when
the run ends.  A layer's self time is its spans' duration minus the time
their child spans cover.  A binding that a later refactor removed is
skipped, and a layer with no binding left is reported as absent.
"""
from __future__ import annotations

import importlib
import time

# layer -> bindings "module:attribute" (attribute may be Class.method)
LAYERS = {
    "cli.main": ["braidnf.cli:main"],
    "textio.parse_word": ["braidnf.cli:parse_word", "braidnf.textio:parse_word"],
    "textio.format_normal_form": ["braidnf.cli:format_normal_form"],
    "normalform.normalize_group": [
        "braidnf.cli:normalize_group",
        "braidnf.normalform:normalize_group",
    ],
    "normalform.normalize_positive": [
        "braidnf.normalform:normalize_positive",
        "braidnf.oracle:normalize_positive",
    ],
    "normalform.gs_rewrite_to_fixpoint": ["braidnf.oracle:gs_rewrite_to_fixpoint"],
    "normalform.validate": [
        "braidnf.normalform:PositiveNormalForm.__post_init__",
        "braidnf.normalform:GroupNormalForm.__post_init__",
    ],
    "simple.transfer": [
        "braidnf.normalform:_transfer_words",
        "braidnf.oracle:_transfer_words",
        "braidnf.automaton:_transfer_words",
    ],
    "simple.is_normal": [
        "braidnf.normalform:_is_normal_words",
        "braidnf.oracle:_is_normal_words",
    ],
    "lattice.meet_permutations": ["braidnf.simple:meet_permutations"],
    "perms.inverse": ["braidnf.simple:inverse", "braidnf.oracle:inverse"],
    "perms.compose": [
        "braidnf.simple:compose",
        "braidnf.normalform:compose",
        "braidnf.oracle:compose",
    ],
    "perms.flip": ["braidnf.normalform:flip"],
    "automaton.build": ["braidnf.cli:build"],
    "oracle.verify_gsb": ["braidnf.cli:verify_gsb"],
    "oracle.verify_stop": ["braidnf.cli:verify_stop"],
    "oracle.verify_strand_lemma": ["braidnf.cli:verify_strand_lemma"],
    "oracle.verify_meet": ["braidnf.cli:verify_meet"],
    "oracle.verify_validity": ["braidnf.cli:verify_validity"],
    "oracle.verify_confluence": ["braidnf.cli:verify_confluence"],
}
TRANSFER = "simple.transfer"


class _Node:
    __slots__ = ("layer", "children", "calls", "total", "child")

    def __init__(self, layer):
        self.layer = layer
        self.children = {}
        self.calls = 0
        self.total = 0.0  # summed span durations
        self.child = 0.0  # summed durations of direct child spans

    def walk(self, path=()):
        for node in self.children.values():
            yield path + (node.layer,), node
            yield from node.walk(path + (node.layer,))


def _resolve(binding):
    module_name, _, attr = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Install with `install()`, run the work, then `uninstall()` and read the totals."""

    def __init__(self):
        self.root = _Node(None)
        self.cur = self.root
        self.useful_transfers = 0
        self.absent = []
        self._installed = []

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter
        count_useful = layer == TRANSFER

        def traced(*args, **kwargs):
            parent = tracer.cur
            node = parent.children.get(layer)
            if node is None:
                node = parent.children[layer] = _Node(layer)
            tracer.cur = node
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.cur = parent
                node.calls += 1
                node.total += dt
                parent.child += dt
            # (m, head, tail): the transfer was useful when the moved piece m is not trivial
            if count_useful and isinstance(result, tuple) and isinstance(result[0], tuple):
                if any(v != i for i, v in enumerate(result[0], 1)):
                    tracer.useful_transfers += 1
            return result

        return traced

    def install(self):
        for layer, bindings in LAYERS.items():
            found = False
            for binding in bindings:
                resolved = _resolve(binding)
                if resolved is None:
                    continue
                owner, name, fn = resolved
                setattr(owner, name, self._wrap(layer, fn))
                self._installed.append((owner, name, fn))
                found = True
            if not found:
                self.absent.append(layer)

    def uninstall(self):
        for owner, name, fn in reversed(self._installed):
            setattr(owner, name, fn)
        self._installed.clear()

    def calls(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for _path, node in self.root.walk():
            out[node.layer] += node.calls
        return out

    def self_times(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for _path, node in self.root.walk():
            out[node.layer] += node.total - node.child
        return out

    def paths(self) -> list:
        """The span tree aggregated by call path, for the trace file."""
        return [
            {
                "path": "/".join(path),
                "calls": node.calls,
                "total_s": node.total,
                "self_s": node.total - node.child,
            }
            for path, node in self.root.walk()
        ]
