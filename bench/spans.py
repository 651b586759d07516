"""Spans around calls into the library's public functions, for traced runs.

``install`` rebinds each traced public name in every ``quivex`` module
namespace that holds it (``expander.c_d_ceil``, ``cli.generic_subdims``,
the package's re-exports, ...), so calls between modules are timed too.
Class-level names (``QuadraticSurd.__init__``, the public ``Quiver``
methods) are patched on the class.  Spans stay in memory; a layer's self
time is its span's duration minus the spans nested inside it.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# spans kept for the spans file; aggregates always cover every span
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        # flat records: decision, name id, parent record (-1 for a root), start, end
        self.records = array("q")
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.decision = -1
        self._stack: list[list] = []  # [name, record index, start, child ns]

    def begin(self, name: str):
        parent = self._stack[-1][1] if self._stack else -1
        index = -1
        if len(self.records) < 5 * SPAN_CAP:
            index = len(self.records) // 5
            name_id = self.names.setdefault(name, len(self.names))
            self.records.extend((self.decision, name_id, parent, 0, 0))
        else:
            self.dropped += 1
        self._stack.append([name, index, perf_counter_ns(), 0])

    def end(self):
        now = perf_counter_ns()
        name, index, start, child = self._stack.pop()
        duration = now - start
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.records[5 * index + 3] = start
            self.records[5 * index + 4] = now

    def spans(self) -> dict:
        return {
            "fields": ["decision", "name", "parent", "start_ns", "end_ns"],
            "names": sorted(self.names, key=self.names.get),
            "records": self.records.tolist(),
            "dropped": self.dropped,
        }


def _timed(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if count is not None:
            count(args, kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _timed_generator(tracer: Tracer, name: str, fn):
    """Time the call and every step of the iterator it returns."""

    def steps(iterator):
        while True:
            tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end()
            tracer.counts[name + ".yielded"] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.begin(name)
        try:
            iterator = fn(*args, **kwargs)
        finally:
            tracer.end()
        return steps(iterator)

    return wrapper


def _batch_counter(tracer: Tracer, name: str):
    def count(args, kwargs):
        mats = args[0] if args else kwargs["mats"]
        tracer.counts[name + ".matrices"] += len(mats)

    return count


# module -> public functions whose spans carry the name module.function
FUNCTIONS = {
    "finfield": (
        "rref_mod",
        "batch_rank",
        "batch_rank_le",
        "is_expander_rep",
        "has_subrep_of_dim",
        "image_sum_dim",
        "random_rep",
    ),
    "schofield": ("generic_subdims", "embeds"),
    "kronecker": ("c_d_ceil", "c_d_exact"),
    "expander": ("expander_exists", "epsilon_m_alpha_delta", "theta_epsilon_supremum"),
    "cli": ("run",),
}
# quiver's public functions and Quiver methods share the one span name "quiver"
QUIVER_FUNCTIONS = (
    "make_kronecker",
    "euler_form",
    "symmetrized_form",
    "dominates",
    "unit_vector",
    "in_fundamental_domain",
    "parse_quiver",
    "load_quiver",
)
QUIVER_METHODS = ("check_dim", "topological_order")


def install(tracer: Tracer):
    """Wrap the traced names; return a function that restores the originals."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "quivex" or name.startswith("quivex."))
    ]
    lib = sys.modules["quivex"]
    replacements = {}  # id(original) -> (original, wrapper)

    def wrap(original, wrapper):
        replacements[id(original)] = (original, wrapper)

    for module, names in FUNCTIONS.items():
        mod = sys.modules[f"quivex.{module}"]
        for fname in names:
            span = f"{module}.{fname}"
            count = _batch_counter(tracer, span) if fname.startswith("batch_rank") else None
            original = getattr(mod, fname)
            wrap(original, _timed(tracer, span, original, count))
    finfield = sys.modules["quivex.finfield"]
    original = finfield.enumerate_subspaces
    wrap(original, _timed_generator(tracer, "finfield.enumerate_subspaces", original))
    quiver = sys.modules["quivex.quiver"]
    for fname in QUIVER_FUNCTIONS:
        original = getattr(quiver, fname)
        wrap(original, _timed(tracer, "quiver", original))

    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    surd_cls = lib.QuadraticSurd
    quiver_cls = lib.Quiver
    class_patches = [(surd_cls, "__init__", "surd.QuadraticSurd")]
    class_patches += [(quiver_cls, meth, "quiver") for meth in QUIVER_METHODS]
    for cls, attr, span in class_patches:
        original = cls.__dict__[attr]
        setattr(cls, attr, _timed(tracer, span, original))
        undo.append((cls, attr, original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
