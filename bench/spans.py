"""In-memory spans and counters around calls into hinge's public functions.

install() swaps each traced function for a wrapper in every hinge module
that references it, and returns a function that puts the originals back.
Nothing in the library is edited; with the wrappers removed, the library
runs exactly as shipped.  Spans nest in the library's own call order and
are kept in compact arrays until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Span name -> (module, attribute).  Each is wrapped wherever it is referenced.
FUNCTIONS = {
    "bihinge.chi": ("bihinge", "chi"),
    "bihinge.check_axioms": ("bihinge", "check_axioms"),
    "bihinge.dimension_matrix": ("bihinge", "dimension_matrix"),
    "bihinge.normalize": ("bihinge", "normalize"),
    "lpu.lpu": ("lpu", "lpu"),
    "lpu.canonical_01": ("lpu", "canonical_01"),
    "serialize.load_problem": ("serialize", "load_problem"),
    "serialize.cell_records": ("serialize", "cell_records"),
    "serialize.dumps_json": ("serialize", "dumps_json"),
    "enumeration.predicted_count": ("enumeration", "predicted_coset_count"),
    "selfcheck.run": ("selfcheck", "run_selfcheck"),
    "selfcheck.completeness": ("selfcheck", "check_completeness"),
    "selfcheck.stabilizers": ("selfcheck", "check_stabilizers"),
}
# Span name -> (module, attribute), wrapped only in that module's namespace,
# because the same function serves another layer elsewhere.
LOCAL = {
    "enumeration.closure": ("enumeration", "_partition_labels"),
    "selfcheck.completeness.closure": ("selfcheck", "_partition_labels"),
}
METHODS = {
    "relations.derived": ("relations", "LinearRelation", ("ker", "dom", "im", "indef")),
    "relations.theta": ("relations", "LinearRelation", ("theta",)),
}


class Tracer:
    """Spans (name, op, parent, start, end) and per-op counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.current_op = -1
        self.counts = defaultdict(int)  # (op, counter name) -> total

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, n: int = 1):
        self.counts[self.current_op, counter] += n

    def per_op(self) -> dict:
        """op -> {name: [self seconds, inclusive seconds]}, counters merged in as {name: n}."""
        total = len(self.name)
        child = [0.0] * total
        dur = [self.end[k] - self.start[k] for k in range(total)]
        for k in range(total):
            if self.parent[k] >= 0:
                child[self.parent[k]] += dur[k]
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for k in range(total):
            acc = out[self.op[k]][self.names[self.name[k]]]
            acc[0] += dur[k] - child[k]
            acc[1] += dur[k]
        for (op, counter), n in self.counts.items():
            out[op][counter] = n
        return out


def _span(tracer: Tracer, name: str, fn, after=None, when=None):
    """Wrap fn in a span.  after(result), run inside the span, may count
    and returns what the call returns; when(*args) false skips the span."""

    def traced(*args, **kwargs):
        if when is not None and not when(*args):
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            return after(result) if after else result
        finally:
            tracer.finish(idx)

    return traced


def _hinge_modules() -> list:
    return [m for k, m in sys.modules.items() if (k == "hinge" or k.startswith("hinge.")) and m]


def install(tracer: Tracer):
    """Wrap the traced layers; return a function that restores the originals."""
    mods = {m.__name__.rpartition(".")[2]: m for m in _hinge_modules()}
    undo = []

    def swap(module, attr, new):
        undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def swap_everywhere(original, new):
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is original:
                    swap(m, attr, new)

    for name, (mod, attr) in LOCAL.items():
        swap(mods[mod], attr, _span(tracer, name, getattr(mods[mod], attr)))
    for name, (mod, attr) in FUNCTIONS.items():
        original = getattr(mods[mod], attr)
        swap_everywhere(original, _span(tracer, name, original))
    for name, (mod, cls_name, attrs) in METHODS.items():
        cls = getattr(mods[mod], cls_name)
        for attr in attrs:
            swap(cls, attr, _span(tracer, name, getattr(cls, attr)))

    # Only a table's build is a span; later calls return the cached table.
    field_cls = mods["field"].PrimeField
    swap(field_cls, "inv_table",
         _span(tracer, "field.inv_table", field_cls.inv_table, when=lambda field: field._inv is None))

    def drain(elements):  # inside the span, so it covers the whole enumeration
        items = list(elements)
        tracer.add("enumeration.gl_elements", len(items))
        return iter(items)

    enum_gl = mods["enumeration"].enum_gl
    swap_everywhere(enum_gl, _span(tracer, "enumeration.enum_gl", enum_gl, after=drain))

    chi_cell = mods["bihinge"].chi_cell

    def counted(counter):
        def wrapper(*args, **kwargs):
            tracer.add(counter)
            return chi_cell(*args, **kwargs)

        return wrapper

    swap(mods["bihinge"], "chi_cell", counted("bihinge.cells"))
    swap(mods["selfcheck"], "chi_cell", counted("selfcheck.completeness.chi_cell_calls"))

    def count_ids(ids):
        tracer.add("selfcheck.completeness.cell_ids", int(ids.max()) + 1 if ids.size else 0)
        return ids

    swap(mods["selfcheck"], "_grid_cell_ids",
         _span(tracer, "selfcheck.completeness.cell_intern", mods["selfcheck"]._grid_cell_ids, after=count_ids))

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore
