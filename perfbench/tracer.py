"""Outside-in tracing of the replalg layers.

The tracer rebinds public functions and a few hot methods with wrappers
that record one span per call: (name, start, end, parent).  Nothing in
``src/`` is edited; a wrapped function is replaced in every ``replalg.*``
module namespace that imported it, and a wrapped method on its class.

Spans stay in memory while the pass runs.  ``summary()`` derives per-name
call counts, inclusive time (outermost activation only, so recursion is
not counted twice) and self time (span minus its child spans), and
``dump()`` writes the span list as JSON after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# The layers are the modules of src/replalg, outermost first.
LAYERS = ("cli", "verify", "replicated", "quiver", "algebra", "modules", "homology", "linalg")

# Methods worth a span of their own, with their span names; everything
# public at module level is wrapped anyway.  Methods called millions of
# times (RatMatrix.__matmul__, ModuleRep.action) are left out: the wrapper
# would dominate them.
METHODS = {
    ("algebra", "AlgebraData", "__init__"): "algebra.AlgebraData.init",
    ("algebra", "AlgebraData", "radical_basis"): "algebra.radical_basis",
    ("algebra", "AlgebraData", "ensure_split_basic"): "algebra.ensure_split_basic",
    ("linalg", "RatMatrix", "rref"): "linalg.rref",
    ("linalg", "RatMatrix", "kernel_basis"): "linalg.kernel_basis",
    ("linalg", "RatMatrix", "solve"): "linalg.solve",
    ("linalg", "RatMatrix", "inverse"): "linalg.inverse",
    ("linalg", "EchelonSpace", "add"): "linalg.EchelonSpace.add",
}

# Functions whose arguments are recorded, for a distinct-argument ratio.
DISTINCT = {
    "modules.projective_cover", "modules.injective_envelope",
    "modules.is_injective_module", "modules.is_projective_module",
    "homology.cosyzygy", "replicated.build_replicated",
}

# Functions whose "found" ratio (share of calls returning non-None) is kept.
FOUND = {"homology.is_isomorphic"}

_PLAIN = (int, str, float, bool, type(None))


def _arg_key(args, kwargs):
    """Key of one call's arguments: values for plain data, id() otherwise."""
    parts = [a if isinstance(a, _PLAIN) else ("id", id(a)) for a in args]
    parts += [(k, v if isinstance(v, _PLAIN) else ("id", id(v))) for k, v in sorted(kwargs.items())]
    return tuple(parts)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, start, end, parent span index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.arg_keys: dict[str, set] = {}
        # argument objects are held so that id() cannot be reused mid-run
        self._held: list = []
        self.found: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        rec = [self._name_id(name), perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        keys = self.arg_keys.setdefault(name, set()) if name in DISTINCT else None
        held = self._held
        found = name in FOUND
        if found:
            self.found[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
                held.append((args, kwargs))
            idx = len(spans)
            rec = [nid, perf_counter(), 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if found and result is not None:
                self.found[name] += 1
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer and the METHODS above."""
        mods = {layer: importlib.import_module(f"replalg.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "replalg" or n.startswith("replalg.")) and m is not None]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-name calls, inclusive seconds and self seconds, from the span tree."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = [{"calls": 0, "s": 0.0, "self_s": 0.0} for _ in self.names]
        # Spans are stored in start order, so the open ones form a stack.  A
        # span adds to inclusive time only when no open ancestor has its name.
        active: list[int] = []
        open_count = [0] * len(self.names)
        for i, (nid, start, end, parent) in enumerate(spans):
            while active and active[-1] != parent:
                open_count[spans[active.pop()][0]] -= 1
            st = stats[nid]
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
            if not open_count[nid]:
                st["s"] += end - start
            active.append(i)
            open_count[nid] += 1
        stats = dict(zip(self.names, stats))
        for name, keys in self.arg_keys.items():
            calls = stats[name]["calls"]
            stats[name]["distinct_ratio"] = len(keys) / calls if calls else 0.0
        for name, hits in self.found.items():
            calls = stats[name]["calls"]
            stats[name]["found_ratio"] = hits / calls if calls else 0.0
        return stats

    def dump(self, path: str) -> None:
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent], ...]}."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")

