"""Per-layer tracing from outside nestfold.

A Tracer wraps public functions of nestfold's modules and rebinds each name
in every nestfold module that imported it, so that nested calls (eval_map
calling eval_nfold inside runtime, say) become child spans.  A layer's self
time is its span minus the time of its child spans.  Spans are kept in
compact arrays in memory and written out once, when the run ends.

Very hot functions (subst_index, value_size, check_algebra) are only
counted: a span per call would cost more than the work it measures.  A
timed function that recurses through its own global name (render_value)
gets a span for the outermost call only, and a count for every call.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

#: Timed layers, as (module, function).
TIMED = (
    ("cli", "main"),
    ("parser", "parse_program"),
    ("parser", "parse_value_literal"),
    ("parser", "render_value"),
    ("analysis", "analyze"),
    ("analysis", "well_formed"),
    ("analysis", "enumerate_indices"),
    ("derivation", "derive_group"),
    ("emitter", "emit_agda"),
    ("properties", "run_suite"),
    ("properties", "check_equivalence"),
    ("properties", "check_map_identity"),
    ("properties", "check_map_composition"),
    ("properties", "check_hfold_conformance"),
    ("properties", "check_hfold_leaf"),
    ("properties", "check_hmap_agreement"),
    ("properties", "check_hmap_cons"),
    ("properties", "check_ind_agreement"),
    ("properties", "check_spine_fold_agreement"),
    ("properties", "check_call_counter"),
    ("runtime", "eval_nfold"),
    ("runtime", "eval_map"),
    ("runtime", "eval_ind"),
    ("runtime", "eval_nfold_prime"),
    ("runtime", "eval_hfold_via_nfold"),
    ("runtime", "eval_hfold_direct"),
    ("runtime", "eval_hmap_direct"),
    ("runtime", "enumerate_values"),
    ("runtime", "typecheck_value"),
)

#: Layers that are only counted.
COUNTED = (
    ("analysis", "subst_index"),
    ("parser", "value_size"),
    ("runtime", "check_algebra"),
)


def _nestfold_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "nestfold" or n.startswith("nestfold.")]


def _rebind(orig, new) -> list[tuple[object, str, object]]:
    """Point every nestfold module's binding of `orig` at `new`."""
    undo = []
    for m in _nestfold_modules():
        for attr, val in list(vars(m).items()):
            if val is orig:
                setattr(m, attr, new)
                undo.append((m, attr, orig))
    return undo


class EnumerationCounter:
    """Counts enumerate_values calls and the values they return.

    This is the only instrumentation of an untraced run: enumerate_values is
    called a few dozen to a few hundred times per suite, so the counter costs
    nothing measurable, and it records the suite's work with every run.
    """

    def __init__(self):
        self.values = 0
        self._undo: list = []

    def install(self) -> None:
        runtime = importlib.import_module("nestfold.runtime")
        orig = runtime.enumerate_values

        def counted(*args, **kw):
            out = orig(*args, **kw)
            self.values += len(out)
            return out

        self._undo = _rebind(orig, counted)

    def uninstall(self) -> None:
        for m, attr, orig in self._undo:
            setattr(m, attr, orig)
        self._undo = []


class Tracer:
    """Self time and calls per layer, work counts, and every span."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # work counts: cases, defs, bytes, values
        self.requests: set = set()  # distinct enumerate_values requests
        self.op = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._sp = {k: array(t) for k, t in (("id", "q"), ("parent", "q"), ("op", "I"), ("name", "I"))}
        self._start = array("d")
        self._end = array("d")
        self._next_id = 0
        self._open: list[list] = []  # [span id, child seconds] per open span
        self._active: Counter = Counter()
        self._undo: list = []
        self.t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._open.append([self._next_id, 0.0])
        self._next_id += 1
        return time.perf_counter()

    def _exit(self, name: str, t_start: float) -> None:
        t_end = time.perf_counter()
        sid, child = self._open.pop()
        dur = t_end - t_start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += dur
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._sp["id"].append(sid)
        self._sp["parent"].append(self._open[-1][0] if self._open else -1)
        self._sp["op"].append(self.op)
        self._sp["name"].append(nid)
        self._start.append(t_start - self.t0)
        self._end.append(t_end - self.t0)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around one benchmark operation; its spans share an op id."""
        self.op += 1
        t = self._enter()
        try:
            yield
        finally:
            self._exit(name, t)

    # -- wrapping ------------------------------------------------------------

    def _timed(self, module: str, fn: str, orig):
        name = f"{module}.{fn}"
        on_result = self._result_hook(module, fn)

        def wrapper(*args, **kw):
            if self._active[name]:
                self.calls[name] += 1
                return orig(*args, **kw)
            self._active[name] += 1
            t = self._enter()
            layer = name
            try:
                out = orig(*args, **kw)
                if on_result is not None:
                    layer = on_result(args, out) or name
                return out
            finally:
                self._active[name] -= 1
                self._exit(layer, t)

        return wrapper

    def _counted(self, module: str, fn: str, orig):
        name = f"{module}.{fn}"
        calls = self.calls

        def wrapper(*args, **kw):
            calls[name] += 1
            return orig(*args, **kw)

        return wrapper

    def _result_hook(self, module: str, fn: str):
        """Work counts taken from a layer's results; a property check's span
        is named after the property it ran."""
        if module == "properties" and fn.startswith("check_"):

            def prop(args, result):
                self.counts[f"properties.{result.name}_cases"] += result.cases
                return f"properties.{result.name}"

            return prop
        if fn == "enumerate_values":

            def enum(args, result):
                ctx, idx, _pool, max_size = args
                self.counts["runtime.values_enumerated"] += len(result)
                self.requests.add((ctx.name, idx, max_size))

            return enum
        if fn == "derive_group":
            return lambda args, result: self.counts.update({"derivation.defs": len(result.defs)})
        if fn == "emit_agda":
            return lambda args, result: self.counts.update({"emitter.bytes": len(result.encode())})
        return None

    def install(self) -> None:
        for module, fn in TIMED + COUNTED:
            home = importlib.import_module(f"nestfold.{module}")
            orig = getattr(home, fn)
            make = self._timed if (module, fn) in TIMED else self._counted
            self._undo += _rebind(orig, make(module, fn, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo = []

    # -- output --------------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self._start)

    def write(self, path: Path) -> None:
        """Write every span: op, id, parent, layer, start and end seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tid\tparent\tlayer\tstart_s\tend_s\n")
            sp, names = self._sp, self._names
            for k in range(len(self._start)):
                f.write(
                    f"{sp['op'][k]}\t{sp['id'][k]}\t{sp['parent'][k]}\t"
                    f"{names[sp['name'][k]]}\t{self._start[k]:.9f}\t{self._end[k]:.9f}\n"
                )
