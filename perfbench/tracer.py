"""Span tracer for the benchmark's traced runs.

The tracer wraps every public function of each pamsort layer (a module of
the package) from the outside: it replaces the function object under
every name that binds it, in the defining module, in the other pamsort
modules that imported it by name and in the package namespace.  Callers
such as ``pamsort.machine._must_pop`` therefore hit the wrapper of
``pamsort.patterns.contains_classical`` without any change to the
library.

Each call becomes a span (name, start, end, parent) kept in flat arrays
in memory; spans that the benchmark opens around one job are the roots,
so the spans of one job share that root.  A layer's self time is the sum,
over its spans, of the span's duration minus the durations of its direct
child spans.  Generator functions get one span per resumption.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

LAYERS = ("words_core", "patterns", "machine", "oracles", "enumeration",
          "paths_trees", "bijections", "cli")
BENCH_LAYER = "bench"


class Tracer:
    """Records spans of wrapped library calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.raised: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._restore: list[tuple[ModuleType, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.raised.append(0)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, label: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` under a root span of the benchmark's own layer."""
        sid = self._open(self._name_id(f"{BENCH_LAYER}.{label}", BENCH_LAYER))
        try:
            return call()
        finally:
            self._close(sid)

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        nid = self._name_id(f"{layer}.{fn.__name__}", layer)
        tracer = self

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(nid)
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                        except BaseException:
                            tracer.raised[nid] += 1
                            raise
                        finally:
                            tracer._close(sid)
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                tracer._close(sid)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of every layer of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(prefix))]
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                # unwrap so that lru_cache-decorated functions count too
                target = inspect.unwrap(obj) if callable(obj) else obj
                if (not name.startswith("_") and inspect.isfunction(target)
                        and target.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        """Number of spans of the function ``layer.function``."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def raised_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.raised[nid]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time in seconds."""
        n = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        covered = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = {layer: {"calls": 0, "self_ns": 0}
                  for layer in LAYERS + (BENCH_LAYER,)}
        for i in range(n):
            t = totals[self.layer_of[names[i]]]
            t["calls"] += 1
            t["self_ns"] += ends[i] - starts[i] - covered[i]
        return {layer: {"calls": t["calls"], "self_s": t["self_ns"] / 1e9}
                for layer, t in totals.items()}

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the four arrays
        (name id int32, parent int32, start int64 ns, end int64 ns) in
        native byte order, each ``count`` items long."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "layers": self.layer_of,
                  "count": len(self.span_start),
                  "arrays": ["name:i4", "parent:i4", "start_ns:i8",
                             "end_ns:i8"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(f)
