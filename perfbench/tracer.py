"""Layer tracing for the benchmark.

The tracer wraps the library's public functions at every module attribute
that binds them (``lorentzcc.verify.motion_apply`` and ``lorentzcc.motion.apply``
are the same function, so both names get the wrapper), and the methods on
their classes.  Hot inner calls are folded into per-function counts and self
time; only the outer spans the benchmark opens (one per check, query or
request) are kept as records, so the trace stays small.  Nothing is written
until :meth:`Tracer.write`.

Self time of a call is its duration minus the time spent in wrapped calls
made from inside it.  The tracer's own bookkeeping lands in the caller's self
time; the benchmark reports the total cost as traced minus untraced wall time.

While :meth:`Tracer.paused` is active the wrappers call straight through and
count nothing, so the benchmark's own correctness checks, which call the
library too, stay out of the layer figures.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self, geometry_error: type[Exception]):
        self._geometry_error = geometry_error
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, int] = {}  # extra work counters
        self.spans: list[dict] = []  # outer spans only
        self._stack: list[float] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        geometry_error = self._geometry_error
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except geometry_error as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def span(self, name: str, request: int) -> "_Span":
        """Outer span around one call into the library from the benchmark."""
        return _Span(self, name, request)

    @contextlib.contextmanager
    def paused(self):
        """Stop counting wrapped calls until the block ends."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation ------------------------------------------------------

    def wrap_function(self, name: str, fn, on_return=None, on_raise=None) -> None:
        """Replace ``fn`` wherever a ``lorentzcc`` module binds it."""
        traced = self._wrap(name, fn, on_return, on_raise)
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lorentzcc" or key.startswith("lorentzcc."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def wrap_method(self, name: str, cls, attr: str) -> None:
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Every exact count: calls per traced name plus the work counters."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counts)
        return out

    def top_span_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["functions"] = {
            name: {"calls": s[0], "self_s": s[1]} for name, s in sorted(self.stats.items())
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


class _Span:
    """One outer span; its interval includes the tracer's own bookkeeping."""

    __slots__ = ("tracer", "record", "t0")

    def __init__(self, tracer: Tracer, name: str, request: int):
        self.tracer = tracer
        self.t0 = perf_counter()
        open_spans = tracer._open_spans
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "request": request,
            "parent": open_spans[-1] if open_spans else None,
        }

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._open_spans.append(self.record["id"])
        tracer._stack.append(0.0)

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        child = tracer._stack.pop()
        tracer._open_spans.pop()
        t1 = perf_counter()
        dt = t1 - self.t0
        stats = tracer.stats.setdefault(self.record["name"], [0, 0.0])
        stats[0] += 1
        stats[1] += dt - child
        if tracer._stack:
            tracer._stack[-1] += dt
        self.record.update(start=self.t0, end=t1, self_s=dt - child)
