"""Span recording around boolelab's public functions, from outside.

``Tracer.installed()`` replaces every public function of the layer
modules with a recording wrapper, under every name that binds it: the
defining module, the package namespace and each module that imported
it (``boolelab.derivation.unexpand``, ``boolelab.cli.normalize``, ...).
That is what separates a function's self time from the calls it makes
into other layers.  Leaving the block restores the originals.

A span holds name, start, end, busy time, parent span, item id and the
time its child spans covered; self time is busy minus child time.
Generator functions get one span whose busy time counts only the time
spent inside the generator, not the consumer's time between yields.
Recursion is not re-recorded.  Functions called too often to keep a
span each (``FOLDED``) add their time to their parent and to a
per-name total instead; calls made inside them are not recorded.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = (
    "terms",
    "problems",
    "horn",
    "polynomial",
    "derivation",
    "classes",
    "algebra",
    "models",
    "cli",
)

FOLDED = frozenset(
    {
        "algebra.eval_term",
        "classes.subset_name",
        "horn.equation_variables",
        "polynomial.constituent",
        "terms.variables",
    }
)


class _Frame:
    __slots__ = ("sid", "name", "start", "busy", "child", "parent", "item", "folded")

    def __init__(self, sid, name, parent, item, folded):
        self.sid = sid
        self.name = name
        self.start = None
        self.busy = 0.0
        self.child = 0.0
        self.parent = parent
        self.item = item
        self.folded = folded


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, name, start, end, busy, child, parent, item)
        self.folded: dict[str, list] = {}  # name -> [seconds, calls]
        self.stack: list[_Frame] = []
        self.item = None
        self._next_sid = 1

    # -------------------------------------------------------- recording

    def _open(self, name) -> _Frame | None:
        stack = self.stack
        if stack and (stack[-1].folded or stack[-1].name == name):
            return None
        parent = stack[-1].sid if stack else None
        sid = self._next_sid
        self._next_sid += 1
        return _Frame(sid, name, parent, self.item, name in FOLDED)

    def _enter(self, frame: _Frame) -> float:
        self.stack.append(frame)
        t = perf_counter()
        if frame.start is None:
            frame.start = t
        return t

    def _leave(self, frame: _Frame, t0: float) -> float:
        t1 = perf_counter()
        self.stack.pop()
        dt = t1 - t0
        frame.busy += dt
        if self.stack:
            self.stack[-1].child += dt
        return t1

    def _close(self, frame: _Frame, end: float) -> None:
        if frame.folded:
            total = self.folded.setdefault(frame.name, [0.0, 0])
            total[0] += frame.busy
            total[1] += 1
        else:
            self.spans.append(
                (frame.sid, frame.name, frame.start, end, frame.busy, frame.child,
                 frame.parent, frame.item)
            )

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                frame = self._open(name)
                if frame is None:
                    return fn(*args, **kwargs)
                return self._traced_generator(frame, fn(*args, **kwargs))

            wrapper = generator_wrapper
        else:
            def function_wrapper(*args, **kwargs):
                frame = self._open(name)
                if frame is None:
                    return fn(*args, **kwargs)
                t0 = self._enter(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame, self._leave(frame, t0))

            wrapper = function_wrapper
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _traced_generator(self, frame, gen):
        end = None
        try:
            while True:
                t0 = self._enter(frame)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    end = self._leave(frame, t0)
                yield value
        finally:
            gen.close()
            if frame.start is not None:
                self._close(frame, end)

    # ------------------------------------------------------ installation

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "boolelab" or n.startswith("boolelab."))]
        replaced = []
        for layer in LAYERS:
            module = sys.modules[f"boolelab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            replaced.append((m, key, fn))
        try:
            yield self
        finally:
            for m, key, fn in reversed(replaced):
                setattr(m, key, fn)

    # ---------------------------------------------------------- output

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "busy", "child", "parent", "item")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
            for name, (seconds, calls) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "busy": seconds, "calls": calls}) + "\n")
