"""In-memory spans around the public calls into each eulerhall module.

``Tracer.install`` replaces every public function and public method of
the instrumented modules with a wrapper that records a span (name,
start, end, parent, op) in memory.  A call from inside the same module
records no span, so helpers called in hot loops (``nu`` inside
``alpha``) cost one frame lookup rather than one span each; ``cli`` is
the top layer and records every call.  ``uninstall`` restores the
originals, and ``write`` saves the spans as JSON lines.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from enum import Enum

MODULES = ("cli", "bundles", "ring", "matching", "obstruction", "dynamics", "sweep", "_kernels")
# Private helpers that the per-layer metrics name (load and emit).
PRIVATE = {"cli": ("_load_family", "_emit")}


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans = []  # [name, start, end, parent index, op id]
        self.op = None
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, self.now(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.now()
            self._stack.pop()

    def _wrap(self, fn, name, module, always):
        call = self.call

        def wrapper(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            return call(name, fn, *args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}  # id(original function) -> wrapper
        modules = [importlib.import_module(f"eulerhall.{short}") for short in MODULES]
        for short, mod in zip(MODULES, modules):
            always = short == "cli"
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in PRIVATE.get(short, ())
                ):
                    wrapper = self._wrap(obj, f"{short}.{attr}", mod.__name__, always)
                    wrapped[id(obj)] = wrapper
                elif (
                    inspect.isclass(obj)
                    and not attr.startswith("_")
                    and not issubclass(obj, Enum)
                ):
                    for name, member in list(vars(obj).items()):
                        if name.startswith("_"):
                            continue
                        label = f"{short}.{obj.__name__}.{name}"
                        if isinstance(member, classmethod):
                            fn = self._wrap(member.__func__, label, mod.__name__, always)
                            self._set(obj, name, classmethod(fn))
                        elif inspect.isfunction(member):
                            self._set(obj, name, self._wrap(member, label, mod.__name__, always))
        # Rebind every reference the modules hold, including names imported
        # with ``from x import f`` and the cli's command table.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op,
                }) + "\n")

    def totals(self):
        """Seconds and calls per span name."""
        seconds, calls = {}, {}
        for name, start, end, _, _ in self.spans:
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def coverage(self, root):
        """Share of the time of ``root`` spans covered by the calls its command makes.

        The command span is the child of ``cli.main`` named ``cli.cmd_*``;
        its children are the named layer calls.  What they leave out is
        argument parsing and the command's own glue.
        """
        children = {}
        for index, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(index)
        total = covered = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != root:
                continue
            total += span[2] - span[1]
            stack = list(children.get(index, ()))
            while stack:
                i = stack.pop()
                name = self.spans[i][0]
                if name.startswith("cli.cmd_"):
                    for c in children.get(i, ()):
                        covered += self.spans[c][2] - self.spans[c][1]
                elif name.startswith("cli."):
                    stack.extend(children.get(i, ()))
        return covered / total if total else 0.0
