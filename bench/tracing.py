"""Spans around the calls into each hypobgk module's public functions.

``Tracer.install`` replaces every binding of a public function of the
package modules with a wrapper that records one span per call.  A
binding is a module global (``hypobgk.cli.certify``,
``hypobgk.index.complex_eigenvalues``, ``hypobgk.sim.gauss_hermite``)
or a value of a module-level dict, so a call is seen at the name its
caller resolves.  All bindings of one function share one span name,
``<module>.<function>`` after the module that defines it.

Spans are kept in memory as ``[name, start, end, parent, work, failed]``
lists and summarised or written out after the run.  Nothing in the
package itself is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

#: the package modules, which are the layers of the benchmark
LAYERS = ("hermite", "operators", "index", "ansatz", "certificate", "gap", "sim", "cli")

#: per-span statistics; ``name.stat`` is a per-layer metric
STATS = ("calls", "busy_s", "self_s", "work_n3", "errors")


class MissingTargets(LookupError):
    """A traced function no longer exists under its recorded name."""


def _eig_work(args, kwargs):
    """n**3 for the square matrix handed to ``gap.complex_eigenvalues``."""
    M = args[0] if args else kwargs["M"]
    return len(M) ** 3


#: work counters computed from argument shapes, exact from run to run
WORK = {"gap.complex_eigenvalues": _eig_work}


def _modules():
    return {name: importlib.import_module(f"hypobgk.{name}") for name in LAYERS}


def missing(names) -> list:
    """The ``module.function`` names that do not resolve to a function."""
    mods = _modules()
    out = []
    for name in names:
        layer, _, fn = name.partition(".")
        if layer not in mods or not inspect.isfunction(getattr(mods[layer], fn, None)):
            out.append(name)
    return out


class Tracer:
    """Records a span for every call into a public package function."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._open, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            if work is not None:
                span[4] = work(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, required=()) -> None:
        """Wrap every binding of every public function of the layers.

        Raises :class:`MissingTargets` naming each entry of ``required``
        that does not resolve, so a renamed function is never skipped.
        """
        absent = missing(required)
        if absent:
            raise MissingTargets("traced functions not found: " + ", ".join(absent))
        mods = _modules()
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module("hypobgk"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrappers:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            table, key, obj = self._restore.pop()
            table[key] = obj

    def summary(self) -> dict:
        """Per-function statistics keyed ``name.stat`` (see :data:`STATS`).

        ``busy_s`` is the time covered by the function's outermost
        spans, ``self_s`` the span time not covered by child spans.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, parent, work, failed) in enumerate(spans):
            dur = end - start
            for stat, val in (
                ("calls", 1),
                ("self_s", dur - child_s[i]),
                ("work_n3", work),
                ("errors", int(failed)),
            ):
                out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + val
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + dur
        return out

    def write(self, path) -> None:
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "work": w, "failed": f}
            for n, s, e, p, w, f in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
