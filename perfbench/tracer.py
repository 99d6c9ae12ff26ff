"""In-process spans at the public boundaries of treeirr's layers.

``Tracer.install`` wraps, from outside the program, every public function
of the layer modules plus ``Tree.__init__`` and the three kernels. Each
wrapped object is replaced under every name it has in every ``treeirr``
module, because ``claims`` and ``enumeration`` import layer functions by
name. The kernels are wrapped through the ``treeirr._kernels`` attributes
that ``tree``, ``indices`` and ``enumeration`` look up at call time.

A span covers one call. A generator is timed across every ``next`` on it,
so its span counts the work wherever it happens; the two enumerators do
all of theirs before the first item. ``verify`` opens a span named after
the claim it runs (``claims.<claim-id>``). Spans are aggregated in memory
by call path and read out when the pass ends; nothing is written while
the pass runs.

Self time is a span's length minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Layer modules and the prefix their spans carry.
LAYERS = {
    "treeirr._kernels": "kernels",
    "treeirr.tree": "tree",
    "treeirr.enumeration": "enumeration",
    "treeirr.degseq": "degseq",
    "treeirr.indices": "indices",
    "treeirr.edgelist": "edgelist",
    "treeirr.claims": "claims",
}
KERNELS = ("level_sequences", "canon_code", "index_bundle")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, path, start, covered by children]
        self.paths: dict[tuple[str, ...], list] = {}  # path -> [calls, seconds, self seconds]
        self.items: dict[str, int] = {}  # generator -> items yielded
        self.root_s = 0.0  # time covered by spans with no parent
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> list:
        path = self.stack[-1][1] + (name,) if self.stack else (name,)
        frame = [name, path, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def close(self, frame: list, new_call: bool = True) -> None:
        duration = perf_counter() - frame[2]
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.root_s += duration
        stat = self.paths.get(frame[1])
        if stat is None:
            stat = self.paths[frame[1]] = [0, 0.0, 0.0]
        stat[0] += new_call
        stat[1] += duration
        stat[2] += duration - frame[3]

    def summary(self) -> dict:
        """Per-name calls, seconds and self seconds; per-path detail.

        A name's seconds count only its outermost spans, so a name nested
        inside itself is not counted twice.
        """
        names: dict[str, list] = {}
        for path, (calls, seconds, self_s) in self.paths.items():
            stat = names.setdefault(path[-1], [0, 0.0, 0.0])
            stat[0] += calls
            if path[-1] not in path[:-1]:
                stat[1] += seconds
            stat[2] += self_s
        return {
            "names": {k: {"calls": c, "s": s, "self_s": x} for k, (c, s, x) in names.items()},
            "paths": [
                {"path": list(p), "calls": c, "s": s, "self_s": x}
                for p, (c, s, x) in sorted(self.paths.items())
            ],
            "items": dict(self.items),
            "root_s": self.root_s,
            "open_spans": len(self.stack),
        }

    # -- wrappers ------------------------------------------------------

    def _function(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def _generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                frame = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(frame, new_call=first)
                    first = False
                self.items[name] = self.items.get(name, 0) + 1
                yield item

        return traced

    def _verify(self, fn):
        @functools.wraps(fn)
        def traced(claim_id, *args, **kwargs):
            frame = self.open(f"claims.{claim_id}")
            try:
                return fn(claim_id, *args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def _wrap(self, name: str, fn):
        if name == "claims.verify":
            return self._verify(fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        return self._function(name, fn)

    # -- install -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; ``uninstall`` restores the originals."""
        wrapped: dict[int, tuple[object, object]] = {}
        for module_name, prefix in LAYERS.items():
            module = sys.modules[module_name]
            if module_name == "treeirr._kernels":
                names = KERNELS
            else:
                names = [
                    k
                    for k, v in vars(module).items()
                    if not k.startswith("_")
                    and inspect.isfunction(v)
                    and v.__module__ == module_name
                ]
            for k in names:
                fn = getattr(module, k)
                wrapped[id(fn)] = (fn, self._wrap(f"{prefix}.{k}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "treeirr" and not module_name.startswith("treeirr."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        tree_cls = sys.modules["treeirr.tree"].Tree
        self._undo.append((tree_cls, "__init__", tree_cls.__init__))
        tree_cls.__init__ = self._function("tree.Tree", tree_cls.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
