"""Host-time recorder for the traced pass: per-layer spans and self time.

The recorder measures the simulator from outside.  :meth:`Recorder.install`
replaces every method of every class defined in the layer modules listed in
:data:`LAYERS` with a timing wrapper; :meth:`Recorder.uninstall` puts the
originals back, so the untraced pass runs the unmodified program.

- A plain method is one span: wall time from call to return.
- A generator method returns a :class:`TimedGen` proxy, and every resume of
  the generator (``send``/``throw``) is one span.  Time the generator spends
  suspended is nobody's.

Each span records its name, start, end, parent span and op id.  Self time is
computed as each span closes: its duration minus the durations of the spans
nested directly inside it.  Root-level time outside every span is charged to
``other`` (the benchmark's own code), so the per-layer self times add up to
the wall time of the traced region exactly.

Spans are kept in memory up to ``span_cap`` and written out as JSON lines
when the run ends; self time is accumulated for every span, kept or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
from time import perf_counter
from typing import Dict, List, Optional

#: Layer name -> module prefixes whose classes belong to it.  The first
#: matching prefix wins, so the more specific ``repro.sim.*`` entries come
#: before ``repro.sim``.  ``repro.sim.shard.cluster`` holds the HDFS-style
#: DataNode protocol and client streams, so it is billed to ``apps``.
LAYERS = [
    ("fastforward", ("repro.sim.fastforward",)),
    ("apps", ("repro.apps", "repro.sim.shard.cluster")),
    ("shard", ("repro.sim.shard",)),
    ("sim", ("repro.sim",)),
    ("devices", ("repro.devices",)),
    ("block", ("repro.block",)),
    ("schedulers", ("repro.schedulers", "repro.core")),
    ("writeback", ("repro.cache.writeback",)),
    ("cache", ("repro.cache",)),
    ("fs", ("repro.fs",)),
    ("syscall", ("repro.syscall", "repro.proc")),
    ("vfs", ("repro.vfs",)),
    ("obs", ("repro.obs",)),
]

#: Every layer a self time is reported for, ``other`` last.
LAYER_NAMES = [name for name, _prefixes in LAYERS] + ["other"]
OTHER = len(LAYER_NAMES) - 1
SIM = LAYER_NAMES.index("sim")

#: Span names whose individual durations are kept (for percentiles).
SAMPLED = ("DriverPump.run",)


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro`` module is billed to, or None (``other``)."""
    for name, prefixes in LAYERS:
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return name
    return None


def layer_modules() -> List[str]:
    """Import and list every module that belongs to some layer."""
    import repro

    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__") or layer_of(info.name) is None:
            continue
        importlib.import_module(info.name)
        names.append(info.name)
    return names


class Patches:
    """Attribute swaps on classes, undone newest first."""

    def __init__(self):
        self._saved: List = []

    def patch(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            cls, attr, value = self._saved.pop()
            setattr(cls, attr, value)


class Recorder:
    """Span stack, per-layer self time, and the kept span records."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.active = False
        self.patches = Patches()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (spans, self times, samples)."""
        #: Open frames: [layer, start, child_time, span_id, op_id].
        self.stack: List[list] = []
        self.self_time = [0.0] * len(LAYER_NAMES)
        self.spans: List[tuple] = []
        self.span_count = 0
        self.next_op = 1
        # Cleared in place: the wrappers hold these lists.
        for values in self.samples.values():
            values.clear()
        self.counts: Dict[str, int] = {}
        self.started = perf_counter()

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return index

    def current_op(self) -> int:
        """The op id new work inherits: the caller's, or a fresh one at
        the root, in the kernel, or in benchmark code."""
        stack = self.stack
        if stack and stack[-1][0] not in (SIM, OTHER):
            return stack[-1][4]
        op = self.next_op
        self.next_op += 1
        return op

    def enter(self, layer: int, op: Optional[int] = None) -> list:
        self.span_count += 1
        if op is None:
            op = self.current_op()
        frame = [layer, perf_counter(), 0.0, self.span_count, op]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, name_id: int) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        self.self_time[frame[0]] += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((
                frame[3], name_id, frame[1], end,
                parent[3] if parent is not None else 0, frame[4],
            ))
        return duration

    # -- wrappers ---------------------------------------------------------------

    def wrap_function(self, func, layer: int, qualname: str):
        name_id = self._name_id(qualname)
        recorder = self
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                return TimedGen(recorder, func(*args, **kwargs), layer, name_id,
                                recorder.current_op())

            return gen_wrapper
        sample = self.samples.get(qualname)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(layer)
            try:
                return func(*args, **kwargs)
            finally:
                duration = recorder.leave(frame, name_id)
                if sample is not None:
                    sample.append(duration)

        return wrapper

    def client(self, gen, name: str):
        """Bill a benchmark-owned generator's resumes to ``other``."""
        if not self.active:
            return gen
        return TimedGen(self, gen, OTHER, self._name_id(name), None)

    def install(self) -> None:
        """Wrap every method of every class in the layer modules."""
        if self.active:
            return
        for module_name in layer_modules():
            layer = LAYER_NAMES.index(layer_of(module_name))
            module = importlib.import_module(module_name)
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != module_name:
                    continue
                if issubclass(cls, (tuple, BaseException)):
                    continue  # records and exceptions: no behaviour to time
                self._wrap_class(cls, layer)
        self.reset()
        self.active = True

    def _wrap_class(self, cls, layer: int) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self.wrap_function(value.__func__, layer, qualname))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self.wrap_function(value.__func__, layer, qualname))
            elif inspect.isfunction(value):
                wrapped = self.wrap_function(value, layer, qualname)
            else:
                continue
            self.patches.patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        self.patches.restore()
        self.active = False

    # -- results ----------------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def export(self) -> Dict:
        """A copy of the tallies of the traced repeat."""
        return {
            "self_time": list(self.self_time),
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }

    def close_root(self) -> float:
        """Charge root-level time since :meth:`reset` to ``other``.

        Returns the wall time of the traced region; afterwards the layer
        self times sum to it exactly (up to float rounding).
        """
        wall = perf_counter() - self.started
        covered = sum(self.self_time)
        self.self_time[OTHER] += wall - covered
        return wall

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as out:
            for span_id, name_id, start, end, parent, op in self.spans:
                name = self._names[name_id]
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


class TimedGen:
    """A generator proxy timing each resume as one span.

    Works under ``yield from`` (PEP 380 drives any iterator with
    ``send``/``throw``) and as a simulation process body.
    """

    __slots__ = ("_rec", "_gen", "_layer", "_name_id", "_op", "__name__")

    def __init__(self, recorder: Recorder, gen, layer: int, name_id: int,
                 op: Optional[int]):
        self._rec = recorder
        self._gen = gen
        self._layer = layer
        self._name_id = name_id
        self._op = op
        self.__name__ = getattr(gen, "__name__", "gen")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        frame = rec.enter(self._layer, self._op)
        try:
            return self._gen.send(value)
        finally:
            rec.leave(frame, self._name_id)

    def throw(self, *exc):
        rec = self._rec
        frame = rec.enter(self._layer, self._op)
        try:
            return self._gen.throw(*exc)
        finally:
            rec.leave(frame, self._name_id)

    def close(self):
        return self._gen.close()
