"""Per-layer timing for the traced benchmark run.

:meth:`Tracer.install` puts a timing wrapper on each layer boundary (class
methods and module functions of the layer's modules) before any runtime is
built, because hot paths cache bound methods and handlers at construction.
Every wrapped call is a span.  When a span closes, its self time (its
duration minus the time of the spans opened inside it) is added to its
layer's total, and the call is counted.  Only these totals are kept in
memory: one ``uts-steal`` job closes millions of spans.

Callbacks scheduled on the slotted event core are wrapped as they are
scheduled, and attributed to the layer of the module that defines them, so
the event core's self time is its own dispatch work and not the network
model's delivery closures or the runtime's message handlers.

Place processes of the procs backend are forked, so they inherit the
wrappers.  A wrapper around the child entry function zeroes the inherited
totals and hands the child's own totals back to place 0 just before the
child exits.

Nothing here changes what a wrapped call computes; ``run.py`` checks that
traced and untraced jobs give identical outputs and simulated statistics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import os
import selectors
import time

#: scheduled callbacks are attributed by defining module (longest prefix wins)
MODULE_LAYERS = (
    ("repro.sim.process", "activity"),
    ("repro.sim", "sim.slotted"),
    ("repro.machine", "machine.network"),
    ("repro.xrt.collectives", "runtime.team"),
    ("repro.xrt.procs", "xrt.procs.loop"),
    ("repro.xrt", "xrt.transport"),
    ("repro.runtime.finish", "runtime.finish"),
    ("repro.runtime.team", "runtime.team"),
    ("repro.runtime.activity", "activity"),
    ("repro.runtime", "runtime"),
    ("repro.glb", "glb"),
    ("repro.kernels.uts", "kernels.uts"),
    ("repro.kernels.kmeans", "kernels.kmeans"),
)

#: the slotted core's scheduling surface -> index of the callback argument
_SCHEDULERS = {
    "schedule": 1, "schedule_fire": 1, "schedule_call": 1, "schedule_call2": 1,
    "call_soon": 0, "call_soon_fire": 0, "call_soon_call": 0, "call_soon_call2": 0,
}

_TRACED = "_perfbench_span"


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str) -> str:
    best, layer = "", "other"
    for prefix, name in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


def _resolve(path: str):
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object, or None if it is gone."""
    module_name, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Self time and call counts per layer for the calls of one process."""

    def __init__(self) -> None:
        #: child-time accumulator of every open span; [0] is the process root
        self.stack = [0.0]
        #: (layer, function) -> [self seconds, calls]
        self.cells: dict = {}
        #: quantities a wrapper reads off arguments or results
        self.extra = {"wire_bytes": 0, "routed": 0, "dropped": 0}
        #: totals handed back by forked place processes
        self.children: list = []
        self._queue = None

    # -- spans -------------------------------------------------------------------

    def _cell(self, layer: str, name: str) -> list:
        return self.cells.setdefault((layer, name), [0.0, 0])

    def _timed(self, fn, cell: list):
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += dt - stack.pop()
                cell[1] += 1
                stack[-1] += dt

        return timed

    def span(self, fn, layer: str, name: str = ""):
        """``fn`` wrapped so each call is a span of ``layer``."""
        traced = functools.wraps(fn)(self._timed(fn, self._cell(layer, name or fn.__qualname__)))
        setattr(traced, _TRACED, layer)
        return traced

    def attribute(self, fn):
        """A scheduled callback, wrapped as a span of its defining module's layer."""
        if getattr(getattr(fn, "__func__", fn), _TRACED, None) is not None:
            return fn
        module = getattr(fn, "__module__", None) or type(fn).__module__
        return self._timed(fn, self._cell(layer_of_module(module), "(scheduled callback)"))

    def reset(self) -> None:
        """Zero every total in place (closures hold the same lists)."""
        del self.stack[1:]
        self.stack[0] = 0.0
        for cell in self.cells.values():
            cell[0] = 0.0
            cell[1] = 0
        for key in self.extra:
            self.extra[key] = 0
        self.children.clear()

    def totals(self) -> dict:
        return {
            "cells": {key: tuple(c) for key, c in self.cells.items() if c[1]},
            "extra": dict(self.extra),
        }

    # -- installing the wrappers -------------------------------------------------

    def _wrap(self, owner, name: str, layer: str, label: str = "") -> None:
        fn = inspect.getattr_static(owner, name, None)
        if not inspect.isfunction(fn) or getattr(fn, _TRACED, None) is not None:
            return
        if inspect.isgeneratorfunction(fn):
            return  # generator bodies are resumed (and timed) by Process._step
        qual = label or (f"{owner.__name__}.{name}" if inspect.isclass(owner) else fn.__qualname__)
        setattr(owner, name, self.span(fn, layer, qual))

    def _wrap_class(self, path: str, layer: str, names=None, subclasses: bool = False) -> None:
        """Wrap ``names`` (default: every plain method) on a class and its subclasses."""
        base = _resolve(path)
        if base is None:
            return
        for cls in _subclasses(base) if subclasses else [base]:
            for name in names or [n for n in vars(cls) if not n.startswith("__")]:
                if name in vars(cls):
                    self._wrap(cls, name, layer)

    def install(self) -> None:
        """Wrap every layer boundary.  Call before any runtime is built."""
        for module in ("repro.harness.runner", "repro.kernels.uts", "repro.kernels.kmeans",
                       "repro.runtime.finish", "repro.xrt.procs", "repro.glb"):
            _resolve(module)  # load the classes whose subclasses get wrapped

        self._install_event_core()
        self._wrap_class("repro.sim.process:Process", "activity", ["_step", "_throw"])
        self._wrap_class("repro.machine.network:Network", "machine.network",
                         ["transfer_call", "transfer_notify", "transfer"])
        self._wrap_class("repro.xrt.transport:Transport", "xrt.transport",
                         ["post_args", "send"], subclasses=True)
        self._wrap_class("repro.runtime.runtime:ApgasRuntime", "runtime.finish",
                         ["send_finish_ctl"])
        self._wrap_class("repro.runtime.runtime:ApgasRuntime", "runtime")
        self._wrap_class("repro.runtime.finish.base:BaseFinish", "runtime.finish",
                         subclasses=True)
        self._wrap_class("repro.runtime.team:Team", "runtime.team")
        self._wrap_class("repro.glb.engine:Glb", "glb")
        bag = _resolve("repro.glb.bag:TaskBag")
        if bag is not None:
            for cls in _subclasses(bag)[1:]:
                for name in ("process", "split", "merge"):
                    if name in vars(cls):
                        self._wrap(cls, name, layer_of_module(cls.__module__))
        kmeans = _resolve("repro.kernels.kmeans.kmeans")
        if kmeans is not None:
            for name in ("assign_and_accumulate", "update_centroids",
                         "generate_points", "initial_centroids"):
                self._wrap(kmeans, name, "kernels.kmeans")
        self._install_procs()

    def _install_event_core(self) -> None:
        engine = _resolve("repro.sim.slotted:SlottedEngine")
        if engine is None:
            return
        self._wrap(engine, "run", "sim.slotted")
        attribute = self.attribute
        for name, index in _SCHEDULERS.items():
            fn = inspect.getattr_static(engine, name, None)
            if not inspect.isfunction(fn):
                continue

            def schedule(core, *args, _fn=fn, _i=index):
                args = list(args)
                args[_i] = attribute(args[_i])
                return _fn(core, *args)

            setattr(engine, name, self.span(schedule, "sim.slotted", "SlottedEngine.schedule"))

    def _install_procs(self) -> None:
        launcher = _resolve("repro.xrt.procs.launcher")
        if launcher is None:
            return
        self._wrap_class("repro.xrt.procs.runtime:ProcsRuntime", "runtime")
        self._wrap_class("repro.xrt.procs.finishproc:HomeFinish", "runtime.finish")
        self._wrap_class("repro.xrt.procs.finishproc:ProxyFinish", "runtime.finish")
        self._wrap_class("repro.xrt.procs.loop:PlaceLoop", "xrt.procs.loop", ["run", "_poll"])
        self._wrap_class("repro.xrt.procs.loop:PlaceLoop", "xrt.procs.loop.dispatch", ["dispatch"])
        self._wrap_class("repro.xrt.procs.launcher:_RouterLoop", "xrt.procs.router", ["route"])
        self._wrap(selectors.DefaultSelector, "select", "xrt.procs.loop.poll_wait")
        self._wrap(launcher, "_reap", "xrt.procs.launcher.reap")
        fork_process = _resolve("multiprocessing.context:ForkProcess")
        if fork_process is not None:
            setattr(fork_process, "start", self.span(
                fork_process.start, "xrt.procs.launcher.fork", "ForkProcess.start"))
        decoder = _resolve("repro.xrt.serialization:FrameDecoder")
        if decoder is not None:
            self._wrap(decoder, "feed", "xrt.procs.wire.decode", "FrameDecoder.feed")

        extra = self.extra
        wire = _resolve("repro.xrt.procs.wire")
        encode = getattr(wire, "encode_frame", None)
        if encode is not None:
            def encode_frame(frame):
                data = encode(frame)
                extra["wire_bytes"] += len(data)
                return data

            wire.encode_frame = self.span(encode_frame, "xrt.procs.wire.encode", "encode_frame")

        router = _resolve("repro.xrt.procs.launcher:_RouterLoop")
        on_frame = inspect.getattr_static(router, "on_frame", None) if router else None
        if inspect.isfunction(on_frame):
            def routed_on_frame(loop, conn, frame):
                if frame[2] != 0:
                    extra["routed"] += 1
                return on_frame(loop, conn, frame)

            router.on_frame = self.span(routed_on_frame, "xrt.procs.loop", "_RouterLoop.on_frame")

        run = launcher.run_procs_program

        def run_procs_program(*args, **kwargs):
            self._queue = multiprocessing.get_context("fork").SimpleQueue()
            try:
                report = run(*args, **kwargs)
                extra["dropped"] += report.frames_dropped
                return report
            finally:
                queue, self._queue = self._queue, None
                while not queue.empty():
                    self.children.append(queue.get())
                queue.close()

        traced_run = self.span(run_procs_program, "xrt.procs.launcher", "run_procs_program")
        launcher.run_procs_program = traced_run
        procs = _resolve("repro.xrt.procs")
        procs.run_procs_program = traced_run

        child_main = launcher._child_main

        def child_entry(*args, **kwargs):
            # runs in the forked place process: start from zero, and hand the
            # totals back just before the child's os._exit
            self.reset()
            queue = self._queue
            t0 = time.perf_counter()
            exit_now = os._exit

            def exit_with_totals(code):
                try:
                    other = self._cell("other", "place process")
                    other[0] += time.perf_counter() - t0 - self.stack[0]
                    other[1] += 1
                    queue.put(self.totals())
                finally:
                    exit_now(code)

            os._exit = exit_with_totals
            return child_main(*args, **kwargs)

        launcher._child_main = child_entry
