"""Spans around trapwall's public functions, installed from outside the package.

`Tracer.install` wraps every public function of the traced modules and puts
the wrapper at every module attribute that holds the original, so calls made
through `from ... import` bindings (cli's `rational_to_sex`, wall_solver's
`transversal_at` and `is_regular`, ...) are traced too. Each span records its
name, start, end, parent span and request id in flat arrays that stay in
memory until `write` is called at the end of the run. The program is single
threaded, so one "current span" variable is enough to find each parent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from types import ModuleType


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_raised = array("b")
        self.current = -1  # the open span, -1 at top level
        self.request = -1  # the request the next spans belong to
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        """fn with a span around each call; exceptions are counted and re-raised unchanged."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, raised = self.span_start, self.span_end, self.span_raised
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            span = len(starts)
            names.append(name_id)
            parents.append(parent)
            requests.append(tracer.request)
            raised.append(0)
            ends.append(0)
            tracer.current = span
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                ends[span] = clock()
                tracer.current = parent

        return traced

    def install(self, layers: dict[str, ModuleType], package: str) -> None:
        """Wrap the public functions of each layer module, under the name "layer.function".

        The wrappers are made on the first call and reused after `uninstall`.
        """
        if not self._wrappers:
            for layer, module in layers.items():
                for attr, value in vars(module).items():
                    if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                        self._wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def totals(self, group_of_request) -> dict[object, dict[str, list[int]]]:
        """Per group of requests and span name: [calls, raised, self ns, span ns].

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in a single thread.
        """
        durations = array("q", (end - start for start, end in zip(self.span_start, self.span_end)))
        self_ns = array("q", durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                self_ns[parent] -= durations[span]
        totals: dict[object, dict[str, list[int]]] = {}
        for request, name, raised, own, duration in zip(
            self.span_request, self.span_name, self.span_raised, self_ns, durations
        ):
            group = totals.setdefault(group_of_request(request), {})
            entry = group.setdefault(self.names[name], [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += raised
            entry[2] += own
            entry[3] += duration
        return totals

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines, one span per line, ids in order."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_ns\tend_ns\traised\n")
            out.writelines(
                f"{i}\t{p}\t{r}\t{self.names[n]}\t{s}\t{e}\t{x}\n"
                for i, (p, r, n, s, e, x) in enumerate(zip(
                    self.span_parent, self.span_request, self.span_name,
                    self.span_start, self.span_end, self.span_raised,
                ))
            )
