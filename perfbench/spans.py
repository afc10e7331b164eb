"""In-memory span recorder that wraps module attributes from the outside.

A span is (id, name, start, end, parent, run id, attrs).  Spans are only
created by wrappers installed here, around calls into the program's public
functions; nothing inside the program is changed.  Every wrapped attribute
is put back by ``restore``.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_of=None, peak_memory: bool = False) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``attrs_of(args, kwargs)`` names span attributes taken from the call;
        ``peak_memory`` records the tracemalloc peak of the call in MB.
        """
        original = getattr(module, attr)
        self._originals.append((module, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            if peak_memory:
                tracemalloc.start()
            try:
                with self.span(name, **attrs) as record:
                    result = original(*args, **kwargs)
            finally:
                if peak_memory:
                    record["attrs"]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            return result

        setattr(module, attr, wrapper)

    def restore(self) -> list[str]:
        """Put back every wrapped attribute; returns those that did not stick."""
        stuck = []
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                stuck.append(f"{module.__name__}.{attr}")
        return stuck

    # -- queries ------------------------------------------------------------

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its child spans."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += self.duration(s)
        return {s["id"]: self.duration(s) - covered[s["id"]] for s in self.spans}

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}, sort_keys=True) + "\n")
