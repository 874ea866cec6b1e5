"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``None`` at the top) and ``op`` the id of the
closed-loop operation that caused it. Spans are opened only by the
benchmark's own code, around its calls into the program's public
functions; nothing inside ``repro`` is patched. The recorder keeps
everything in memory and writes it out once, when the run ends.

A layer's *self time* is its span's duration minus the time its child
spans cover (children of one span never overlap: the closed loop is a
single thread).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class Recorder:
    """Nested spans plus the op id they belong to."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op]`` per span, in open order.
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [
            name, time.perf_counter(), None,
            self._stack[-1] if self._stack else None, self.op,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus child coverage)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (end - start) - covered[index]
            for index, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total time and total self time."""
        table: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(
            self.spans, self.self_times()
        ):
            row = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return table

    def write(self, path: Path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    op: int | None = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null
