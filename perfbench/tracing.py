"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run goes on and are written once, at exit.  A span's self time is its
duration minus the time its child spans cover; children of one parent never
overlap because the traced run is single-threaded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ordquant.simulate import posterior_mean_estimator

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, start: float, end: float, parent: int) -> int:
        """Record a finished span; returns its index.  Hot loops append
        ``(name_id, start, end, parent)`` to ``spans`` directly."""
        self.spans.append((name_id, start, end, parent))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = NO_PARENT) -> int:
        """Start a span whose children are recorded before it ends."""
        return self.add(self.name(name), time.perf_counter(), float("nan"), parent)

    def close(self, index: int) -> None:
        name_id, start, _, parent = self.spans[index]
        self.spans[index] = (name_id, start, time.perf_counter(), parent)

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def _arrays(self):
        names = np.fromiter((s[0] for s in self.spans), dtype=np.int32, count=len(self.spans))
        start = np.fromiter((s[1] for s in self.spans), dtype=float, count=len(self.spans))
        end = np.fromiter((s[2] for s in self.spans), dtype=float, count=len(self.spans))
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int32, count=len(self.spans))
        return names, start, end, parent

    @contextmanager
    def span(self, name: str, parent: int = NO_PARENT):
        index = self.open(name, parent)
        try:
            yield index
        finally:
            self.close(index)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total duration, total self time, count)."""
        names, start, end, parent = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        self_time = duration - covered
        k = len(self.names)
        total = np.bincount(names, weights=duration, minlength=k)
        total_self = np.bincount(names, weights=self_time, minlength=k)
        count = np.bincount(names, minlength=k)
        return {n: (float(total[i]), float(total_self[i]), int(count[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        name_id, start, end, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, start=start, end=end, parent=parent)


def timed_estimator(log_dir: str, dataset, theta, sampler):
    """``posterior_mean_estimator`` that also records its own duration.

    Runs inside the replication study's worker processes, so the duration
    goes to a file named after the replication's fit seed.
    """
    start = time.perf_counter()
    result = posterior_mean_estimator(dataset, theta, sampler)
    elapsed = time.perf_counter() - start
    Path(log_dir, f"fit-{sampler.seed}.txt").write_text(f"{elapsed!r}\n", encoding="utf-8")
    return result
