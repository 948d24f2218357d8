"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces module-level names that one proxsel module looks
up when it calls another (``proxsel.estimators.ols``,
``proxsel.cli.load_csv``, ...) with timing wrappers, and puts the originals
back on :meth:`Tracer.uninstall`. Nothing under ``src/`` changes. Each call
records one span: operation index, span id, parent span id, name, start,
end, self time and the rows it factored. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Records spans in memory while installed and totals them by name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.op = -1

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        *,
        rows: bool = False,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Prepare a wrapper for ``module.attr``; :meth:`install` sets it."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]  # [id, time covered by children]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                n_rows = len(args[0]) if rows else 0
                self.spans.append(
                    (
                        self.op,
                        span_id,
                        None if parent is None else parent[0],
                        name,
                        start,
                        end,
                        duration - frame[1],
                        n_rows,
                    )
                )
            if on_result is not None:
                on_result(self, result)
            return result

        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def per_span(self) -> dict[str, dict[str, float]]:
        """Totals per span name: calls, self ms, rows, and call-duration quantiles."""
        out: dict[str, dict[str, Any]] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for _, _, _, name, start, end, self_s, n_rows in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "rows": 0})
            agg["calls"] += 1
            agg["self_ms"] += self_s * 1e3
            agg["rows"] += n_rows
            durations[name].append((end - start) * 1e3)
        for name, values in durations.items():
            values.sort()
            out[name]["call_ms_p50"] = _quantile(values, 0.5)
            out[name]["call_ms_p90"] = _quantile(values, 0.9)
            out[name]["call_ms_max"] = values[-1]
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: op, id, parent, name, start_ms, end_ms, self_ms, rows."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, sid, parent, name, start, end, self_s, n_rows in self.spans:
                handle.write(
                    json.dumps(
                        [op, sid, parent, name, start * 1e3, end * 1e3,
                         self_s * 1e3, n_rows]
                    )
                    + "\n"
                )


def _quantile(sorted_values: list[float], q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
