"""Spans around the calls into each layer of ``areaconics``.

The package itself is not instrumented. Instead the tracer replaces, for
the duration of a traced run, the names through which one module calls
into another: the kernel functions that ``constructions`` and ``figures``
import, the ``apply_*`` functions that ``locus``, ``figures`` and ``cli``
import, and so on. Each wrapped call records a span (name, parent, start,
end). The spans of one operation are kept in memory until the operation
ends, then folded into per-name totals: call count, total time, self time
(the span minus the part its child spans cover) and a per-name unit count
such as heights swept or points checked.

Object construction is counted, not timed: ``Point`` and
``ConstructionStep`` validate themselves in ``__post_init__``, and the
tracer counts those calls.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable

# Span names, by the module that defines the wrapped function.
KERNEL_FUNCTIONS = (
    "distance",
    "erect_perpendicular",
    "extend_along_ray",
    "intersect_circle_line",
    "line_through",
    "midpoint",
)
APPLY_FUNCTIONS = ("apply_exact", "apply_deficient", "apply_excess")


def _length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _heights(args: tuple, kwargs: dict, result: Any) -> int:
    return args[2].n


def _text_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.encode("utf-8"))


def _points_read(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


class Stat:
    __slots__ = ("calls", "total", "self_time", "units", "children_by_parent", "peak_bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0
        self.children_by_parent: dict[str, int] = defaultdict(int)
        self.peak_bytes = 0


class Tracer:
    """Collects spans while ``on`` is true; the wrappers are inert otherwise."""

    def __init__(self) -> None:
        self.on = False
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self._spans: list[list[Any]] = []
        self._open: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def begin_op(self) -> None:
        self._spans.clear()
        self._open.clear()
        self.on = True

    def end_op(self) -> None:
        """Fold the finished operation's spans into the per-name totals."""
        self.on = False
        spans = self._spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, units, peak in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end, units, peak) in enumerate(spans):
            stat = self.stats[name]
            stat.calls += 1
            stat.total += end - start
            stat.self_time += end - start - child_time[index]
            stat.units += units
            stat.peak_bytes = max(stat.peak_bytes, peak)
            stat.children_by_parent[spans[parent][0] if parent >= 0 else ""] += 1
        spans.clear()

    def _wrap(
        self,
        name: str,
        fn: Callable,
        units: Callable[[tuple, dict, Any], int] | None = None,
        malloc: bool = False,
    ) -> Callable:
        spans = self._spans
        open_spans = self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            record = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0, 0, 0]
            spans.append(record)
            open_spans.append(len(spans) - 1)
            if malloc:
                tracemalloc.start()
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                if malloc:
                    record[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                open_spans.pop()
            if units is not None:
                record[4] = units(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # vars() keeps a classmethod as the descriptor, so restoring is exact.
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-layer binding; ``uninstall`` puts the originals back."""
        from areaconics import cli, constructions, figures, kernel, locus

        originals = {
            "kernel": {n: getattr(kernel, n) for n in KERNEL_FUNCTIONS},
            "constructions": {n: getattr(constructions, n) for n in APPLY_FUNCTIONS + ("replay_trace",)},
            "locus": {
                n: getattr(locus, n)
                for n in (
                    "sample_locus",
                    "verify_residuals",
                    "fit_conic_oracle",
                    "write_locus_csv",
                    "read_locus_csv",
                )
            },
            "figures": {
                n: getattr(figures, n) for n in ("render_svg", "scene_from_application", "scene_from_locus")
            },
        }
        special = {
            "locus.sample_locus": _heights,
            "locus.verify_residuals": _length,
            "locus.write_locus_csv": _length,
            "locus.read_locus_csv": _points_read,
            "figures.render_svg": _text_bytes,
        }
        wrappers: dict[str, Callable] = {}
        for layer, functions in originals.items():
            for fn_name, fn in functions.items():
                span = "constructions.apply" if fn_name in APPLY_FUNCTIONS else f"{layer}.{fn_name}"
                wrappers[fn_name] = self._wrap(
                    span,
                    fn,
                    units=special.get(span),
                    malloc=span == "locus.fit_conic_oracle",
                )
        # Every module that binds one of the names gets the wrapper, the
        # defining module included, because the benchmark calls through it.
        for module in (kernel, constructions, locus, figures, cli):
            for fn_name, wrapper in wrappers.items():
                if vars(module).get(fn_name) is wrapper.__wrapped__:
                    self._patch(module, fn_name, wrapper)

        trace_cls = constructions.ConstructionTrace
        self._patch(trace_cls, "to_json", self._wrap("constructions.trace_json", trace_cls.to_json))
        from_json = trace_cls.from_json.__func__
        self._patch(
            trace_cls,
            "from_json",
            classmethod(self._wrap("constructions.trace_json", from_json)),
        )
        self._patch(cli, "run", self._wrap("cli.run", cli.run))
        self._patch(kernel.Point, "__post_init__", self._counter("kernel.points", kernel.Point.__post_init__))
        self._patch(
            constructions.ConstructionStep,
            "__post_init__",
            self._counter("constructions.steps_built", constructions.ConstructionStep.__post_init__),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
