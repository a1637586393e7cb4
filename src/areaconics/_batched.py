"""The companion-square step program run once over many heights.

A sweep runs the same straight-line step program at every height; only
the given points change. Here each labelled point holds one numpy array
per coordinate, with one entry per height, and each step runs once over
all of them. The array primitives repeat the scalar kernel's formulas
operation for operation, so every entry equals, bit for bit, what
``constructions._execute`` computes for that height alone. They also
repeat the kernel's checks, but only to find where a run fails: the
error itself comes from the scalar path (see ``execute_batched``).

``math.hypot`` and ``np.hypot`` may differ in the last bit; in the
companion-square program every distance and ray norm has one zero
component, where both are exact.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .constructions import (
    ApplicationKind,
    ConstructionStep,
    ConstructionTrace,
    StepOp,
    _execute,
    _given_coordinates,
)
from .kernel import DEFAULT_TOLERANCE, Point

# A point is its (x, y) coordinate arrays; a circle is (center, radius);
# a line is (anchor, (ux, uy)) with a unit direction.
Points = tuple[np.ndarray, np.ndarray]
Circles = tuple[Points, np.ndarray]
Lines = tuple[Points, tuple[np.ndarray, np.ndarray]]


class _Failure(Exception):
    """A check failed; ``index`` is the first failing height of this run."""

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self.index = index


def _check(bad: np.ndarray) -> None:
    if bad.any():
        raise _Failure(int(np.argmax(bad)))


def _point(x: np.ndarray, y: np.ndarray, where: Any = True) -> Points:
    """``Point``'s finite check, on the heights selected by ``where``."""
    _check(where & ~(np.isfinite(x) & np.isfinite(y)))
    return x, y


def _circle(center: Points, radius: np.ndarray) -> Circles:
    _check(~(np.isfinite(radius) & (radius > 0.0)))
    return center, radius


def _line(anchor: Points, ux: np.ndarray, uy: np.ndarray) -> Lines:
    _check(~(np.abs(np.hypot(ux, uy) - 1.0) <= 1e-9))
    return anchor, (ux, uy)


def distance(p: Points, q: Points) -> np.ndarray:
    return np.hypot(q[0] - p[0], q[1] - p[1])


def midpoint(p: Points, q: Points) -> Points:
    return _point((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def extend_along_ray(through: Points, frm: Points, dist: np.ndarray) -> Points:
    _check(~(dist > 0.0))
    dx, dy = through[0] - frm[0], through[1] - frm[1]
    norm = np.hypot(dx, dy)
    _check(norm == 0.0)
    return _point(through[0] + dist * dx / norm, through[1] + dist * dy / norm)


def line_through(p: Points, q: Points) -> Lines:
    dx, dy = q[0] - p[0], q[1] - p[1]
    norm = np.hypot(dx, dy)
    _check(norm == 0.0)
    return _line(p, dx / norm, dy / norm)


def erect_perpendicular(at: Points, base: Lines) -> Lines:
    (ax, ay), (ux, uy) = base
    off_x, off_y = at[0] - ax, at[1] - ay
    off = np.abs(off_x * uy - off_y * ux)
    span = np.maximum(1.0, np.hypot(off_x, off_y))
    _check(~(off <= np.maximum(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * span)))
    return _line(at, -uy, ux)


def intersect_circle_line(circle: Circles, line: Lines) -> tuple[Points, np.ndarray]:
    """The highest intersection by (y, x), and where the two do not meet.

    The entries of the point where they do not meet are meaningless.
    """
    (center_x, center_y), radius = circle
    (ax, ay), (ux, uy) = line
    cx, cy = center_x - ax, center_y - ay
    t0 = cx * ux + cy * uy
    foot_x = ax + t0 * ux
    foot_y = ay + t0 * uy
    hx, hy = center_x - foot_x, center_y - foot_y
    h2 = hx * hx + hy * hy
    r2 = radius * radius
    gap = r2 - h2
    band = np.maximum(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * r2)
    missed = gap < -band
    tangent = ~missed & (gap <= band)
    secant = ~missed & ~tangent
    half = np.sqrt(gap)
    _point(foot_x, foot_y, tangent)
    lo_x, lo_y = _point(foot_x - half * ux, foot_y - half * uy, secant)
    hi_x, hi_y = _point(foot_x + half * ux, foot_y + half * uy, secant)
    # The scalar path sorts [lo, hi] stably by (y, x) and takes the last.
    lo_last = (lo_y > hi_y) | ((lo_y == hi_y) & (lo_x > hi_x))
    x = np.where(tangent, foot_x, np.where(lo_last, lo_x, hi_x))
    y = np.where(tangent, foot_y, np.where(lo_last, lo_y, hi_y))
    return (x, y), missed


def _apply_step(step: ConstructionStep, args: list[Any]) -> Any:
    op = step.op
    if op is StepOp.EXTEND:
        through, frm, p, q = args
        return extend_along_ray(through, frm, distance(p, q))
    if op is StepOp.BISECT:
        return midpoint(*args)
    if op is StepOp.DESCRIBE_CIRCLE:
        center, p, q = args
        return _circle(center, distance(p, q))
    if op is StepOp.ERECT_PERPENDICULAR:
        at, p, q = args
        return erect_perpendicular(at, line_through(p, q))
    if op is StepOp.INTERSECT_CIRCLE_LINE:
        point, missed = intersect_circle_line(*args)
        _check(missed)
        return point
    # MARK_SEGMENT
    return tuple(args)


def _run(steps: tuple[ConstructionStep, ...], given: dict[str, Points]) -> dict[str, Any]:
    env: dict[str, Any] = {label: _point(x, y) for label, (x, y) in given.items()}
    for step in steps:
        env[step.output] = _apply_step(step, [env[name] for name in step.inputs])
    return env


def execute_batched(steps: tuple[ConstructionStep, ...], given: dict[str, Points]) -> dict[str, Any]:
    """Run a step program over arrays of given points, one entry per height.

    Returns every labelled entity; a point is its (x, y) arrays. The
    array checks only find the first height i that fails a check; an
    earlier height may still fail at a later step. So on a failure the
    scalar ``_execute`` runs heights 0..i one at a time, and raises the
    first failing height's error, class and message, by construction.
    """
    try:
        with np.errstate(all="ignore"):
            return _run(steps, given)
    except _Failure as failure:
        failing = failure.index
    for i in range(failing + 1):
        initial = tuple(Point(float(x[i]), float(y[i]), label) for label, (x, y) in given.items())
        _execute(ConstructionTrace(initial, steps))
    raise AssertionError(f"height {failing} failed a batched check but passes the scalar construction")


def given_points(
    kind: ApplicationKind, base_L: float, lam: float | None, heights: np.ndarray
) -> dict[str, Points]:
    """The given points of an application of ``kind`` at every height."""
    with np.errstate(all="ignore"):
        coords = _given_coordinates(kind, base_L, lam, heights)
    return {
        label: (np.broadcast_to(x, heights.shape), np.broadcast_to(y, heights.shape))
        for label, (x, y) in coords.items()
    }
