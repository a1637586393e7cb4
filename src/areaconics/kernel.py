"""Minimal numeric straightedge-and-compass primitives.

Every construction in this package reduces to the operations here:
midpoints, ray extensions, perpendiculars, circle-line intersections,
and distance measurement, all on binary64 coordinates under an explicit
relative/absolute tolerance model. The canonical frame places the base
segment endpoint A at the origin with the base along +x and rectangle
heights along +y.

Each primitive is written once, over a numeric namespace ``ns``.
``FLOATS`` runs them on float coordinates; ``_batched.ARRAYS`` runs them
on numpy arrays with one entry per height, bit for bit equal to the float
run at each height. A point is its (x, y), a circle (center, radius) and a
line (anchor, (ux, uy)) with a unit direction. ``ns.check(ok, error,
message, *values)`` fails where ``ok`` is false: over floats it raises
``error(message.format(*values))``; over arrays it only locates the first
failing height (see ``_batched.execute_batched``).

All functions are pure and the value types are frozen, so instances can
be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

__all__ = [
    "Circle",
    "DEFAULT_TOLERANCE",
    "DegenerateRayError",
    "GeometryError",
    "Line",
    "OffLineError",
    "Point",
    "Segment",
    "Tolerance",
    "distance",
    "erect_perpendicular",
    "extend_along_ray",
    "intersect_circle_line",
    "line_through",
    "midpoint",
]


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class DegenerateRayError(GeometryError):
    """A ray or line was requested through two coincident points."""


class OffLineError(GeometryError):
    """A point that must lie on a line does not, beyond tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair of the kernel's checks.

    A quantity q at scale s counts as zero when
    ``|q| <= max(eps_abs, eps_rel * s)``: a point's offset from a line,
    and the gap between a circle's squared radius and a line's squared
    distance from its center.
    """

    eps_rel: float = 1e-9
    eps_abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.eps_rel > 0.0 and self.eps_abs > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class Point:
    """A labeled 2D coordinate in the canonical construction frame."""

    x: float
    y: float
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        _point(FLOATS, self.x, self.y)
        if self.label is not None and not self.label:
            raise ValueError("point label must be non-empty when present")


@dataclass(frozen=True)
class Segment:
    """A straight segment between two points."""

    start: Point
    end: Point


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", float(self.radius))
        _circle(FLOATS, self.center, self.radius)


@dataclass(frozen=True)
class Line:
    """An infinite line through ``anchor`` with a unit ``direction``."""

    anchor: Point
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        ux, uy = (float(self.direction[0]), float(self.direction[1]))
        object.__setattr__(self, "direction", (ux, uy))
        _line(FLOATS, self.anchor, ux, uy)


def _raise_unless(ok: bool, error: type[Exception], message: str, *values: Any) -> None:
    if not ok:
        raise error(message.format(*values))


FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    hypot=math.hypot,
    isfinite=math.isfinite,
    maximum=max,
    where=lambda condition, a, b: a if condition else b,
    not_=operator.not_,
    check=_raise_unless,
)


def _point(ns: Any, x: Any, y: Any, skip: Any = False) -> tuple[Any, Any]:
    """``Point``'s finite check, except where ``skip`` holds."""
    finite = ns.isfinite(x) & ns.isfinite(y)
    ns.check(finite | skip, ValueError, "point coordinates must be finite, got ({}, {})", x, y)
    return x, y


def _circle(ns: Any, center: Any, radius: Any) -> tuple[Any, Any]:
    positive = ns.isfinite(radius) & (radius > 0.0)
    ns.check(positive, ValueError, "circle radius must be positive, got {}", radius)
    return center, radius


def _line(ns: Any, anchor: Any, ux: Any, uy: Any) -> tuple[Any, tuple[Any, Any]]:
    # Written so that a nan direction fails too.
    unit = abs(ns.hypot(ux, uy) - 1.0) <= 1e-9
    ns.check(unit, ValueError, "line direction must be a unit vector, got ({}, {})", ux, uy)
    return anchor, (ux, uy)


def _distance(ns: Any, p: Any, q: Any) -> Any:
    return ns.hypot(q[0] - p[0], q[1] - p[1])


def _midpoint(ns: Any, p: Any, q: Any) -> tuple[Any, Any]:
    return _point(ns, (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def _extend(ns: Any, through: Any, frm: Any, dist: Any) -> tuple[Any, Any]:
    ns.check(dist > 0.0, GeometryError, "extension distance must be positive, got {}", dist)
    dx, dy = through[0] - frm[0], through[1] - frm[1]
    norm = ns.hypot(dx, dy)
    ns.check(norm != 0.0, DegenerateRayError, "ray through coincident points is undefined")
    return _point(ns, through[0] + dist * dx / norm, through[1] + dist * dy / norm)


def _line_through(ns: Any, p: Any, q: Any) -> tuple[Any, tuple[Any, Any]]:
    dx, dy = q[0] - p[0], q[1] - p[1]
    norm = ns.hypot(dx, dy)
    ns.check(norm != 0.0, DegenerateRayError, "cannot draw a line through coincident points")
    return _line(ns, p, dx / norm, dy / norm)


def _perpendicular(ns: Any, at: Any, base: Any) -> tuple[Any, tuple[Any, Any]]:
    (ax, ay), (ux, uy) = base
    off_x, off_y = at[0] - ax, at[1] - ay
    # cross product against a unit direction = signed distance to the line
    off = abs(off_x * uy - off_y * ux)
    span = ns.maximum(1.0, ns.hypot(off_x, off_y))
    # Written so that a nan offset (an overflowing one) fails too.
    on_line = off <= ns.maximum(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * span)
    ns.check(on_line, OffLineError, "point ({}, {}) does not lie on the base line", *at)
    return _line(ns, at, -uy, ux)


def _circle_line(ns: Any, circle: Any, line: Any) -> tuple[Any, Any, Any, Any, Any, Any]:
    """Where a circle meets a line: (missed, tangent, foot, low, high, low_last).

    A tangent (within tolerance of the radius; it holds where they miss
    too) touches at the foot; elsewhere they cross at ``low`` and ``high``.
    Sorted stably by (y, x), [low, high] ends with low only where ``low_last``.
    """
    (center_x, center_y), radius = circle
    (ax, ay), (ux, uy) = line
    cx, cy = center_x - ax, center_y - ay
    t0 = cx * ux + cy * uy
    foot_x = ax + t0 * ux
    foot_y = ay + t0 * uy
    hx, hy = center_x - foot_x, center_y - foot_y
    # x*x is the correctly rounded square; x ** 2 goes through libm pow.
    h2 = hx * hx + hy * hy
    r2 = radius * radius
    gap = r2 - h2
    band = ns.maximum(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * r2)
    tangent = gap <= band
    half = ns.sqrt(ns.where(tangent, 0.0, gap))
    low = (foot_x - half * ux, foot_y - half * uy)
    high = (foot_x + half * ux, foot_y + half * uy)
    low_last = (low[1] > high[1]) | ((low[1] == high[1]) & (low[0] > high[0]))
    return gap < -band, tangent, (foot_x, foot_y), low, high, low_last


def _highest(ns: Any, circle: Any, line: Any, *miss: Any) -> tuple[Any, Any]:
    """The intersection point highest by (y, x); where none, ``ns.check(False, *miss)``."""
    missed, tangent, foot, low, high, low_last = _circle_line(ns, circle, line)
    ns.check(ns.not_(missed), *miss)
    # The points that ``intersect_circle_line`` builds, and so checks.
    _point(ns, *foot, ns.not_(tangent))
    _point(ns, *low, tangent)
    _point(ns, *high, tangent)
    x = ns.where(tangent, foot[0], ns.where(low_last, low[0], high[0]))
    y = ns.where(tangent, foot[1], ns.where(low_last, low[1], high[1]))
    return x, y


def line_through(p: Point, q: Point) -> Line:
    """Line through two distinct points, direction normalized from p to q."""
    return Line(p, _line_through(FLOATS, (p.x, p.y), (q.x, q.y))[1])


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return _distance(FLOATS, (p.x, p.y), (q.x, q.y))


def midpoint(p: Point, q: Point) -> Point:
    """Arithmetic midpoint of the segment pq."""
    return Point(*_midpoint(FLOATS, (p.x, p.y), (q.x, q.y)))


def extend_along_ray(through: Point, frm: Point, dist: float) -> Point:
    """Point at distance ``dist`` beyond ``through`` on the ray from ``frm``.

    The ray starts at ``frm``, passes through ``through``, and the result
    lies ``dist`` farther along it.
    """
    return Point(*_extend(FLOATS, (through.x, through.y), (frm.x, frm.y), dist))


def erect_perpendicular(at: Point, base: Line) -> Line:
    """Line through ``at`` perpendicular to ``base``; ``at`` must lie on ``base``."""
    anchor = base.anchor
    return Line(at, _perpendicular(FLOATS, (at.x, at.y), ((anchor.x, anchor.y), base.direction))[1])


def intersect_circle_line(circle: Circle, line: Line) -> list[Point]:
    """Intersection points of a circle and a line, sorted by (y, x) ascending.

    Returns two points for a secant, one for a tangent (within tolerance
    of the radius), and an empty list when they do not meet.
    """
    center, anchor = circle.center, line.anchor
    missed, tangent, foot, low, high, low_last = _circle_line(
        FLOATS, ((center.x, center.y), circle.radius), ((anchor.x, anchor.y), line.direction)
    )
    if missed:
        return []
    if tangent:
        return [Point(*foot)]
    points = [Point(*low), Point(*high)]
    return points[::-1] if low_last else points
