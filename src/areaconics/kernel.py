"""Minimal numeric straightedge-and-compass primitives.

Every construction in this package reduces to the operations here:
midpoints, ray extensions, perpendiculars, circle-line intersections,
and distance measurement, all on binary64 coordinates under an explicit
relative/absolute tolerance model. The canonical frame places the base
segment endpoint A at the origin with the base along +x and rectangle
heights along +y.

All functions are pure and the value types are frozen, so instances can
be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")
        if self.label is not None and not self.label:
            raise ValueError("point label must be non-empty when present")

    def with_label(self, label: str) -> Point:
        return Point(self.x, self.y, label)


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
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"circle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Line:
    """An infinite line through ``anchor`` with a unit ``direction``."""

    anchor: Point
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        ux, uy = (float(self.direction[0]), float(self.direction[1]))
        object.__setattr__(self, "direction", (ux, uy))
        # Written so that a nan direction fails too.
        if not (abs(math.hypot(ux, uy) - 1.0) <= 1e-9):
            raise ValueError(f"line direction must be a unit vector, got {self.direction}")


def line_through(p: Point, q: Point) -> Line:
    """Line through two distinct points, direction normalized from p to q."""
    dx, dy = q.x - p.x, q.y - p.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise DegenerateRayError("cannot draw a line through coincident points")
    return Line(p, (dx / norm, dy / norm))


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q.x - p.x, q.y - p.y)


def midpoint(p: Point, q: Point) -> Point:
    """Arithmetic midpoint of the segment pq."""
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def extend_along_ray(through: Point, frm: Point, dist: float) -> Point:
    """Point at distance ``dist`` beyond ``through`` on the ray from ``frm``.

    The ray starts at ``frm``, passes through ``through``, and the result
    lies ``dist`` farther along it.
    """
    if not (dist > 0.0):
        raise GeometryError(f"extension distance must be positive, got {dist}")
    dx, dy = through.x - frm.x, through.y - frm.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise DegenerateRayError("ray through coincident points is undefined")
    return Point(through.x + dist * dx / norm, through.y + dist * dy / norm)


def erect_perpendicular(at: Point, base: Line) -> Line:
    """Line through ``at`` perpendicular to ``base``; ``at`` must lie on ``base``."""
    ux, uy = base.direction
    off_x, off_y = at.x - base.anchor.x, at.y - base.anchor.y
    # cross product against a unit direction = signed distance to the line
    off = abs(off_x * uy - off_y * ux)
    span = max(1.0, math.hypot(off_x, off_y))
    # Written so that a nan offset (an overflowing one) fails too.
    if not (off <= max(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * span)):
        raise OffLineError(f"point ({at.x}, {at.y}) does not lie on the base line")
    return Line(at, (-uy, ux))


def intersect_circle_line(circle: Circle, line: Line) -> list[Point]:
    """Intersection points of a circle and a line, sorted by (y, x) ascending.

    Returns two points for a secant, one for a tangent (within tolerance
    of the radius), and an empty list when they do not meet.
    """
    ux, uy = line.direction
    cx, cy = circle.center.x - line.anchor.x, circle.center.y - line.anchor.y
    t0 = cx * ux + cy * uy
    foot_x = line.anchor.x + t0 * ux
    foot_y = line.anchor.y + t0 * uy
    hx, hy = circle.center.x - foot_x, circle.center.y - foot_y
    # x*x is the correctly rounded square; x ** 2 goes through libm pow.
    h2 = hx * hx + hy * hy
    r2 = circle.radius * circle.radius
    gap = r2 - h2
    band = max(DEFAULT_TOLERANCE.eps_abs, DEFAULT_TOLERANCE.eps_rel * r2)
    if gap < -band:
        return []
    if gap <= band:
        return [Point(foot_x, foot_y)]
    half = math.sqrt(gap)
    points = [
        Point(foot_x - half * ux, foot_y - half * uy),
        Point(foot_x + half * ux, foot_y + half * uy),
    ]
    points.sort(key=lambda p: (p.y, p.x))
    return points
