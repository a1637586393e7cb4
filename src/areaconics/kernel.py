"""Minimal numeric straightedge-and-compass primitives.

Every construction in this package reduces to the operations here:
midpoints, ray extensions, perpendiculars, circle-line intersections,
and distance measurement, all on binary64 coordinates. Only two of their
decisions are not geometry: whether a circle touches a line, and whether
a point lies on one. Each is a namespace method, ``tangent`` and
``on_line``, which ``_tolerance`` builds for ``FLOATS`` and the array
namespace alike; a namespace that decides otherwise, an exact one say,
provides its own two. The canonical frame places the base segment
endpoint A at the origin with the base along +x and rectangle heights
along +y.

Each primitive is written once, over a numeric namespace ``ns``.
``FLOATS`` runs them on float coordinates; ``_batched._Run``, one run's
namespace, runs them on numpy arrays with one entry per height, bit for
bit equal to the float run at each height whose checks pass. It is
``_batched.ARRAYS``, which has no ``check`` or ``check_finite``, plus
the run's own checks. A point is its (x, y), a circle
(center, radius) and a line (anchor, (ux, uy)) with a unit direction.

A namespace provides these methods; the primitives use nothing else of it:

- ``sqrt(x)``, ``hypot(x, y)`` and ``where(condition, a, b)``,
  elementwise;
- ``tangent(gap, r2)``, which returns the masks (met, tangent) of a
  circle of squared radius r2 and a line whose squared distance from its
  centre falls short of r2 by ``gap``: they meet unless the gap is
  beyond tolerance below zero (a nan gap meets), and touch where it is
  within tolerance above; ``on_line(off, span)``, the mask of a point at
  distance ``off`` from a line, and ``span`` from the line's anchor, that
  lies on the line within tolerance;
- ``check(ok, error, message, *values)``, which fails where ``ok`` is
  false: over floats it raises ``error(message.format(*values))``; over
  arrays it only records where a height failed, and the run goes on (see
  ``_batched.execute_batched``);
- ``check_finite(x, y)``, a point's finite check: it fails, as
  ``check`` does with ``Point``'s ``ValueError``, where x or y is not
  finite;
- ``constant(v)``, whether v is one value at every height, and
  ``axis(dx, dy)``, the direction of (dx, dy) as two constants where it
  runs along an axis at every height, else ``None``: the folds of a run
  over arrays. There a primitive keeps a value that is the same exact
  zero, or the same ±1, at every height whose checks pass as one constant
  instead of a column; its comment shows that wherever a fold gives
  another value than the float expression, a check fails at that height,
  with the fold and without it. Over arrays a primitive also skips an
  operation that is an exact identity at every height, such as v - (+0.0)
  (``_minus``). ``FLOATS`` sets both to ``None`` and folds nothing, since
  a float run's values at a failing check name its error; each fold sits
  behind a test of ``constant`` or ``axis``, so a float run pays one
  branch for it.

Its numbers support ``+``, ``-``, ``*``, ``/``, unary ``-``, ``abs`` and
the comparisons ``<``, ``<=``, ``>``, ``==`` and ``!=``, which give masks;
its masks support ``&`` and ``|``. A Python float and bool are numbers
and masks of ``FLOATS``.

All functions are pure and the value types are frozen, so instances can
be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

__all__ = [
    "Circle",
    "DegenerateRayError",
    "GeometryError",
    "Line",
    "OffLineError",
    "Point",
    "Segment",
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


# Binds a field of a new value, past ``_Value.__setattr__``. Python keeps
# attributes set this way inline in the instance; a ``vars(self)`` call
# would add a dict object to every value (248 against 104 bytes per
# ``LocusPoint`` on Python 3.11).
_bind = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A subclass names its constructor's fields in ``__match_args__`` and
    binds each one once in ``__init__``, with ``_bind``. ``==``, ``hash``
    and ``repr`` read the fields named in ``_fields``: the constructor's,
    unless the class names others. Assigning or deleting any attribute
    raises ``AttributeError``. The fields are plain instance attributes,
    so ``pickle`` and ``copy`` work unchanged.
    """

    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    # The compared fields' values: a tuple, or a lone field's value.
    _key: Callable[[Any], Any]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls.__match_args__
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Point(_Value):
    """A labeled 2D coordinate in the canonical construction frame."""

    __match_args__ = ("x", "y", "label")

    def __init__(self, x: float, y: float, label: str | None = None) -> None:
        _bind(self, "x", float(x))
        _bind(self, "y", float(y))
        _bind(self, "label", label)
        # Through the class attribute, which the benchmark's tracer wraps to count calls.
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_finite(self.x, self.y)
        label = self.label
        if label is not None:
            if not isinstance(label, str):
                raise ValueError(f"point label must be a string or None, got {label!r}")
            if not label:
                raise ValueError("point label must be non-empty when present")


class Segment(_Value):
    """A straight segment between two points."""

    __match_args__ = ("start", "end")

    def __init__(self, start: Point, end: Point) -> None:
        _bind(self, "start", start)
        _bind(self, "end", end)


class Circle(_Value):
    """A circle of positive, finite radius."""

    __match_args__ = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        radius = float(radius)
        _circle(FLOATS, center, radius)
        _bind(self, "center", center)
        _bind(self, "radius", radius)


class Line(_Value):
    """An infinite line through ``anchor`` with a unit ``direction``."""

    __match_args__ = ("anchor", "direction")

    def __init__(self, anchor: Point, direction: tuple[float, float]) -> None:
        ux, uy = float(direction[0]), float(direction[1])
        _line(FLOATS, anchor, ux, uy)
        _bind(self, "anchor", anchor)
        _bind(self, "direction", (ux, uy))


def _raise_unless(ok: bool, error: type[Exception], message: str, *values: Any) -> None:
    if not ok:
        raise error(message.format(*values))


_NOT_FINITE = "point coordinates must be finite, got ({}, {})"


def _check_finite(x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(_NOT_FINITE.format(x, y))


_EPS_REL = 1e-9
_EPS_ABS = 1e-12


def _tolerance(maximum: Callable[[Any, Any], Any], not_: Callable[[Any], Any]) -> dict[str, Any]:
    """A namespace's ``tangent`` and ``on_line``, over its own elementwise max and not.

    The kernel's relative/absolute tolerance pair, read only here: a gap
    between a circle's squared radius r² and a line's squared distance
    from its centre counts as zero when |gap| <= max(_EPS_ABS, _EPS_REL·r²),
    and a point's offset from a line when it is at most _EPS_REL·max(1, s),
    s its distance from the line's anchor. That floor is at least 1e-9, so
    _EPS_ABS would never raise it; r² can fall below 1e-3, so the band
    keeps it.
    """

    def tangent(gap: Any, r2: Any) -> tuple[Any, Any]:
        band = maximum(_EPS_ABS, _EPS_REL * r2)
        return not_(gap < -band), gap <= band

    def on_line(off: Any, span: Any) -> Any:
        # Written so that a nan offset (an overflowing one) fails too.
        return off <= _EPS_REL * maximum(1.0, span)

    return {"tangent": tangent, "on_line": on_line}


class _Namespace:
    """A numeric namespace: the methods the module docstring names, as attributes.

    Not a ``SimpleNamespace``: CPython 3.11 does not specialize a plain read
    of its attributes, ~35 ns against ~5 ns on a plain instance, and a
    float run of a kind's program reads ``constant`` or ``axis`` 7 times.
    """

    def __init__(self, **methods: Any) -> None:
        for name, method in methods.items():
            setattr(self, name, method)


FLOATS = _Namespace(
    sqrt=math.sqrt,
    hypot=math.hypot,
    where=lambda condition, a, b: a if condition else b,
    **_tolerance(max, operator.not_),
    check=_raise_unless,
    check_finite=_check_finite,
    constant=None,
    axis=None,
)


def _point(ns: Any, x: Any, y: Any) -> tuple[Any, Any]:
    """``Point``'s finite check."""
    ns.check_finite(x, y)
    return x, y


_NOT_POSITIVE = "circle radius must be positive, got {}"


def _circle(ns: Any, center: Any, radius: Any) -> tuple[Any, Any]:
    # Two checks with one message: the first fails a nan radius too, so a
    # float run raises what one check of both would, and a run ANDs its
    # masks anyway.
    ns.check(radius > 0.0, ValueError, _NOT_POSITIVE, radius)
    ns.check(radius < math.inf, ValueError, _NOT_POSITIVE, radius)
    return center, radius


def _line(ns: Any, anchor: Any, ux: Any, uy: Any) -> tuple[Any, tuple[Any, Any]]:
    # Written so that a nan direction fails too.
    unit = abs(ns.hypot(ux, uy) - 1.0) <= 1e-9
    ns.check(unit, ValueError, "line direction must be a unit vector, got ({}, {})", ux, uy)
    return anchor, (ux, uy)


def _minus(constant: Any, v: Any, w: Any) -> Any:
    """v - w over arrays, whose ``constant`` is given: v itself where w is one +0.0.

    v - (+0.0) is v for every v, -0.0 and nan included, so the fold gives
    the float expression's value at every height. Only the folds call this;
    a float run computes v - w inline.
    """
    return v if constant(w) and not w and math.copysign(1.0, w) > 0.0 else v - w


def _distance(ns: Any, p: Any, q: Any) -> Any:
    constant = ns.constant
    if constant:
        return ns.hypot(_minus(constant, q[0], p[0]), _minus(constant, q[1], p[1]))
    return ns.hypot(q[0] - p[0], q[1] - p[1])


def _midpoint(ns: Any, p: Any, q: Any) -> tuple[Any, Any]:
    return _point(ns, (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def _extend(ns: Any, through: Any, frm: Any, dist: Any) -> tuple[Any, Any]:
    ns.check(dist > 0.0, GeometryError, "extension distance must be positive, got {}", dist)
    dx, dy = through[0] - frm[0], through[1] - frm[1]
    norm = ns.hypot(dx, dy)
    ns.check(norm != 0.0, DegenerateRayError, "ray through coincident points is undefined")
    # A ray component that is one exact zero stays that zero: where both
    # checks pass, dist * ±0 / norm is ±0. Where they pass and dist or norm
    # is infinite or nan, the other component, whose |.| is the norm, makes
    # the other coordinate infinite or nan, and the point's check fails.
    constant = ns.constant
    x = through[0] + (dx if constant and constant(dx) and not dx else dist * dx / norm)
    y = through[1] + (dy if constant and constant(dy) and not dy else dist * dy / norm)
    return _point(ns, x, y)


def _line_through(ns: Any, p: Any, q: Any) -> tuple[Any, tuple[Any, Any]]:
    axis = ns.axis
    if axis:
        constant = ns.constant
        dx, dy = _minus(constant, q[0], p[0]), _minus(constant, q[1], p[1])
    else:
        dx, dy = q[0] - p[0], q[1] - p[1]
    norm = ns.hypot(dx, dy)
    ns.check(norm != 0.0, DegenerateRayError, "cannot draw a line through coincident points")
    direction = axis and axis(dx, dy)
    if direction:
        return _line(ns, p, *direction)
    return _line(ns, p, dx / norm, dy / norm)


def _perpendicular(ns: Any, at: Any, base: Any) -> tuple[Any, tuple[Any, Any]]:
    (ax, ay), (ux, uy) = base
    off_x, off_y = at[0] - ax, at[1] - ay
    # cross product against a unit direction = signed distance to the line
    off = abs(off_x * uy - off_y * ux)
    ns.check(ns.on_line(off, ns.hypot(off_x, off_y)), OffLineError, "point ({}, {}) does not lie on the base line", *at)
    # The base's unit direction, which its own line check passed, turned a quarter.
    return at, (-uy, ux)


def _circle_line(ns: Any, circle: Any, line: Any) -> tuple[Any, Any, Any, Any, Any, Any]:
    """Where a circle meets a line: (met, tangent, foot, low, high, low_last).

    A tangent (``ns.tangent``; it holds where they miss too) touches at
    the foot; elsewhere they cross at ``low`` and ``high``.
    Sorted stably by (y, x), [low, high] ends with low only where ``low_last``.
    """
    (center_x, center_y), radius = circle
    (ax, ay), (ux, uy) = line
    constant = ns.constant
    cx = _minus(constant, center_x, ax) if constant else center_x - ax
    cy = center_y - ay
    # On a line along y, ux one exact zero, cx*ux is ±0 wherever cx is
    # finite, and ±0 + v is v for any v but -0.0, so t0 is cy*uy. Where cx
    # is not finite, t0 is nan and the returned point fails; with t0 = cy*uy,
    # hx is cx or nan, so h² is infinite (a miss) or the gap nan (a nan y).
    upright = constant and constant(ux) and not ux
    along = cy * uy
    t0 = along if upright and constant(along) and (along or math.copysign(1.0, along) > 0.0) else cx * ux + along
    foot_x = ax + t0 * ux
    foot_y = ay + t0 * uy
    hx = _minus(constant, center_x, foot_x) if constant else center_x - foot_x
    hy = center_y - foot_y
    # x*x is the correctly rounded square; x ** 2 goes through libm pow. A
    # square is never -0.0, so adding a square that is one zero changes nothing.
    h2 = hx * hx if upright and constant(hy) and not hy * hy else hx * hx + hy * hy
    r2 = radius * radius
    gap = r2 - h2
    met, tangent = ns.tangent(gap, r2)
    half = ns.sqrt(ns.where(tangent, 0.0, gap))
    # half is +0 or positive and finite, or nan on a nan gap, where y is nan
    # and the returned point fails; so where ux is one exact zero, half*ux is
    # ux. half*(+1.0) is half, and as half is never -0.0, ±0 + half is half.
    shift_x = ux if upright else half * ux
    shift_y = half if upright and constant(uy) and uy == 1.0 else half * uy
    high_y = half if upright and shift_y is half and constant(foot_y) and not foot_y else foot_y + shift_y
    low = (foot_x - shift_x, foot_y - shift_y)
    high = (foot_x + shift_x, high_y)
    if upright and shift_y is half:
        # A line up along y: low's y, foot_y - half, is never above high's,
        # foot_y + half, as half is +0 or above or nan, rounding is monotone
        # and a nan compares false. So low never comes last.
        low_last = False
    elif upright:
        # Where ux is one exact zero, the crossings' x, foot_x ∓ ux, are equal
        # (or nan) at every height, so low's x is never the greater: no tie breaks.
        low_last = low[1] > high[1]
    else:
        low_last = (low[1] > high[1]) | ((low[1] == high[1]) & (low[0] > high[0]))
    return met, tangent, (foot_x, foot_y), low, high, low_last


def _highest(ns: Any, circle: Any, line: Any, *miss: Any) -> tuple[Any, Any]:
    """The intersection point highest by (y, x); where none, ``ns.check(False, *miss)``."""
    met, tangent, foot, low, high, low_last = _circle_line(ns, circle, line)
    ns.check(met, *miss)
    x = ns.where(tangent, foot[0], ns.where(low_last, low[0], high[0]))
    # Over arrays low_last is the literal False only on a line up along y,
    # where high's y is foot_y + half (or half itself where foot_y is ±0).
    # At a tangent half is sqrt(+0.0) = +0.0, so where foot_y is one +0.0,
    # high's y is foot's bit for bit there, and the tangent's choice is high's.
    foot_y = foot[1]
    if ns.constant and low_last is False and ns.constant(foot_y) and not foot_y and math.copysign(1.0, foot_y) > 0.0:
        y = high[1]
    else:
        y = ns.where(tangent, foot_y, ns.where(low_last, low[1], high[1]))
    # Only the point returned is checked. A finite foot and gap give |half| <=
    # r < 1.4e154, under half an ulp of the largest float, so low and high are
    # non-finite only together, on a nan gap; an infinite gap misses or touches.
    return _point(ns, x, y)


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
    met, tangent, foot, low, high, low_last = _circle_line(
        FLOATS, ((center.x, center.y), circle.radius), ((anchor.x, anchor.y), line.direction)
    )
    if not met:
        return []
    if tangent:
        return [Point(*foot)]
    points = [Point(*low), Point(*high)]
    return points[::-1] if low_last else points
