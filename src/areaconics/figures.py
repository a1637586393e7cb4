"""Renderer-neutral scenes and deterministic SVG emission.

A Scene is an ordered list of styled primitives (segments, arcs, dots,
labels, solid or dashed) in world coordinates; ``render_svg`` turns it
into an SVG 1.1 document with mathematical +y pointing up. Rendering is
a pure function: equal scenes produce byte-identical documents.

Styling follows the diagram conventions used throughout this package:
dashed strokes for rectangle tops (and the hyperbola's conjugate axis
and asymptotes), solid strokes for companion-square boundaries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from typing import Any

from .constructions import ApplicationKind, ApplicationResult, ApplicationSpec, _run_application
from .kernel import Circle, Point, Segment, _bind, _Value, distance
from .locus import (
    _APPLICATION_KIND,
    Branch,
    ConicKind,
    ConicSpec,
    LocusPoint,
    SampleRange,
    _family,
    conic_params,
    mirror,
    sample_locus,
)

__all__ = [
    "Arc",
    "DASH_PATTERN",
    "Dot",
    "EmptySceneError",
    "FIGURE_PARAMS",
    "FigureError",
    "Label",
    "SVG_SCALE",
    "Scene",
    "Stroke",
    "StyledPrimitive",
    "standard_figure",
    "render_svg",
    "scene_from_application",
    "scene_from_locus",
]


class FigureError(ValueError):
    """Invalid figure request or scene."""


class EmptySceneError(FigureError):
    """A scene with no primitives cannot be rendered."""


class Stroke(Enum):
    SOLID = "solid"
    DASHED = "dashed"


class Arc(_Value):
    """Circular arc, angles in radians with start < end, counterclockwise."""

    __match_args__ = ("circle", "start_angle", "end_angle")

    def __init__(self, circle: Circle, start_angle: float, end_angle: float) -> None:
        start_angle, end_angle = float(start_angle), float(end_angle)
        if not (start_angle < end_angle):
            raise FigureError(f"arc angles must satisfy start < end, got [{start_angle}, {end_angle}]")
        _bind(self, "circle", circle)
        _bind(self, "start_angle", start_angle)
        _bind(self, "end_angle", end_angle)


class Dot(_Value):
    """A marked point."""

    __match_args__ = ("point",)

    def __init__(self, point: Point) -> None:
        _bind(self, "point", point)


class Label(_Value):
    """Non-empty text placed next to ``anchor``."""

    __match_args__ = ("anchor", "text")

    def __init__(self, anchor: Point, text: str) -> None:
        if not text:
            raise FigureError("label text must be non-empty")
        _bind(self, "anchor", anchor)
        _bind(self, "text", text)


class StyledPrimitive(_Value):
    """A shape and its stroke."""

    __match_args__ = ("shape", "stroke")

    def __init__(self, shape: Segment | Arc | Dot | Label, stroke: Stroke = Stroke.SOLID) -> None:
        _bind(self, "shape", shape)
        _bind(self, "stroke", stroke)


def _shape_extent(shape: Segment | Arc | Dot | Label) -> tuple[float, float, float, float]:
    if isinstance(shape, Segment):
        xs = (shape.start.x, shape.end.x)
        ys = (shape.start.y, shape.end.y)
        return min(xs), min(ys), max(xs), max(ys)
    if isinstance(shape, Arc):
        c, r = shape.circle.center, shape.circle.radius
        return c.x - r, c.y - r, c.x + r, c.y + r
    if isinstance(shape, Dot):
        return shape.point.x, shape.point.y, shape.point.x, shape.point.y
    return shape.anchor.x, shape.anchor.y, shape.anchor.x, shape.anchor.y


def _extent(primitives: tuple[StyledPrimitive, ...]) -> tuple[float, float, float, float]:
    boxes = [_shape_extent(p.shape) for p in primitives]
    return (
        min(b[0] for b in boxes),
        min(b[1] for b in boxes),
        max(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


class Scene(_Value):
    """Ordered styled primitives, with an optional explicit bounding box."""

    __match_args__ = ("primitives", "bounds")

    def __init__(
        self, primitives: Sequence[StyledPrimitive], bounds: tuple[float, float, float, float] | None = None
    ) -> None:
        primitives = tuple(primitives)
        if bounds is not None and primitives:
            x0, y0, x1, y1 = bounds
            ex0, ey0, ex1, ey1 = _extent(primitives)
            slack = 1e-9 * max(1.0, abs(x0), abs(y0), abs(x1), abs(y1))
            if ex0 < x0 - slack or ey0 < y0 - slack or ex1 > x1 + slack or ey1 > y1 + slack:
                raise FigureError("explicit scene bounds do not contain all primitives")
        _bind(self, "primitives", primitives)
        _bind(self, "bounds", bounds)


def scene_from_application(result: ApplicationResult) -> Scene:
    """Diagram of one application: base, rectangle, square, semicircle, labels.

    The rectangle top is dashed and extended, when needed, to reach the
    square's side line so that the intersection point J always sits on
    drawn lines; the companion square is solid, its side through I
    likewise extended up to J when the height exceeds the side.
    """
    points = result.figure_points
    corner = result.spec.family.corner_suffix
    height = result.spec.height_y
    side = result.square_side_g
    prims: list[StyledPrimitive] = []

    def seg(p: Point, q: Point, stroke: Stroke = Stroke.SOLID) -> None:
        prims.append(StyledPrimitive(Segment(Point(p.x, p.y), Point(q.x, q.y)), stroke))

    rect_corner, rect_top = points["B" + corner], points["C" + corner]
    # The carrier and the dashed top reach the farther of B and the applied corner.
    if rect_corner.x > points["B"].x:
        far_base, far_top = rect_corner, rect_top
    else:
        far_base, far_top = points["B"], points["C"]

    # Base carrier from E to the far corner; all base points lie on it.
    seg(points["E"], far_base)
    # Applied rectangle: vertical sides solid, top dashed.
    seg(points["A"], points["D"])
    seg(rect_corner, rect_top)
    if corner:
        seg(points["B"], points["C"])
    top_end = max(far_top.x, side)
    seg(points["D"], Point(top_end, height), Stroke.DASHED)
    # Companion square, side through I extended up to J when height > side.
    seg(points["A"], points["I"])
    seg(points["I"], Point(points["I"].x, max(side, height)))
    seg(points["H"], points["G"])
    seg(points["G"], points["A"])
    # Construction semicircle and the radius FG.
    radius = distance(points["F"], points["E"])
    prims.append(StyledPrimitive(Arc(Circle(points["F"], radius), 0.0, math.pi)))
    seg(points["F"], points["G"])
    for name, point in points.items():
        prims.append(StyledPrimitive(Dot(point)))
        prims.append(StyledPrimitive(Label(point, name)))
    return Scene(tuple(prims))


def _clip_line_to_box(
    anchor: tuple[float, float],
    direction: tuple[float, float],
    box: tuple[float, float, float, float],
) -> tuple[Point, Point] | None:
    """Clip an infinite line to an axis-aligned box (slab method)."""
    ax, ay = anchor
    dx, dy = direction
    t_lo, t_hi = -math.inf, math.inf
    for pos, vel, lo, hi in ((ax, dx, box[0], box[2]), (ay, dy, box[1], box[3])):
        if vel == 0.0:
            if pos < lo or pos > hi:
                return None
            continue
        t_a, t_b = (lo - pos) / vel, (hi - pos) / vel
        if t_a > t_b:
            t_a, t_b = t_b, t_a
        t_lo, t_hi = max(t_lo, t_a), min(t_hi, t_b)
    if not (t_lo < t_hi):
        return None
    return (
        Point(ax + t_lo * dx, ay + t_lo * dy),
        Point(ax + t_hi * dx, ay + t_hi * dy),
    )


def scene_from_locus(points: Sequence[LocusPoint], spec: ConicSpec) -> Scene:
    """Diagram of sampled locus points with their generating lines.

    Each point gets a dot, the dashed top of its applied rectangle, and
    the solid boundary of its companion square (both extended so they
    meet at the point). Lower-branch points carry the reflected
    construction below the conjugate axis. For the hyperbola the scene
    also shows the dashed conjugate axis and both dashed asymptotes,
    clipped to the scene bounds.
    """
    if not points:
        raise EmptySceneError("cannot build a scene from an empty locus")
    family = _family(spec.kind, spec.base_L, spec.lam)
    prims: list[StyledPrimitive] = []
    for p in points:
        prims.append(StyledPrimitive(Dot(Point(p.x, p.y))))
        if p.x == 0.0:
            continue
        # A lower-branch point carries its upper twin's construction,
        # reflected across the conjugate axis.
        lower = p.branch is Branch.LOWER
        height = family.reflect(p.y) if lower else p.y
        b = family.rect_base(height)
        sign = 1.0 if p.x > 0.0 else -1.0
        reach = max(b, abs(p.x))
        prims.append(
            StyledPrimitive(Segment(Point(0.0, p.y), Point(sign * reach, p.y)), Stroke.DASHED)
        )
        side = max(abs(p.x), height)
        foot, top = (family.reflect(0.0), family.reflect(side)) if lower else (0.0, side)
        prims.append(StyledPrimitive(Segment(Point(p.x, foot), Point(p.x, top))))
    if spec.kind is ConicKind.HYPERBOLA:
        assert spec.conjugate_axis_y is not None and spec.asymptote_slopes is not None
        box = _extent(tuple(prims))
        axis_y = spec.conjugate_axis_y
        prims.append(
            StyledPrimitive(
                Segment(Point(box[0], axis_y), Point(box[2], axis_y)), Stroke.DASHED
            )
        )
        for slope in spec.asymptote_slopes:
            clipped = _clip_line_to_box((0.0, axis_y), (1.0, slope), box)
            if clipped is not None:
                prims.append(StyledPrimitive(Segment(*clipped), Stroke.DASHED))
        return Scene(tuple(prims), bounds=box)
    return Scene(tuple(prims), bounds=_extent(tuple(prims)))


# Rendering constants, all in SVG user units; world coordinates are
# multiplied by SVG_SCALE so the fixed dash pattern and widths read well.
SVG_SCALE = 40.0
DASH_PATTERN = "6 4"
_STROKE_WIDTH = 1.2
_DOT_RADIUS = 2.2
_FONT_SIZE = 11.0
_LABEL_DX = 5.0
_LABEL_DY = -6.0
_STROKE_COLOR = "#1a1a1a"
_FONT_FAMILY = "Helvetica, Arial, sans-serif"
# viewBox padding: 5% of the larger dimension on every side, floored so
# dot radii and label offsets stay visible in tiny scenes.
_PAD_FRACTION = 0.05
_PAD_MIN = 4.0


def _escape(text: str) -> str:
    """Escape &, > and < for XML character data, as ``xml.sax.saxutils.escape``.

    Kept local: importing ``xml.sax`` pulls ``urllib``, ``http`` and ``ssl``
    into every CLI process.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    out = f"{value:.6g}"
    return "0" if out == "-0" else out


def render_svg(scene: Scene) -> str:
    """Serialize a scene to an SVG 1.1 document.

    The viewBox is the bounding box of all primitives expanded by 10%
    (5% per side, with a small floor for degenerate scenes); the y axis
    is flipped so mathematical +y points up; dashed strokes use the
    fixed pattern "6 4" in user units. Output is byte-deterministic.
    """
    if not scene.primitives:
        raise EmptySceneError("cannot render an empty scene")

    def tx(x: float, y: float) -> tuple[float, float]:
        return SVG_SCALE * x, -SVG_SCALE * y

    xs: list[float] = []
    ys: list[float] = []

    def mark(x: float, y: float) -> None:
        xs.append(x)
        ys.append(y)

    elements: list[str] = []
    for prim in scene.primitives:
        dash = f' stroke-dasharray="{DASH_PATTERN}"' if prim.stroke is Stroke.DASHED else ""
        shape = prim.shape
        if isinstance(shape, Segment):
            x1, y1 = tx(shape.start.x, shape.start.y)
            x2, y2 = tx(shape.end.x, shape.end.y)
            mark(x1, y1)
            mark(x2, y2)
            elements.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{_STROKE_COLOR}" stroke-width="{_fmt(_STROKE_WIDTH)}"{dash} />'
            )
        elif isinstance(shape, Arc):
            circle = shape.circle
            r = circle.radius * SVG_SCALE
            sx, sy = tx(
                circle.center.x + circle.radius * math.cos(shape.start_angle),
                circle.center.y + circle.radius * math.sin(shape.start_angle),
            )
            ex, ey = tx(
                circle.center.x + circle.radius * math.cos(shape.end_angle),
                circle.center.y + circle.radius * math.sin(shape.end_angle),
            )
            ccx, ccy = tx(circle.center.x, circle.center.y)
            mark(ccx - r, ccy - r)
            mark(ccx + r, ccy + r)
            # World-counterclockwise arcs run against the flipped axis: sweep 0.
            large = "1" if shape.end_angle - shape.start_angle > math.pi else "0"
            d = (
                f"M {_fmt(sx)} {_fmt(sy)} "
                f"A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(ex)} {_fmt(ey)}"
            )
            elements.append(
                f'<path d="{d}" fill="none" stroke="{_STROKE_COLOR}" '
                f'stroke-width="{_fmt(_STROKE_WIDTH)}"{dash} />'
            )
        elif isinstance(shape, Dot):
            cx, cy = tx(shape.point.x, shape.point.y)
            mark(cx, cy)
            elements.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_DOT_RADIUS)}" '
                f'fill="{_STROKE_COLOR}" />'
            )
        else:
            ax, ay = tx(shape.anchor.x, shape.anchor.y)
            lx, ly = ax + _LABEL_DX, ay + _LABEL_DY
            mark(lx, ly)
            # Reserve an estimated glyph box so padding never clips text.
            mark(lx + 0.7 * _FONT_SIZE * len(shape.text), ly - _FONT_SIZE)
            elements.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="{_FONT_FAMILY}" '
                f'font-size="{_fmt(_FONT_SIZE)}" fill="{_STROKE_COLOR}">'
                f"{_escape(shape.text)}</text>"
            )

    if scene.bounds is not None:
        wx0, wy0, wx1, wy1 = scene.bounds
        min_x, max_x = SVG_SCALE * wx0, SVG_SCALE * wx1
        min_y, max_y = -SVG_SCALE * wy1, -SVG_SCALE * wy0
    else:
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
    width = max_x - min_x
    height = max_y - min_y
    pad = max(_PAD_FRACTION * max(width, height), _PAD_MIN)
    view = (min_x - pad, min_y - pad, width + 2.0 * pad, height + 2.0 * pad)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">'
    )
    parts.extend(elements)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Bundled default parameters for the nine standard figures. The values
# are artifact choices picked for legible proportions; none are forced
# by the constructions themselves.
FIGURE_PARAMS: dict[int, dict[str, Any]] = {
    1: {"kind": "exact", "base": 4.0, "height": 1.5},
    2: {"kind": "exact", "base": 2.0, "height": 4.5},
    3: {"kind": "parabola", "base": 4.0, "y_min": 1.0, "y_max": 3.5, "samples": 3},
    4: {"kind": "deficient", "base": 4.0, "lambda": 1.0, "height": 1.0},
    5: {"kind": "deficient", "base": 4.0, "lambda": 1.0, "height": 2.5},
    6: {"kind": "ellipse", "base": 4.0, "lambda": 0.5, "y_min": 2.0, "y_max": 6.0, "samples": 3},
    7: {"kind": "excess", "base": 2.0, "lambda": 1.0, "height": 0.8},
    8: {"kind": "excess", "base": 1.0, "lambda": 0.25, "height": 2.0},
    9: {"kind": "hyperbola", "base": 2.0, "lambda": 1.0, "height": 2.0},
}


def standard_figure(n: int) -> str:
    """Render standard figure ``n`` (1-9) with its bundled defaults.

    Figures 1-2 show the exact application (base longer, then shorter,
    than the height); 4-5 the deficient one (applied base at least, then
    under, half the segment); 7-8 the excessive one (applied base
    longer, then shorter, than the height); 3, 6, and 9 show mirrored
    parabola, ellipse, and hyperbola locus samples, figure 9 with both
    branches and the asymptotes.
    """
    if n not in FIGURE_PARAMS:
        raise FigureError(f"figure number must be between 1 and 9, got {n}")
    params = FIGURE_PARAMS[n]
    kind, base, lam = params["kind"], params["base"], params.get("lambda")
    if kind in {k.value for k in ApplicationKind}:
        spec = ApplicationSpec(ApplicationKind(kind), base, params["height"], lam)
        return render_svg(scene_from_application(_run_application(spec)))
    conic = ConicKind(kind)
    if "height" in params:
        # One application and its reflection: a point on each branch.
        result = _run_application(ApplicationSpec(_APPLICATION_KIND[conic], base, params["height"], lam))
        g, y = result.square_side_g, result.spec.height_y
        points = [LocusPoint(g, y, Branch.UPPER), LocusPoint(g, result.spec.family.reflect(y), Branch.LOWER)]
    else:
        sample_range = SampleRange(params["y_min"], params["y_max"], params["samples"])
        points = sample_locus(conic, base, sample_range, lam)
    return render_svg(scene_from_locus(mirror(points), conic_params(conic, base, lam)))
