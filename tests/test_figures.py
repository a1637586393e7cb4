import math
import xml.etree.ElementTree as ET

import pytest

from areaconics.constructions import apply_deficient, apply_exact, apply_excess
from areaconics.figures import (
    Arc,
    Dot,
    EmptySceneError,
    FIGURE_PARAMS,
    FigureError,
    Label,
    SVG_SCALE,
    Scene,
    Stroke,
    StyledPrimitive,
    standard_figure,
    render_svg,
    scene_from_application,
    scene_from_locus,
)
from areaconics.kernel import Circle, Point, Segment, distance
from areaconics.locus import Branch, ConicKind, LocusPoint, SampleRange, conic_params, mirror, sample_locus


def _elements(svg_text, name):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.split("}")[-1] == name]


def _shapes(scene, cls):
    return [p for p in scene.primitives if isinstance(p.shape, cls)]


def test_scene_from_exact_application():
    scene = scene_from_application(apply_exact(4, 1))
    assert len(_shapes(scene, Arc)) == 1
    dots = _shapes(scene, Dot)
    labels = _shapes(scene, Label)
    assert len(dots) >= 9
    assert {p.shape.text for p in labels} >= {"A", "B", "J", "G", "I"}


def test_scene_from_excess_has_both_corners():
    scene = scene_from_application(apply_excess(2, 1, 1))
    labels = {p.shape.text: p.shape.anchor for p in _shapes(scene, Label)}
    assert "B" in labels and "B⁺" in labels
    assert labels["B"] != labels["B⁺"]
    assert labels["B⁺"].x > labels["B"].x


def test_scene_from_deficient_corner_order():
    scene = scene_from_application(apply_deficient(4, 1, 1))
    labels = {p.shape.text: p.shape.anchor for p in _shapes(scene, Label)}
    assert labels["B⁻"].x < labels["B"].x


def test_scene_from_locus_counts():
    points = mirror(sample_locus(ConicKind.PARABOLA, 4, SampleRange(1.0, 3.5, 3)))
    scene = scene_from_locus(points, conic_params(ConicKind.PARABOLA, 4))
    assert len(_shapes(scene, Dot)) == 6


def test_scene_from_locus_hyperbola_extras():
    points = mirror(sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(1.0, 2.0, 2), lam=1))
    spec = conic_params(ConicKind.HYPERBOLA, 2, lam=1)
    scene = scene_from_locus(points, spec)
    dashed_segments = [
        p.shape for p in scene.primitives
        if isinstance(p.shape, Segment) and p.stroke is Stroke.DASHED
    ]
    inclined = [s for s in dashed_segments if s.start.x != s.end.x and s.start.y != s.end.y]
    assert len(inclined) == 2
    horizontal_axis = [
        s for s in dashed_segments
        if s.start.y == s.end.y and s.start.y == spec.conjugate_axis_y
    ]
    assert len(horizontal_axis) == 1


def test_scene_from_locus_circle_case_dots_near_center():
    base = 2.0
    points = mirror(sample_locus(ConicKind.ELLIPSE, base, SampleRange(0.2, 1.8, 5), lam=1))
    scene = scene_from_locus(points, conic_params(ConicKind.ELLIPSE, base, lam=1))
    center = Point(0.0, base / 2.0)
    for prim in _shapes(scene, Dot):
        assert distance(prim.shape.point, center) <= base / 2.0 + 1e-9


def test_scene_from_locus_empty():
    with pytest.raises(EmptySceneError):
        scene_from_locus([], conic_params(ConicKind.PARABOLA, 4))


def test_scene_bounds_validation():
    dot = StyledPrimitive(Dot(Point(5, 5)))
    with pytest.raises(FigureError):
        Scene((dot,), bounds=(0.0, 0.0, 1.0, 1.0))
    Scene((dot,), bounds=(0.0, 0.0, 6.0, 6.0))  # containing bounds are fine


def test_arc_angle_validation():
    with pytest.raises(FigureError):
        Arc(Circle(Point(0, 0), 1.0), 1.0, 1.0)
    with pytest.raises(FigureError):
        Label(Point(0, 0), "")


def test_render_single_segment():
    scene = Scene((StyledPrimitive(Segment(Point(0, 0), Point(1, 1))),))
    svg = render_svg(scene)
    assert len(_elements(svg, "line")) == 1
    assert len(_elements(svg, "path")) == 0


def test_render_single_arc():
    scene = Scene((StyledPrimitive(Arc(Circle(Point(0, 0), 1.0), 0.0, math.pi)),))
    svg = render_svg(scene)
    paths = _elements(svg, "path")
    assert len(paths) == 1
    assert " A " in paths[0].get("d")


def test_render_empty_scene():
    with pytest.raises(EmptySceneError):
        render_svg(Scene(()))


def test_render_deterministic():
    scene = scene_from_application(apply_exact(4, 1.5))
    assert render_svg(scene) == render_svg(scene)


def test_render_declares_svg_11():
    svg = render_svg(scene_from_application(apply_exact(4, 1)))
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"
    assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_primitive_count_conservation():
    scene = scene_from_application(apply_deficient(4, 1, 2.5))
    svg = render_svg(scene)
    assert len(_elements(svg, "line")) == len(_shapes(scene, Segment))
    assert len(_elements(svg, "path")) == len(_shapes(scene, Arc))
    assert len(_elements(svg, "circle")) == len(_shapes(scene, Dot))
    assert len(_elements(svg, "text")) == len(_shapes(scene, Label))


def test_viewbox_contains_all_coordinates():
    svg = render_svg(scene_from_application(apply_excess(1, 4, 2)))
    root = ET.fromstring(svg)
    x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
    x1, y1 = x0 + w, y0 + h

    def inside(x, y):
        assert x0 <= x <= x1 and y0 <= y <= y1

    for el in root.iter():
        tag = el.tag.split("}")[-1]
        if tag == "line":
            inside(float(el.get("x1")), float(el.get("y1")))
            inside(float(el.get("x2")), float(el.get("y2")))
        elif tag == "circle":
            inside(float(el.get("cx")), float(el.get("cy")))
        elif tag == "text":
            inside(float(el.get("x")), float(el.get("y")))
        elif tag == "path":
            tokens = el.get("d").split()
            inside(float(tokens[1]), float(tokens[2]))
            inside(float(tokens[-2]), float(tokens[-1]))


def test_dash_pattern_applied():
    svg = render_svg(scene_from_application(apply_exact(4, 1)))
    dashed = [el for el in _elements(svg, "line") if el.get("stroke-dasharray")]
    assert dashed, "the rectangle top must be dashed"
    assert all(el.get("stroke-dasharray") == "6 4" for el in dashed)


def test_standard_figure_range():
    with pytest.raises(FigureError):
        standard_figure(0)
    with pytest.raises(FigureError):
        standard_figure(10)


@pytest.mark.parametrize("n", sorted(FIGURE_PARAMS))
def test_standard_figures_well_formed(n):
    svg = standard_figure(n)
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"
    assert len(svg) > 200


def test_figure9_structure():
    svg = standard_figure(9)
    dashed = [el for el in _elements(svg, "line") if el.get("stroke-dasharray")]
    inclined = [
        el for el in dashed
        if float(el.get("x1")) != float(el.get("x2")) and float(el.get("y1")) != float(el.get("y2"))
    ]
    assert len(inclined) == 2
    params = FIGURE_PARAMS[9]
    axis_svg_y = SVG_SCALE * params["base"] / (2.0 * params["lambda"])
    conjugate = [
        el for el in dashed
        if float(el.get("y1")) == float(el.get("y2"))
        and abs(float(el.get("y1")) - axis_svg_y) < 1e-6
    ]
    assert len(conjugate) == 1
    assert standard_figure(9) == svg  # byte-identical rerun


def _view_box(scene):
    return tuple(float(v) for v in ET.fromstring(render_svg(scene)).get("viewBox").split())


@pytest.mark.parametrize("lam", [1.0, 0.25])
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("mirrored", [False, True])
def test_scene_from_locus_draws_one_branch_of_a_hyperbola(lam, branch, mirrored):
    points = [p for p in sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(1.0, 2.0, 3), lam=lam) if p.branch is branch]
    spec = conic_params(ConicKind.HYPERBOLA, 2, lam=lam)
    scene = scene_from_locus(mirror(points) if mirrored else points, spec)
    x0, y0, x1, y1 = scene.bounds
    assert y0 <= spec.conjugate_axis_y <= y1
    axis = [s for s in _shapes(scene, Segment) if s.shape.start.y == s.shape.end.y == spec.conjugate_axis_y]
    assert [(s.shape.start.x, s.shape.end.x) for s in axis] == [(x0, x1)]
    assert len(_elements(render_svg(scene), "circle")) == len(points) * (2 if mirrored else 1)


def test_scene_from_locus_clips_each_asymptote_on_its_line():
    lam = 0.25
    spec = conic_params(ConicKind.HYPERBOLA, 2, lam=lam)
    scene = scene_from_locus(mirror(sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(1.0, 2.0, 2), lam=lam)), spec)
    inclined = [
        p.shape for p in _shapes(scene, Segment) if p.shape.start.x != p.shape.end.x and p.shape.start.y != p.shape.end.y
    ]
    center, slope = spec.conjugate_axis_y, 1.0 / math.sqrt(lam)
    signs = []
    for segment in inclined:
        start, end = segment.start, segment.end
        signs.append(math.copysign(1.0, (end.y - start.y) * (end.x - start.x)))
        for p in (start, end):
            assert p.y == pytest.approx(center + signs[-1] * slope * p.x, rel=1e-12, abs=1e-12)
    assert sorted(signs) == [-1.0, 1.0]


def test_scene_from_locus_gives_a_point_on_the_axis_a_dot_only():
    scene = scene_from_locus([LocusPoint(0.0, 0.0)], conic_params(ConicKind.PARABOLA, 4))
    assert scene.primitives == (StyledPrimitive(Dot(Point(0.0, 0.0))),)


def test_a_lone_arc_views_its_whole_circle():
    # The circle's box, 120 units square, plus 5% of it on every side.
    scene = Scene((StyledPrimitive(Arc(Circle(Point(1.0, 2.0), 1.5), 0.0, math.pi)),))
    assert _view_box(scene) == (-26.0, -146.0, 132.0, 132.0)


def test_a_lone_dot_views_the_minimum_padding():
    scene = Scene((StyledPrimitive(Dot(Point(1.0, 2.0))),))
    assert _view_box(scene) == (36.0, -84.0, 8.0, 8.0)


@pytest.mark.parametrize(
    "shape, inside, outside",
    [
        # The arc's whole circle, not only its half, must fit.
        (Arc(Circle(Point(1.0, 1.0), 1.0), 0.0, math.pi), (0.0, 0.0, 2.0, 2.0), (0.0, 1.0, 2.0, 2.0)),
        (Label(Point(1.0, 1.0), "A"), (1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.5, 2.0)),
    ],
)
def test_scene_bounds_hold_arcs_and_labels(shape, inside, outside):
    primitive = StyledPrimitive(shape)
    assert Scene((primitive,), bounds=inside).bounds == inside
    with pytest.raises(FigureError, match="explicit scene bounds do not contain all primitives"):
        Scene((primitive,), bounds=outside)
