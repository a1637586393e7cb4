import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from areaconics import kernel
from areaconics._batched import ARRAYS, _Run, execute_batched
from areaconics.constructions import (
    ConstructionStep,
    ConstructionTrace,
    StepOp,
    _compile,
    apply_deficient,
    apply_exact,
    apply_excess,
    replay_trace,
)
from areaconics.kernel import (
    _EPS_ABS,
    _EPS_REL,
    FLOATS,
    Circle,
    DegenerateRayError,
    GeometryError,
    Line,
    OffLineError,
    Point,
    _highest,
    distance,
    erect_perpendicular,
    extend_along_ray,
    intersect_circle_line,
    line_through,
    midpoint,
)


def test_midpoint_examples():
    assert midpoint(Point(-1, 0), Point(4, 0)) == Point(1.5, 0.0)
    assert midpoint(Point(0, 0), Point(0, 0)) == Point(0.0, 0.0)
    assert midpoint(Point(0, 0), Point(2, 2)) == Point(1.0, 1.0)


def test_midpoint_equidistant_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = Point(*rng.uniform(-50, 50, 2))
        q = Point(*rng.uniform(-50, 50, 2))
        if p == q:
            continue
        m = midpoint(p, q)
        gap = distance(p, q)
        assert abs(distance(m, p) - distance(m, q)) <= _EPS_REL * gap


def test_extend_along_ray_examples():
    assert extend_along_ray(Point(0, 0), Point(4, 0), 1.0) == Point(-1.0, 0.0)
    assert extend_along_ray(Point(1, 0), Point(0, 0), 2.0) == Point(3.0, 0.0)
    assert extend_along_ray(Point(0, 0), Point(0, 3), 1.5) == Point(0.0, -1.5)


def test_extend_along_ray_degenerate():
    with pytest.raises(DegenerateRayError):
        extend_along_ray(Point(1, 1), Point(1, 1), 1.0)
    with pytest.raises(ValueError):
        extend_along_ray(Point(0, 0), Point(1, 0), 0.0)


def test_erect_perpendicular_on_axis():
    x_axis = Line(Point(0, 0), (1.0, 0.0))
    perp = erect_perpendicular(Point(0, 0), x_axis)
    assert perp.anchor == Point(0.0, 0.0)
    assert perp.direction == (0.0, 1.0)

    perp2 = erect_perpendicular(Point(2, 0), x_axis)
    assert perp2.anchor.x == 2.0
    assert abs(perp2.direction[0]) < 1e-15 and abs(perp2.direction[1]) == 1.0


def test_erect_perpendicular_diagonal():
    root_half = 1.0 / math.sqrt(2.0)
    diag = Line(Point(0, 0), (root_half, root_half))
    perp = erect_perpendicular(Point(1, 1), diag)
    ux, uy = perp.direction
    assert abs(ux * root_half + uy * root_half) <= 1e-12
    # direction is (-1, 1)/sqrt(2) up to sign
    assert abs(abs(ux * -root_half + uy * root_half) - 1.0) <= 1e-12


def test_erect_perpendicular_off_line():
    with pytest.raises(OffLineError):
        erect_perpendicular(Point(0, 1), Line(Point(0, 0), (1.0, 0.0)))


def test_intersect_circle_line_secant():
    # 1.5**2 + y**2 = 2.5**2 solved by hand gives y = +-2
    circle = Circle(Point(1.5, 0), 2.5)
    vertical = Line(Point(0, 0), (0.0, 1.0))
    points = intersect_circle_line(circle, vertical)
    assert len(points) == 2
    assert points[0] == Point(0.0, -2.0)
    assert points[1] == Point(0.0, 2.0)


def test_intersect_circle_line_tangent_and_disjoint():
    circle = Circle(Point(0, 0), 1.0)
    assert intersect_circle_line(circle, Line(Point(0, 1), (1.0, 0.0))) == [Point(0.0, 1.0)]
    assert intersect_circle_line(circle, Line(Point(0, 2), (1.0, 0.0))) == []


def test_intersect_circle_line_sort_order():
    # equal y: ties broken by ascending x
    points = intersect_circle_line(Circle(Point(0, 0), 1.0), Line(Point(0, 0), (1.0, 0.0)))
    assert points == [Point(-1.0, 0.0), Point(1.0, 0.0)]


def test_intersect_circle_line_membership_property():
    rng = np.random.default_rng(7)
    for _ in range(300):
        center = Point(*rng.uniform(-10, 10, 2))
        radius = float(rng.uniform(0.1, 5.0))
        anchor = Point(*rng.uniform(-10, 10, 2))
        angle = float(rng.uniform(0, 2 * math.pi))
        line = Line(anchor, (math.cos(angle), math.sin(angle)))
        for p in intersect_circle_line(Circle(center, radius), line):
            assert abs(distance(p, center) - radius) <= max(_EPS_ABS, _EPS_REL * radius) * 10
            ux, uy = line.direction
            cross = (p.x - anchor.x) * uy - (p.y - anchor.y) * ux
            assert abs(cross) <= 1e-9 * max(1.0, distance(p, anchor))


def test_intersect_circle_line_reflection_symmetry():
    rng = np.random.default_rng(11)

    def reflect_x(p):
        return Point(p.x, -p.y)

    def reflect_y(p):
        return Point(-p.x, p.y)

    for _ in range(100):
        center = Point(*rng.uniform(-5, 5, 2))
        radius = float(rng.uniform(0.5, 3.0))
        anchor = Point(*rng.uniform(-5, 5, 2))
        angle = float(rng.uniform(0, 2 * math.pi))
        direction = (math.cos(angle), math.sin(angle))
        base = intersect_circle_line(Circle(center, radius), Line(anchor, direction))

        flipped_x = intersect_circle_line(
            Circle(reflect_x(center), radius),
            Line(reflect_x(anchor), (direction[0], -direction[1])),
        )
        assert sorted((round(p.x, 9), round(-p.y, 9)) for p in base) == sorted(
            (round(p.x, 9), round(p.y, 9)) for p in flipped_x
        )

        flipped_y = intersect_circle_line(
            Circle(reflect_y(center), radius),
            Line(reflect_y(anchor), (-direction[0], direction[1])),
        )
        assert sorted((round(-p.x, 9), round(p.y, 9)) for p in base) == sorted(
            (round(p.x, 9), round(p.y, 9)) for p in flipped_y
        )


def test_pythagorean_closure():
    # for F=(f,0), A=(0,0), G=(0,g): |FG|^2 = f^2 + g^2
    rng = np.random.default_rng(4771)
    for _ in range(1000):
        f = float(rng.uniform(-100, 100))
        g = float(rng.uniform(-100, 100))
        lhs = distance(Point(f, 0), Point(0, g)) ** 2
        rhs = f * f + g * g
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_double_perpendicular_is_parallel():
    rng = np.random.default_rng(13)
    for _ in range(100):
        anchor = Point(*rng.uniform(-5, 5, 2))
        angle = float(rng.uniform(0, 2 * math.pi))
        base = Line(anchor, (math.cos(angle), math.sin(angle)))
        once = erect_perpendicular(anchor, base)
        twice = erect_perpendicular(anchor, once)
        dot = twice.direction[0] * base.direction[0] + twice.direction[1] * base.direction[1]
        assert abs(abs(dot) - 1.0) <= 1e-12


def test_distance_examples():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(2, 7), Point(2, 7)) == 0.0
    assert distance(Point(-1, 0), Point(4, 0)) == 5.0


def test_line_through():
    line = line_through(Point(0, 0), Point(3, 0))
    assert line.direction == (1.0, 0.0)
    with pytest.raises(DegenerateRayError):
        line_through(Point(1, 2), Point(1, 2))


def test_type_invariants():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))
    with pytest.raises(ValueError):
        Point(0.0, 0.0, "")
    with pytest.raises(ValueError):
        Circle(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        Circle(Point(0, 0), -1.0)
    with pytest.raises(ValueError):
        Line(Point(0, 0), (1.0, 1.0))


def test_nan_direction_is_not_a_unit_vector():
    # The span overflows to inf, so the normalized direction is (nan, 0).
    with pytest.raises(ValueError, match="unit vector"):
        line_through(Point(-1e308, 0.0), Point(1e308, 0.0))
    with pytest.raises(ValueError, match="unit vector"):
        Line(Point(0.0, 0.0), (math.nan, 0.0))


def test_overflowing_offset_is_off_the_line():
    # The point is 5 above the line y = 0, but its offset along the line
    # overflows, and inf * 0 makes the cross product nan.
    base = Line(Point(-1e308, 0.0), (1.0, 0.0))
    with pytest.raises(OffLineError):
        erect_perpendicular(Point(1e308, 5.0), base)


def test_a_secant_whose_squares_overflow_fails_on_its_nan_points():
    # r**2 and h**2 both overflow, so the gap r**2 - h**2 is inf - inf =
    # nan: neither a miss nor a tangent, and both secant points are nan.
    message = "point coordinates must be finite, got (nan, nan)"
    with pytest.raises(ValueError) as caught:
        intersect_circle_line(Circle(Point(0.0, 0.0), 2e200), Line(Point(0.0, 1e200), (1.0, 0.0)))
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
    # The same circle and line at row 1 of a batched run, after a plain
    # secant at row 0 (radius 2, line y = 1).
    radius, height = np.array([2.0, 2e200]), np.array([1.0, 1e200])
    circle = ((0.0, 0.0), radius)
    line = ((0.0, height), (1.0, 0.0))
    run = _Run()
    with np.errstate(all="ignore"):
        _highest(run, circle, line, ValueError, "circle and line do not meet")
    assert run.ok.tolist() == [True, False]
    # The program: circle O(|OR|); the perpendicular at P to the line from
    # U down to O, the line through P along +x; their highest meeting point.
    steps = (
        ConstructionStep(StepOp.DESCRIBE_CIRCLE, ("O", "O", "R"), "circle", "I.Def.18"),
        ConstructionStep(StepOp.ERECT_PERPENDICULAR, ("P", "U", "O"), "line", "I.11"),
        ConstructionStep(StepOp.INTERSECT_CIRCLE_LINE, ("circle", "line"), "X", "II.14"),
    )
    zeros = np.zeros(2)
    given = {"O": (zeros, zeros), "R": (radius, zeros), "P": (zeros, height), "U": (zeros, zeros + 1.0)}
    program = _compile(tuple(given), steps)
    with pytest.raises(ValueError) as caught:
        execute_batched(program, given)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
    # Row 0 alone runs: the secant through (+-sqrt(3), 1), highest by (y, x).
    env = execute_batched(program, {label: (x[:1], y[:1]) for label, (x, y) in given.items()})
    assert (env["X"][0][0], env["X"][1][0]) == (math.sqrt(3.0), 1.0)


# The methods that ``kernel``'s docstring says a namespace provides, and
# the folds among them, which ``FLOATS`` sets to None.
NAMESPACE_METHODS = ("sqrt", "hypot", "maximum", "where", "not_", "check", "check_finite", "constant", "axis")
FOLDS = ("constant", "axis")


@pytest.mark.parametrize("ns", [FLOATS, _Run()], ids=["FLOATS", "_Run"])
def test_a_namespace_provides_every_method_the_kernel_names(ns):
    for name in NAMESPACE_METHODS:
        assert f"``{name}(" in kernel.__doc__, name
        if ns is FLOATS and name in FOLDS:
            assert getattr(ns, name) is None, name
        else:
            assert callable(getattr(ns, name)), name


def test_the_namespaces_hold_the_contract_and_nothing_more():
    assert sorted(vars(FLOATS)) == sorted(NAMESPACE_METHODS)
    # A run adds the two checks, and its mask, to the array methods.
    assert sorted(vars(ARRAYS)) == sorted(set(NAMESPACE_METHODS) - {"check", "check_finite"})


def test_the_float_finite_check_raises_points_error():
    for x, y in ((math.inf, 0.0), (0.0, math.nan), (-math.inf, math.inf)):
        with pytest.raises(ValueError) as caught:
            FLOATS.check_finite(x, y)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"point coordinates must be finite, got ({x}, {y})"
        with pytest.raises(ValueError) as built:
            Point(x, y)
        assert str(built.value) == str(caught.value)
    FLOATS.check_finite(5e-324, -1e308)


def test_a_run_folds_each_finite_check_into_its_mask():
    run = _Run()
    run.check_finite(np.array([1.0, math.inf, 2.0, math.nan]), np.float64(0.0))
    assert run.ok.tolist() == [True, False, True, False]
    run.check_finite(np.float64(1.0), np.array([0.0, 0.0, -math.inf, 0.0]))
    assert run.ok.tolist() == [True, False, False, False]


def test_a_run_folds_a_check_on_constants_alone_in_python():
    run = _Run()
    run.check(np.True_, ValueError, "")
    assert run.ok is np.True_
    run.check(np.array([True, False]), ValueError, "")
    mask = run.ok
    run.check(np.True_, ValueError, "")
    assert run.ok is mask
    # A failing 0-d mask fails every height.
    run.check_finite(np.float64(math.inf), np.float64(0.0))
    assert run.ok is np.False_


@pytest.mark.parametrize(
    "application, checks",
    [
        (lambda: apply_exact(2.0, 1.5), 32),
        (lambda: apply_deficient(4.0, 1.0, 1.0), 36),
        (lambda: apply_excess(2.0, 0.5, 1.5), 36),
    ],
    ids=["exact", "deficient", "excess"],
)
def test_a_construct_op_checks_each_point_once_per_build(monkeypatch, application, checks):
    # An application builds its 4 (exact) or 6 given Points, its 6 steps
    # each check the one point they make, and it builds those 6 Points. The
    # trace's JSON round trip builds the given Points again, and its replay
    # runs the same 6 steps and builds the same 6 Points.
    counted = []
    check_finite, post_init = FLOATS.check_finite, Point.__post_init__
    monkeypatch.setattr(FLOATS, "check_finite", lambda x, y: counted.append((x, y)) or check_finite(x, y))
    monkeypatch.setattr(Point, "__post_init__", lambda self: counted.append(self) or post_init(self))
    result = application()
    replay_trace(ConstructionTrace.from_json(result.trace.to_json()))
    assert len(counted) == checks


MISS = "circle and line do not meet"
AXES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


@st.composite
def circles_and_lines(draw):
    """A circle and a line at one scale from 1e-300 to 1e300.

    Past ~1e154 a squared length overflows: r² and h² together give a nan
    gap, r² alone an infinite one (a tangent), h² alone a miss. Far below
    1, every meeting falls in the tangent band.
    """
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))

    def coordinate():
        return scale * draw(st.floats(-2.0, 2.0))

    center = Point(coordinate(), coordinate())
    radius = scale * draw(st.floats(1e-3, 2.0))
    anchor = Point(center.x + coordinate(), center.y + coordinate())
    angles = st.floats(0.0, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a)))
    return Circle(center, radius), Line(anchor, draw(st.sampled_from(AXES) | angles))


def _values(circle, line):
    """cx, cy, r, ax, ay, ux, uy."""
    return (circle.center.x, circle.center.y, circle.radius, line.anchor.x, line.anchor.y, *line.direction)


def _highest_of(ns, cx, cy, r, ax, ay, ux, uy):
    return _highest(ns, ((cx, cy), r), ((ax, ay), (ux, uy)), GeometryError, MISS)


@settings(max_examples=300, deadline=None)
@given(st.lists(circles_and_lines(), min_size=1, max_size=6))
@example([(Circle(Point(0.0, 0.0), 1.0), Line(Point(0.0, 1.0), (1.0, 0.0)))])  # a tangent
@example([(Circle(Point(0.0, 0.0), 1.0), Line(Point(0.0, 2.0), (1.0, 0.0)))])  # a miss
@example([(Circle(Point(0.0, 0.0), 2e200), Line(Point(0.0, 1e200), (1.0, 0.0)))])  # a nan gap
@example([(Circle(Point(0.0, 0.0), 2e200), Line(Point(0.0, 1.0), (0.0, 1.0)))])  # r² alone overflows
@example([(Circle(Point(0.0, 0.0), 1.0), Line(Point(1e200, 0.0), (0.0, 1.0)))])  # h² alone overflows
def test_highest_is_the_last_point_intersect_circle_line_sorts(cases):
    # Over floats, each case on its own: the point, or the error.
    expected = []
    for circle, line in cases:
        try:
            points = intersect_circle_line(circle, line)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                _highest_of(FLOATS, *_values(circle, line))
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
            expected.append(None)
            continue
        if not points:
            with pytest.raises(GeometryError, match=MISS):
                _highest_of(FLOATS, *_values(circle, line))
            expected.append(None)
            continue
        x, y = _highest_of(FLOATS, *_values(circle, line))
        assert (x.hex(), y.hex()) == (points[-1].x.hex(), points[-1].y.hex())
        expected.append((x, y))
    # Over a run, one row per case: the same outcome at each row.
    run = _Run()
    with np.errstate(all="ignore"):
        xs, ys = _highest_of(run, *np.array([_values(circle, line) for circle, line in cases]).T)
    assert run.ok.tolist() == [point is not None for point in expected]
    for x, y, point in zip(xs.tolist(), ys.tolist(), expected):
        if point is not None:
            assert (x.hex(), y.hex()) == (point[0].hex(), point[1].hex())
