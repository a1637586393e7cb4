import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from areaconics.constructions import (
    ApplicationKind,
    ApplicationSpec,
    ConstructionError,
    ConstructionStep,
    ConstructionTrace,
    DeficiencyExceedsBaseError,
    GeometricFailureError,
    InfeasibleAreaError,
    MalformedTraceError,
    StepOp,
    apply_deficient,
    apply_exact,
    apply_excess,
    _PROGRAMS,
    _Program,
    _STEPS,
    replay_trace,
    solve_height_for_area,
)
from areaconics import constructions
from areaconics.kernel import Circle, GeometryError, Line, Point, distance, intersect_circle_line


def test_apply_exact_reference_case():
    # by hand: E=(-1,0), F=(1.5,0), radius 2.5, AG^2 = 2.5^2 - 1.5^2 = 4
    result = apply_exact(4, 1)
    points = result.figure_points
    assert points["E"] == Point(-1.0, 0.0, "E")
    assert points["F"] == Point(1.5, 0.0, "F")
    assert distance(points["F"], points["E"]) == 2.5
    assert result.square_side_g == 2.0
    assert (result.J.x, result.J.y) == (2.0, 1.0)
    assert result.rect_base_b == 4.0
    assert result.area_X == 4.0
    assert set(points) == {"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"}


def test_apply_exact_square_case():
    result = apply_exact(1, 1)
    assert result.square_side_g == 1.0
    assert (result.J.x, result.J.y) == (1.0, 1.0)


def test_apply_exact_tall_case():
    # base shorter than height: g = sqrt(1*4) = 2
    result = apply_exact(1, 4)
    assert result.square_side_g == pytest.approx(2.0, rel=1e-12)
    assert result.square_side_g > result.spec.base_L


def test_apply_deficient_examples():
    result = apply_deficient(4, 1, 1)
    assert result.rect_base_b == 3.0
    assert result.area_X == 3.0
    assert result.square_side_g == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert (result.J.x, result.J.y) == pytest.approx((math.sqrt(3.0), 1.0), rel=1e-12)
    assert set(result.figure_points) == {
        "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "B⁻", "C⁻",
    }
    assert result.figure_points["B⁻"] == Point(3.0, 0.0, "B⁻")

    maximal = apply_deficient(4, 1, 2)
    assert maximal.rect_base_b == 2.0
    assert maximal.area_X == 4.0  # L^2/(4 lambda)

    sliver = apply_deficient(4, 1, 3.999)
    assert sliver.rect_base_b == pytest.approx(0.001, rel=1e-9)
    assert sliver.area_X == pytest.approx(0.003999, rel=1e-9)
    assert sliver.square_side_g == pytest.approx(math.sqrt(0.001 * 3.999), rel=1e-9)


def test_apply_deficient_infeasible():
    with pytest.raises(DeficiencyExceedsBaseError):
        apply_deficient(4, 1, 5)
    with pytest.raises(DeficiencyExceedsBaseError):
        apply_deficient(4, 1, 4)  # lambda*y == L exactly


def test_apply_excess_examples():
    result = apply_excess(2, 1, 1)
    assert result.rect_base_b == 3.0
    assert result.area_X == 3.0
    assert result.square_side_g == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert set(result.figure_points) == {
        "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "B⁺", "C⁺",
    }

    shallow = apply_excess(1, 1, 0.1)
    assert shallow.rect_base_b == pytest.approx(1.1, rel=1e-12)
    assert shallow.area_X == pytest.approx(0.11, rel=1e-12)
    assert shallow.square_side_g == pytest.approx(math.sqrt(0.11), rel=1e-12)

    steep = apply_excess(1, 4, 2)  # applied base shorter than height
    assert steep.rect_base_b == 9.0
    assert steep.area_X == 18.0
    assert steep.square_side_g == pytest.approx(math.sqrt(18.0), rel=1e-12)


def test_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(ConstructionError):
            apply_exact(bad, 1)
        with pytest.raises(ConstructionError):
            apply_exact(1, bad)
        with pytest.raises(ConstructionError):
            apply_excess(1, bad, 1)
    with pytest.raises(ConstructionError):
        ApplicationSpec(ApplicationKind.EXACT, 1.0, 1.0, lam=2.0)
    with pytest.raises(ConstructionError):
        ApplicationSpec(ApplicationKind.DEFICIENT, 4.0, 1.0)  # lambda missing


@pytest.mark.parametrize(
    "build",
    [lambda y: apply_exact(1, y), lambda y: apply_deficient(1, 0.5, y), lambda y: apply_excess(1, 1, y)],
    ids=["exact", "deficient", "excess"],
)
def test_an_infinite_height_is_a_domain_error(build):
    # Checked with the spec, as the base and lambda are, not by the kernel
    # at the first point built.
    with pytest.raises(ConstructionError) as caught:
        build(math.inf)
    assert type(caught.value) is ConstructionError
    assert str(caught.value) == "rectangle height must be positive and finite, got inf"


def test_construction_matches_algebra():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        base, height = (float(v) for v in rng.uniform(0.1, 100.0, 2))
        g = apply_exact(base, height).square_side_g
        assert abs(g * g - base * height) <= 1e-9 * base * height

    for _ in range(300):
        base = float(rng.uniform(0.1, 100.0))
        lam = float(rng.uniform(0.1, 10.0))
        height = float(rng.uniform(0.02, 0.98)) * base / lam
        g = apply_deficient(base, lam, height).square_side_g
        expected = base * height - lam * height * height
        assert abs(g * g - expected) <= 1e-9 * max(1.0, base * height)

        height = float(rng.uniform(0.1, 100.0))
        g = apply_excess(base, lam, height).square_side_g
        expected = base * height + lam * height * height
        assert abs(g * g - expected) <= 1e-9 * max(1.0, base * height + lam * height * height)


def test_bisection_identity():
    # (EA)(AB) + AF^2 == EF^2 for the constructed exact configuration
    rng = np.random.default_rng(55)
    for _ in range(200):
        base, height = (float(v) for v in rng.uniform(0.1, 50.0, 2))
        pts = apply_exact(base, height).figure_points
        ea = distance(pts["E"], pts["A"])
        ab = distance(pts["A"], pts["B"])
        af = distance(pts["A"], pts["F"])
        ef = distance(pts["E"], pts["F"])
        assert abs(ea * ab + af * af - ef * ef) <= 1e-9 * max(1.0, ef * ef)


def test_monotonicity_of_square_side():
    heights = [0.1 * k for k in range(1, 40)]
    exact = [apply_exact(4, y).square_side_g for y in heights]
    assert all(a < b for a, b in zip(exact, exact[1:]))
    excess = [apply_excess(4, 2, y).square_side_g for y in heights]
    assert all(a < b for a, b in zip(excess, excess[1:]))

    # deficient: increasing up to L/(2 lambda) = 2, then decreasing
    rising = [apply_deficient(4, 1, y).square_side_g for y in (0.5, 1.0, 1.5, 2.0)]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    falling = [apply_deficient(4, 1, y).square_side_g for y in (2.0, 2.5, 3.0, 3.5)]
    assert all(a > b for a, b in zip(falling, falling[1:]))


def test_solve_height_exact():
    assert solve_height_for_area(ApplicationKind.EXACT, 4, 4) == [1.0]


def test_solve_height_deficient_roots():
    # y^2 - 4y + 3 factors as (y-1)(y-3)
    roots = solve_height_for_area(ApplicationKind.DEFICIENT, 4, 3, lam=1)
    assert roots == pytest.approx([1.0, 3.0], rel=1e-12)
    # both roots reproduce the requested area through the construction
    for y in roots:
        assert apply_deficient(4, 1, y).area_X == pytest.approx(3.0, rel=1e-12)


def test_solve_height_deficient_vieta():
    rng = np.random.default_rng(77)
    for _ in range(200):
        base = float(rng.uniform(0.5, 20.0))
        lam = float(rng.uniform(0.1, 10.0))
        area = float(rng.uniform(0.01, 0.99)) * base * base / (4.0 * lam)
        lo, hi = solve_height_for_area(ApplicationKind.DEFICIENT, base, area, lam=lam)
        assert lo <= hi
        assert lo + hi == pytest.approx(base / lam, rel=1e-9)
        assert lo * hi == pytest.approx(area / lam, rel=1e-9)


def test_solve_height_deficient_maximum_duplicates_root():
    roots = solve_height_for_area(ApplicationKind.DEFICIENT, 4, 4, lam=1)
    assert roots == [2.0, 2.0]
    assert apply_deficient(4, 1, 2.0).rect_base_b == 2.0


def test_solve_height_infeasible_area():
    with pytest.raises(InfeasibleAreaError, match="maximum applicable area"):
        solve_height_for_area(ApplicationKind.DEFICIENT, 4, 5, lam=1)


def test_solve_height_accepts_areas_up_to_the_maximums_slack():
    # The maximum L**2/(4*lam) is 4, and areas up to 4*(1 + 1e-9) pass as rounding.
    edge = 4.0 * (1.0 + 1e-9)
    assert solve_height_for_area(ApplicationKind.DEFICIENT, 4, edge, lam=1) == [edge / 2.0, 2.0]
    with pytest.raises(InfeasibleAreaError, match="maximum applicable area"):
        solve_height_for_area(ApplicationKind.DEFICIENT, 4, math.nextafter(edge, math.inf), lam=1)


def test_solve_height_excess():
    roots = solve_height_for_area(ApplicationKind.EXCESS, 2, 3, lam=1)
    assert roots == pytest.approx([1.0], rel=1e-12)
    rng = np.random.default_rng(78)
    for _ in range(100):
        base = float(rng.uniform(0.5, 20.0))
        lam = float(rng.uniform(0.1, 10.0))
        area = float(rng.uniform(0.1, 200.0))
        (root,) = solve_height_for_area(ApplicationKind.EXCESS, base, area, lam=lam)
        assert root > 0
        assert lam * root * root + base * root == pytest.approx(area, rel=1e-9)


def test_solve_height_argument_errors():
    with pytest.raises(ConstructionError):
        solve_height_for_area(ApplicationKind.EXACT, 4, 4, lam=1)
    with pytest.raises(ConstructionError):
        solve_height_for_area(ApplicationKind.EXCESS, 4, 4)
    with pytest.raises(ConstructionError):
        solve_height_for_area(ApplicationKind.EXACT, -1, 4)
    with pytest.raises(ConstructionError):
        solve_height_for_area(ApplicationKind.EXACT, 4, 0)


def _area_residual(kind, base, area, lam, y):
    """|L*y + k*y**2 - area| over the sum of the terms' sizes, in exact arithmetic."""
    k = {"exact": 0, "deficient": -lam, "excess": lam}[kind.value]
    L, y, X, k = Fraction(base), Fraction(y), Fraction(area), Fraction(k or 0)
    return abs(L * y + k * y * y - X) / (L * y + abs(k) * y * y + X)


@pytest.mark.parametrize(
    "kind,base,area,lam,expected",
    [
        # 4*lam*area overflows: the float formula gave [0.0].
        (ApplicationKind.EXCESS, 1.0, 1e307, 10.0, [1e153]),
        # L**2 overflows: [0.0, inf].
        (ApplicationKind.DEFICIENT, 1e200, 1.0, 1.0, [1e-200, 1e200]),
        # 2*lam overflows: ZeroDivisionError.
        (ApplicationKind.DEFICIENT, 1e200, 1.0, 1e308, [1e-200, 1e-108]),
    ],
)
def test_solve_height_survives_overflowing_intermediates(kind, base, area, lam, expected):
    heights = solve_height_for_area(kind, base, area, lam)
    assert heights == pytest.approx(expected, rel=1e-12)
    assert all(_area_residual(kind, base, area, lam, y) < 1e-15 for y in heights)


@pytest.mark.parametrize(
    "kind,base,area,lam,match",
    [
        (ApplicationKind.EXACT, 1e-300, 1e300, None, "overflows the float range"),
        (ApplicationKind.EXACT, 1e300, 1e-300, None, "underflows the float range"),
        # y_hi ~ L/lam = 1e310; y_lo ~ 0.5 alone would hide the lost root.
        (ApplicationKind.DEFICIENT, 1.0, 0.5, 1e-310, "overflows the float range"),
        (ApplicationKind.EXCESS, 1.0, math.inf, 1.0, "area must be positive and finite"),
        (ApplicationKind.EXCESS, 1.0, math.nan, 1.0, "area must be positive and finite"),
    ],
)
def test_solve_height_unrepresentable_raises(kind, base, area, lam, match):
    with pytest.raises(ConstructionError, match=match):
        solve_height_for_area(kind, base, area, lam)


@pytest.mark.parametrize(
    "build",
    [
        lambda: apply_exact(4, 1),
        lambda: apply_deficient(4, 1, 1),
        lambda: apply_excess(2, 1, 1),
        lambda: apply_exact(2, 4.5),
    ],
)
def test_replay_reproduces_points_bit_exactly(build):
    result = build()
    replayed = replay_trace(result.trace)
    assert replayed == result.figure_points

    # through JSON serialization as well
    round_tripped = ConstructionTrace.from_json(result.trace.to_json())
    assert replay_trace(round_tripped) == result.figure_points


def test_replay_examples():
    result = apply_exact(4, 1)
    replayed = replay_trace(result.trace)
    assert replayed["G"] == Point(0.0, 2.0, "G")
    assert replayed["J"] == Point(2.0, 1.0, "J")


def test_replay_is_deterministic():
    trace = apply_deficient(4, 1, 1).trace
    assert replay_trace(trace) == replay_trace(trace)


def test_empty_trace():
    initial = (Point(0, 0, "A"), Point(4, 0, "B"))
    assert replay_trace(ConstructionTrace(initial, ())) == {
        "A": Point(0, 0, "A"),
        "B": Point(4, 0, "B"),
    }


def test_trace_undefined_label():
    initial = (Point(0, 0, "A"), Point(4, 0, "B"))
    step = ConstructionStep(StepOp.BISECT, ("Q", "B"), "F", "I.10")
    with pytest.raises(MalformedTraceError, match="'Q'"):
        replay_trace(ConstructionTrace(initial, (step,)))


def test_trace_duplicate_output_label():
    initial = (Point(0, 0, "A"), Point(4, 0, "B"))
    step = ConstructionStep(StepOp.BISECT, ("A", "B"), "A", "I.10")
    with pytest.raises(MalformedTraceError, match="already defined"):
        replay_trace(ConstructionTrace(initial, (step,)))


def test_trace_geometric_failure():
    initial = (Point(0, 0, "A"), Point(1, 0, "B"), Point(3, 0, "P"))
    steps = (
        ConstructionStep(StepOp.DESCRIBE_CIRCLE, ("A", "A", "B"), "small", "Post.3"),
        ConstructionStep(StepOp.ERECT_PERPENDICULAR, ("P", "A", "P"), "far", "I.11"),
        ConstructionStep(StepOp.INTERSECT_CIRCLE_LINE, ("small", "far"), "X", "I.3"),
    )
    with pytest.raises(GeometricFailureError):
        replay_trace(ConstructionTrace(initial, steps))


@pytest.mark.parametrize("up", [1.0, -1.0])
def test_a_tie_in_y_goes_to_the_larger_x_on_either_side_of_the_foot(up):
    """A horizontal secant through A: the line runs along -x for up = 1, +x for up = -1."""
    initial = (Point(0, 0, "A"), Point(1, 0, "U"), Point(0, up, "V"))
    steps = (
        ConstructionStep(StepOp.DESCRIBE_CIRCLE, ("A", "A", "U"), "c", "Post.3"),
        ConstructionStep(StepOp.ERECT_PERPENDICULAR, ("A", "A", "V"), "l", "I.11"),
        ConstructionStep(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X", "I.1"),
    )
    assert replay_trace(ConstructionTrace(initial, steps))["X"] == Point(1.0, 0.0, "X")
    line = Line(Point(0, 0), (-up, 0.0))
    assert intersect_circle_line(Circle(Point(0, 0), 1.0), line) == [Point(-1.0, 0.0), Point(1.0, 0.0)]


AB = (Point(0, 0, "A"), Point(1, 0, "B"))


@pytest.mark.parametrize(
    "initial, steps, message",
    [
        (
            AB,
            ((StepOp.DESCRIBE_CIRCLE, ("A", "A", "B"), "c"), (StepOp.BISECT, ("c", "A"), "M")),
            "step 'M': input 'c' must be a point",
        ),
        (
            AB,
            ((StepOp.MARK_SEGMENT, ("A", "B"), "s"), (StepOp.BISECT, ("A", "s"), "M")),
            "step 'M': input 's' must be a point",
        ),
        (
            AB,
            ((StepOp.MARK_SEGMENT, ("A", "B"), "s"), (StepOp.INTERSECT_CIRCLE_LINE, ("A", "s"), "X")),
            "step 'X': input 'A' must be a circle",
        ),
        (
            AB,
            ((StepOp.DESCRIBE_CIRCLE, ("A", "A", "B"), "c"), (StepOp.INTERSECT_CIRCLE_LINE, ("c", "B"), "X")),
            "step 'X': input 'B' must be a line",
        ),
        ((Point(0, 0, "A"), Point(1, 0, "A")), (), "initial label 'A' defined twice"),
        (AB, ((StepOp.BISECT, ("Q", "B"), "F"),), "step input label 'Q' is not defined"),
        (AB, ((StepOp.BISECT, ("A", "B"), "A"),), "output label 'A' already defined"),
    ],
)
def test_malformed_trace_messages(initial, steps, message):
    steps = tuple(ConstructionStep(op, inputs, output, "I.1") for op, inputs, output in steps)
    with pytest.raises(MalformedTraceError) as caught:
        replay_trace(ConstructionTrace(initial, steps))
    assert type(caught.value) is MalformedTraceError
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "late_step, message",
    [
        ((StepOp.BISECT, ("Q", "A"), "M"), "step input label 'Q' is not defined"),
        ((StepOp.BISECT, ("small", "A"), "M"), "step 'M': input 'small' must be a point"),
    ],
)
def test_malformed_later_step_is_reported_before_an_earlier_geometric_failure(late_step, message):
    """The whole trace is checked before any step runs."""
    initial = (Point(0, 0, "A"), Point(1, 0, "B"), Point(3, 0, "P"))
    steps = (
        ConstructionStep(StepOp.DESCRIBE_CIRCLE, ("A", "A", "B"), "small", "Post.3"),
        ConstructionStep(StepOp.ERECT_PERPENDICULAR, ("P", "A", "P"), "far", "I.11"),
        ConstructionStep(StepOp.INTERSECT_CIRCLE_LINE, ("small", "far"), "X", "I.3"),
        ConstructionStep(*late_step, "I.10"),
    )
    with pytest.raises(MalformedTraceError) as caught:
        replay_trace(ConstructionTrace(initial, steps))
    assert str(caught.value) == message


def test_trace_arity_and_labels_validated():
    with pytest.raises(MalformedTraceError):
        ConstructionStep(StepOp.BISECT, ("A",), "F", "I.10")
    with pytest.raises(MalformedTraceError):
        ConstructionStep(StepOp.BISECT, ("A", "B"), "", "I.10")
    with pytest.raises(MalformedTraceError):
        ConstructionStep(StepOp.BISECT, ("A", "B"), "F", "")
    with pytest.raises(MalformedTraceError):
        ConstructionTrace((Point(0, 0),), ())  # unlabeled initial point


def test_trace_json_schema():
    trace = apply_exact(4, 1).trace
    doc = json.loads(trace.to_json())
    assert set(doc) == {"initial", "steps"}
    assert doc["initial"][0] == {"label": "A", "x": 0.0, "y": 0.0}
    first = doc["steps"][0]
    assert set(first) == {"op", "inputs", "output", "citation"}
    assert first["op"] == "Extend"
    assert first["output"] == "E"
    # every step cites a proposition
    assert all(step["citation"] for step in doc["steps"])


def test_trace_from_json_malformed():
    with pytest.raises(MalformedTraceError):
        ConstructionTrace.from_json("not json")
    with pytest.raises(MalformedTraceError):
        ConstructionTrace.from_json(json.dumps({"steps": []}))
    with pytest.raises(MalformedTraceError):
        ConstructionTrace.from_json(
            json.dumps(
                {
                    "initial": [{"label": "A", "x": 0, "y": 0}],
                    "steps": [{"op": "Undefined", "inputs": [], "output": "X", "citation": "I.1"}],
                }
            )
        )


def _bisect_document(inputs, x=4.0):
    return json.dumps(
        {
            "initial": [{"label": "A", "x": 0.0, "y": 0.0}, {"label": "B", "x": x, "y": 0.0}],
            "steps": [{"op": "Bisect", "inputs": inputs, "output": "F", "citation": "I.10"}],
        }
    )


@pytest.mark.parametrize(
    "inputs, message",
    [
        # A string would be split into one-character labels, B⁻ into two.
        ("AB", "step inputs must be a JSON array, got 'AB'"),
        ("AB⁻", "step inputs must be a JSON array, got 'AB⁻'"),
        ({"A": 0, "B": 1}, "step inputs must be a JSON array, got {'A': 0, 'B': 1}"),
        # Not iterable at all: the conversion's own error, as before.
        (5, "invalid trace document: 'int' object is not iterable"),
        (None, "invalid trace document: 'NoneType' object is not iterable"),
    ],
)
def test_trace_inputs_must_be_a_json_array(inputs, message):
    with pytest.raises(MalformedTraceError) as caught:
        ConstructionTrace.from_json(_bisect_document(inputs))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "x, message",
    [
        ("4.0", "trace coordinate must be a JSON number, got '4.0'"),
        ("nan", "trace coordinate must be a JSON number, got 'nan'"),
        (True, "trace coordinate must be a JSON number, got True"),
        (False, "trace coordinate must be a JSON number, got False"),
        (None, "invalid trace document: float() argument must be a string or a real number, not 'NoneType'"),
    ],
)
def test_trace_coordinates_must_be_json_numbers(x, message):
    with pytest.raises(MalformedTraceError) as caught:
        ConstructionTrace.from_json(_bisect_document(["A", "B"], x))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "edits, message",
    [
        # The value types' own messages: Point's wrapped as a document error.
        ({("initial", 1, "label"): None}, "initial points must be labeled"),
        ({("initial", 1, "label"): 7}, "invalid trace document: point label must be a string or None, got 7"),
        ({("steps", 0, "inputs"): ["A", 7]}, "step input label must be a string, got 7"),
        ({("steps", 0, "inputs"): [None, "B"]}, "step input label must be a string, got None"),
        ({("steps", 0, "inputs"): ["", "B"]}, "step input label must be non-empty"),
        ({("steps", 0, "output"): None}, "step output label must be a string, got None"),
        ({("steps", 0, "output"): 7}, "step output label must be a string, got 7"),
        ({("steps", 0, "citation"): 10}, "step citation must be a string, got 10"),
        ({("steps", 0, "citation"): None}, "step citation must be a string, got None"),
        ({("steps", 0, "citation"): True}, "step citation must be a string, got True"),
        # Checked in order: a point's x and y, then Point's checks; a step's
        # inputs array and op, then ConstructionStep's: arity, input labels,
        # output, citation.
        ({("initial", 1, "label"): None, ("initial", 1, "y"): "0"}, "trace coordinate must be a JSON number, got '0'"),
        ({("steps", 0, "output"): None, ("steps", 0, "citation"): 7}, "step output label must be a string, got None"),
        ({("steps", 0, "inputs"): [7], ("steps", 0, "output"): None}, "Bisect expects 2 inputs, got 1"),
        (
            {("steps", 0, "op"): "Undefined", ("steps", 0, "output"): None},
            "invalid trace document: 'Undefined' is not a valid StepOp",
        ),
    ],
)
def test_trace_labels_and_citations_must_be_json_strings(edits, message):
    doc = json.loads(_bisect_document(["A", "B"]))
    for (part, i, key), value in edits.items():
        doc[part][i][key] = value
    with pytest.raises(MalformedTraceError) as caught:
        ConstructionTrace.from_json(json.dumps(doc))
    assert str(caught.value) == message


@given(
    labels=st.lists(st.text(min_size=1), min_size=3, max_size=3, unique=True),
    citation=st.text(min_size=1),
)
def test_every_buildable_trace_reads_back_from_its_json(labels, citation):
    # A non-string label or citation fails at construction (see test_values).
    a, b, f = labels
    trace = ConstructionTrace((Point(0, 0, a), Point(4, 0, b)), (ConstructionStep(StepOp.BISECT, (a, b), f, citation),))
    assert ConstructionTrace.from_json(trace.to_json()) == trace
    assert replay_trace(trace)[f] == Point(2.0, 0.0, f)


def _label_fields(doc):
    """Where a trace document holds a label or citation, as (entry, key) pairs: a
    given point's label, a step's output and citation, and each of its inputs."""
    fields = [(point, "label") for point in doc["initial"]]
    for step in doc["steps"]:
        fields += [(step, "output"), (step, "citation")] + [(step["inputs"], i) for i in range(len(step["inputs"]))]
    return fields


_NOT_STRINGS = st.one_of(
    st.none(),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


# The reader leaves labels and citations to the value types: a document reads
# exactly when Point, ConstructionStep and ConstructionTrace accept its fields.
@settings(deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(ApplicationKind)))
def test_a_trace_document_reads_exactly_when_its_value_types_accept_it(data, kind):
    doc = APPLICATIONS[kind]().trace.to_json_dict()
    field = data.draw(st.sampled_from(range(len(_label_fields(doc)))))

    def edited(value):
        copied = json.loads(json.dumps(doc))
        entry, key = _label_fields(copied)[field]
        entry[key] = value
        return copied

    bad = edited(data.draw(_NOT_STRINGS))
    for read in (lambda: ConstructionTrace.from_json(json.dumps(bad)), lambda: ConstructionTrace.from_json_dict(bad)):
        with pytest.raises(MalformedTraceError):
            read()
    good = edited(data.draw(st.text(min_size=1)))
    built = ConstructionTrace(
        [Point(p["x"], p["y"], p["label"]) for p in good["initial"]],
        [ConstructionStep(StepOp(s["op"]), s["inputs"], s["output"], s["citation"]) for s in good["steps"]],
    )
    assert ConstructionTrace.from_json(json.dumps(good)) == built
    assert ConstructionTrace.from_json_dict(good) == built


@pytest.mark.parametrize("x", [4, 4.0])
def test_trace_coordinates_may_be_json_integers(x):
    trace = ConstructionTrace.from_json(_bisect_document(["A", "B"], x))
    assert replay_trace(trace)["F"] == Point(2.0, 0.0, "F")


APPLICATIONS = {
    ApplicationKind.EXACT: lambda: apply_exact(4, 1),
    ApplicationKind.DEFICIENT: lambda: apply_deficient(4, 1, 1),
    ApplicationKind.EXCESS: lambda: apply_excess(2, 0.5, 1.5),
}


def _hex_points(points):
    return {label: (p.x.hex(), p.y.hex()) for label, p in points.items()}


def _count_step_validations(monkeypatch):
    counted = []
    validate = ConstructionStep.__post_init__

    def counting(self):
        counted.append(self)
        validate(self)

    monkeypatch.setattr(ConstructionStep, "__post_init__", counting)
    return counted


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_parsing_an_applications_trace_returns_its_canonical_steps(kind, monkeypatch):
    text = APPLICATIONS[kind]().trace.to_json()
    built = _count_step_validations(monkeypatch)
    parsed = ConstructionTrace.from_json(text)
    assert built == []
    assert len(parsed.steps) == len(_STEPS[kind])
    assert all(got is want for got, want in zip(parsed.steps, _STEPS[kind]))


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_a_parsed_applications_trace_holds_its_kinds_step_tuple(kind):
    parsed = ConstructionTrace.from_json(APPLICATIONS[kind]().trace.to_json())
    assert parsed.steps is _STEPS[kind]


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_a_trace_with_a_changed_citation_validates_every_step_and_replays_bit_exactly(kind, monkeypatch):
    result = APPLICATIONS[kind]()
    doc = result.trace.to_json_dict()
    doc["steps"][4]["citation"] = "III.3"
    built = _count_step_validations(monkeypatch)
    parsed = ConstructionTrace.from_json(json.dumps(doc))
    canonical = _STEPS[kind]
    assert len(built) == len(canonical) and all(got is step for got, step in zip(built, parsed.steps))
    assert parsed.steps[4] == ConstructionStep(canonical[4].op, canonical[4].inputs, canonical[4].output, "III.3")
    assert all(got == want for i, (got, want) in enumerate(zip(parsed.steps, canonical)) if i != 4)
    assert _hex_points(replay_trace(parsed)) == _hex_points(result.figure_points)


def _count_compiles(monkeypatch):
    calls = []
    compile_ = constructions._compile
    monkeypatch.setattr(constructions, "_compile", lambda *args: calls.append(args) or compile_(*args))
    return calls


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_replaying_a_parsed_trace_runs_its_kinds_program_without_compiling(kind, monkeypatch):
    result = APPLICATIONS[kind]()
    parsed = ConstructionTrace.from_json(result.trace.to_json())
    compiled = _count_compiles(monkeypatch)
    ran = []
    replay = _Program.replay
    monkeypatch.setattr(_Program, "replay", lambda program, initial: ran.append(program) or replay(program, initial))
    # The lookup reads no step's fields, to hash it or to compare it.
    read = []
    key, eq = ConstructionStep._key, ConstructionStep.__eq__
    monkeypatch.setattr(ConstructionStep, "_key", staticmethod(lambda step: read.append(step) or key(step)))
    monkeypatch.setattr(ConstructionStep, "__eq__", lambda step, other: read.append(step) or eq(step, other))
    replayed = replay_trace(parsed)
    assert compiled == [] and read == []
    assert len(ran) == 1 and ran[0] is _PROGRAMS[kind]
    assert _hex_points(replayed) == _hex_points(result.figure_points)


# Entries that hold an application's steps, written otherwise (the keys
# reordered, or an extra key): every step is built, and each equals its kind's.
@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize(
    "rewrite",
    [lambda entry: dict(reversed(entry.items())), lambda entry: entry | {"note": "extra"}],
    ids=["keys reordered", "extra key"],
)
def test_an_applications_steps_written_otherwise_replay_on_its_kinds_program(kind, rewrite, monkeypatch):
    result = APPLICATIONS[kind]()
    doc = result.trace.to_json_dict()
    doc["steps"] = [rewrite(entry) for entry in doc["steps"]]
    built = _count_step_validations(monkeypatch)
    compiled = _count_compiles(monkeypatch)
    ran = []
    replay = _Program.replay
    monkeypatch.setattr(_Program, "replay", lambda program, initial: ran.append(program) or replay(program, initial))
    replayed = replay_trace(ConstructionTrace.from_json(json.dumps(doc)))
    assert built == list(_STEPS[kind]) and compiled == []
    assert len(ran) == 1 and ran[0] is _PROGRAMS[kind]
    assert _hex_points(replayed) == _hex_points(result.figure_points)


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_an_edited_trace_compiles_on_every_replay_to_the_same_bits(kind, monkeypatch):
    result = APPLICATIONS[kind]()
    doc = result.trace.to_json_dict()
    doc["steps"][0]["citation"] = "Post.2"
    parsed = ConstructionTrace.from_json(json.dumps(doc))
    compiled = _count_compiles(monkeypatch)
    first, second = replay_trace(parsed), replay_trace(parsed)
    assert len(compiled) == 2
    assert _hex_points(first) == _hex_points(second) == _hex_points(result.figure_points)


# The canonical steps over given points that are not the kind's: each is
# compiled for itself, on the slots of its own given points.
@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize(
    "edit",
    [
        lambda given: given[::-1],
        lambda given: given[1:] + given[:1],
        # No step reads C.
        lambda given: [p for p in given if p.label != "C"],
        lambda given: given + [Point(5, 5, "Z")],
        lambda given: [Point(5, 5, "Z")] + given,
    ],
    ids=["reversed", "rotated", "C dropped", "Z appended", "Z prepended"],
)
def test_canonical_steps_over_other_given_points_replay_bit_exactly(kind, edit, monkeypatch):
    result = APPLICATIONS[kind]()
    canonical = {p.label for p in result.trace.initial}
    given = edit(list(result.trace.initial))
    compiled = _count_compiles(monkeypatch)
    replayed = replay_trace(ConstructionTrace(given, result.trace.steps))
    assert len(compiled) == 1
    made = {label: p for label, p in result.figure_points.items() if label not in canonical}
    expected = {p.label: p for p in given} | made
    assert list(_hex_points(replayed).items()) == list(_hex_points(expected).items())


@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda given: [p for p in given if p.label != "D"], "step input label 'D' is not defined"),
        (lambda given: given[1:], "step input label 'A' is not defined"),
        (lambda given: given + [Point(5, 5, "E")], "output label 'E' already defined"),
        (lambda given: given + given[:1], "initial label 'A' defined twice"),
    ],
    ids=["D dropped", "A dropped", "E added", "A repeated"],
)
def test_canonical_steps_over_other_given_points_fail_as_compiled(kind, edit, message):
    given = edit(list(APPLICATIONS[kind]().trace.initial))
    with pytest.raises(MalformedTraceError) as caught:
        replay_trace(ConstructionTrace(given, _STEPS[kind]))
    assert type(caught.value) is MalformedTraceError
    assert str(caught.value) == message


def _power_of_ten(exponent):
    return 10.0 ** min(300.0, max(-300.0, exponent))


# An application's compact trace text is written from its given points and
# its kind's step text; these pin it to the document's own encoding. L and y
# range over 1e-300..1e300 at one scale, with y/L and lambda*y/L within
# 1e-4..1e4: drawn independently, almost every triple fails in the kernel
# (squares that overflow or underflow, far-off ratios), and half or more of
# these still do, so the filter health check is off.
@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    kind=st.sampled_from(list(ApplicationKind)),
    scale=st.floats(-300.0, 300.0),
    tall=st.floats(-4.0, 4.0),
    wide=st.floats(-4.0, 4.0),
)
def test_an_applications_trace_text_is_its_documents_encoding(kind, scale, tall, wide):
    base, height, lam = _power_of_ten(scale), _power_of_ten(scale + tall), _power_of_ten(wide - tall)
    try:
        spec = ApplicationSpec(kind, base, height, None if kind is ApplicationKind.EXACT else lam)
        trace = constructions._run_application(spec).trace
    except ValueError:
        reject()
    assert trace.to_json() == json.dumps(trace.to_json_dict())
    assert trace.to_json(indent=2) == json.dumps(trace.to_json_dict(), indent=2)
    assert ConstructionTrace.from_json(trace.to_json(indent=2)) == trace


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_an_applications_trace_is_written_without_encoding_a_step(kind, monkeypatch):
    trace = APPLICATIONS[kind]().trace
    expected = json.dumps(trace.to_json_dict())
    # The kind's steps, equal but not its very tuple.
    edited = ConstructionTrace(trace.initial, list(trace.steps))
    assert edited.steps == trace.steps and edited.steps is not trace.steps
    encoded, documents = [], []
    dumps, to_json_dict = json.dumps, ConstructionTrace.to_json_dict
    monkeypatch.setattr(json, "dumps", lambda value, **kw: encoded.append(value) or dumps(value, **kw))
    monkeypatch.setattr(ConstructionTrace, "to_json_dict", lambda self: documents.append(self) or to_json_dict(self))
    # Neither a step nor a given point is encoded: each given entry is written from one template.
    assert trace.to_json() == expected and edited.to_json() == expected
    assert documents == [] and encoded == []


@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_given_labels_outside_the_applications_are_encoded_when_written(kind, monkeypatch):
    # The kind's very step tuple, with given labels that no application uses.
    trace = ConstructionTrace(
        (Point(0.5, -0.0, "P"), Point(1e300, 5e-324, "é"), Point(-2.0, 3.0, 'q"'), Point(4.0, 1.0, "A")), _STEPS[kind]
    )
    to_json_dict, documents = ConstructionTrace.to_json_dict, []
    monkeypatch.setattr(ConstructionTrace, "to_json_dict", lambda self: documents.append(self) or to_json_dict(self))
    text = trace.to_json()
    assert documents == [trace]
    monkeypatch.undo()
    assert text == json.dumps(trace.to_json_dict())
    read = ConstructionTrace.from_json(text)
    assert read == trace and read.steps is _STEPS[kind]


def _as_document(text):
    """How ``from_json`` reads any text: ``from_json_dict`` of the text decoded whole."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"trace document is not valid JSON: {exc}") from exc
    return ConstructionTrace.from_json_dict(data)


def _outcome(read, text):
    """The trace read, or the error's class and message."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


def _with_initial(kind, initial):
    return '{"initial": ' + initial + constructions._STEP_TEXTS[kind]


def _with_entry(key, value):
    def edit(kind, text):
        doc = json.loads(text)
        doc["initial"][1][key] = value
        return json.dumps(doc)

    return edit


def _next_kind(kind):
    kinds = list(ApplicationKind)
    return kinds[(kinds.index(kind) + 1) % len(kinds)]


# Each case rewrites an application's compact trace text. ``middle`` says
# whether ``from_json`` decodes only the initial value, never the whole text,
# and so reads a trace that holds a kind's very step tuple; ``reads`` whether
# the text holds a trace.
_TEXT_CASES = {
    "canonical": (lambda kind, text: text, True, True),
    "leading space": (lambda kind, text: " " + text, False, True),
    "trailing newline": (lambda kind, text: text + "\n", False, True),
    "whitespace around": (lambda kind, text: "\n\t" + text + " \n", False, True),
    "whitespace inside the initial part": (
        lambda kind, text: _with_initial(kind, json.dumps(json.loads(text)["initial"], indent=1) + " \n"),
        True,
        True,
    ),
    "extra key before steps": (lambda kind, text: text.replace(', "steps": ', ', "note": null, "steps": ', 1), False, True),
    "steps key twice, the kind's last": (
        lambda kind, text: text.replace(', "steps": ', ', "steps": [], "steps": ', 1),
        False,
        True,
    ),
    "steps key twice, the kind's first": (lambda kind, text: text[:-1] + ', "steps": []}', False, True),
    "initial []": (lambda kind, text: _with_initial(kind, "[]"), True, True),
    "initial 5": (lambda kind, text: _with_initial(kind, "5"), True, False),
    'initial "s"': (lambda kind, text: _with_initial(kind, '"s"'), True, False),
    "initial NaN": (lambda kind, text: _with_initial(kind, "NaN"), True, False),
    "truncated by one": (lambda kind, text: text[:-1], False, False),
    "truncated by half": (lambda kind, text: text[: len(text) // 2], False, False),
    "truncated initial part": (lambda kind, text: _with_initial(kind, '[{"label": "A", "x": 0.0'), False, False),
    "another kind's steps": (
        lambda kind, text: _with_initial(_next_kind(kind), json.dumps(json.loads(text)["initial"])),
        True,
        True,
    ),
    # The coordinate and label errors of the document tests above.
    "x '4.0'": (_with_entry("x", "4.0"), True, False),
    "x 'nan'": (_with_entry("x", "nan"), True, False),
    "x true": (_with_entry("x", True), True, False),
    "x false": (_with_entry("x", False), True, False),
    "x null": (_with_entry("x", None), True, False),
    "x Infinity": (_with_entry("x", math.inf), True, False),
    "y '0'": (_with_entry("y", "0"), True, False),
    "label null": (_with_entry("label", None), True, False),
    "label 7": (_with_entry("label", 7), True, False),
}


@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize("case", list(_TEXT_CASES))
def test_reading_a_trace_text_matches_reading_its_document(kind, case, monkeypatch):
    rewrite, middle, reads = _TEXT_CASES[case]
    text = rewrite(kind, APPLICATIONS[kind]().trace.to_json())
    expected = _outcome(_as_document, text)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda value, **kw: decoded.append(value) or loads(value, **kw))
    read = _outcome(ConstructionTrace.from_json, text)
    assert read == expected
    assert (text not in decoded) == middle
    assert isinstance(expected, ConstructionTrace) == reads
    if not reads:
        assert expected[0] is MalformedTraceError
    elif middle:
        assert any(read.steps is steps for steps in _STEPS.values())


@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize(
    "encode",
    [lambda text: text.encode(), lambda text: bytearray(text.encode()), lambda text: text.encode("utf-16")],
    ids=["bytes", "bytearray", "utf-16 bytes"],
)
def test_a_trace_reads_from_bytes(kind, encode):
    trace = APPLICATIONS[kind]().trace
    parsed = ConstructionTrace.from_json(encode(trace.to_json()))
    assert parsed == trace and parsed.steps == _STEPS[kind]


# An indented text, as ``construct --trace`` writes it, is decoded whole and
# every step built; its steps equal its kind's and find its kind's program.
@pytest.mark.parametrize("kind", list(ApplicationKind))
@pytest.mark.parametrize("encode", [lambda text: text, lambda text: text.encode()], ids=["str", "bytes"])
def test_an_applications_indented_trace_reads_back_and_replays_on_its_kinds_program(kind, encode, monkeypatch):
    result = APPLICATIONS[kind]()
    text = encode(result.trace.to_json(indent=2))
    built = _count_step_validations(monkeypatch)
    parsed = ConstructionTrace.from_json(text)
    assert parsed == result.trace and len(built) == 12
    compiled = _count_compiles(monkeypatch)
    ran = []
    replay = _Program.replay
    monkeypatch.setattr(_Program, "replay", lambda program, initial: ran.append(program) or replay(program, initial))
    replayed = replay_trace(parsed)
    assert compiled == [] and len(ran) == 1 and ran[0] is _PROGRAMS[kind]
    assert _hex_points(replayed) == _hex_points(result.figure_points)
    assert parsed.to_json() == result.trace.to_json()


# An application's trace knows its kind from when it is built, also from the
# indented text, whose steps equal its kind's but are not its step tuple; a
# pickle or copy keeps it.
@pytest.mark.parametrize("kind", list(ApplicationKind))
def test_an_applications_trace_read_from_indented_text_is_recognised_as_built(kind, monkeypatch):
    result = APPLICATIONS[kind]()
    read = ConstructionTrace.from_json(result.trace.to_json(indent=2))
    assert read.steps == _STEPS[kind] and read.steps is not _STEPS[kind]
    expected = result.trace.to_json()
    copies = [read, copy.copy(read), copy.deepcopy(read)]
    copies += [pickle.loads(pickle.dumps(read, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]

    def unexpected(*args, **kwargs):
        raise AssertionError("an application's trace was not recognised")

    monkeypatch.setattr(ConstructionTrace, "to_json_dict", unexpected)
    monkeypatch.setattr(constructions, "_compile", unexpected)
    for trace in copies:
        assert trace._kind is kind
        assert trace.to_json() == expected
        assert _hex_points(replay_trace(trace)) == _hex_points(result.figure_points)


def test_result_invariants_random_spot_checks():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        base = float(rng.uniform(0.5, 30.0))
        lam = float(rng.uniform(0.2, 5.0))
        height = float(rng.uniform(0.02, 0.95)) * base / lam
        result = apply_deficient(base, lam, height)
        assert result.area_X == pytest.approx(result.rect_base_b * height, rel=1e-12)
        assert result.square_side_g**2 == pytest.approx(result.area_X, rel=1e-9)
        assert result.J.x == pytest.approx(result.square_side_g, rel=1e-12)
        assert result.J.y == pytest.approx(height, rel=1e-12)


# What ROADMAP item 1 (lengths compared with lengths in the tangency test)
# still owes: the kernel's squared-length band snaps these intersections to
# a tangent foot. Its fix turns each into a plain test.
_ITEM_1 = "ROADMAP item 1: the tangency band compares a squared length with a length"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1 + "; J is taken at the foot I")
def test_a_small_height_reaches_j():
    assert apply_exact(1, 1e-7).J.y == 1e-7  # J = (3.16e-4, 0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_1 + "; y**2 overflows and the band is inf")
def test_a_large_scale_reaches_j():
    assert apply_exact(1e150, 2e154).J.y == 2e154  # J.y = 0.0


@pytest.mark.xfail(strict=True, raises=GeometryError, reason=_ITEM_1 + "; G is taken at the foot A")
def test_a_large_height_to_base_ratio_is_constructed():
    # extension distance must be positive, got 0.0
    assert apply_exact(1, 5e9).J.y == 5e9


# The same snap where the applied base dwarfs the height: the gap b*y falls
# inside the band 1e-9*((b + y)/2)**2 once b/y passes ~4e9.
@pytest.mark.xfail(strict=True, raises=GeometryError, reason=_ITEM_1 + "; G is taken at the foot A")
@pytest.mark.parametrize("apply, args", [(apply_exact, (1e10, 0.5)), (apply_excess, (2.0, 4e9, 0.5))])
def test_a_large_base_to_height_ratio_is_constructed(apply, args):
    # extension distance must be positive, got 0.0
    assert apply(*args).J.y == 0.5
