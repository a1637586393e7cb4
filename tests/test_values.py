"""The contract of the public value types.

Each type is built from keywords (with its defaults where it has any) and
pinned: its repr, ``==`` and ``hash`` over its compared fields, refusal of
assignment and deletion, and round trips through ``pickle`` and ``copy``.
"""

import copy
import math
import pickle

import pytest

from areaconics.constructions import (
    ApplicationKind,
    ApplicationResult,
    ApplicationSpec,
    AreaFamily,
    ConstructionError,
    ConstructionStep,
    ConstructionTrace,
    DeficiencyExceedsBaseError,
    MalformedTraceError,
    StepOp,
)
from areaconics.figures import Arc, Dot, FigureError, Label, Scene, Stroke, StyledPrimitive
from areaconics.kernel import Circle, Line, Point, Segment, Tolerance
from areaconics.locus import (
    Branch,
    ConicKind,
    ConicSpec,
    LocusError,
    LocusPoint,
    SampleRange,
    VerificationReport,
)

EXACT, DEFICIENT, EXCESS = ApplicationKind.EXACT, ApplicationKind.DEFICIENT, ApplicationKind.EXCESS


def _step():
    return ConstructionStep(op=StepOp.BISECT, inputs=["A", "B"], output="F", citation="I.10")


def _trace():
    return ConstructionTrace(initial=[Point(0, 0, "A"), Point(1, 0, "B")], steps=[_step()])


def _result():
    return ApplicationResult(
        spec=ApplicationSpec(EXACT, 4, 1),
        rect_base_b=4.0,
        area_X=4.0,
        square_side_g=2.0,
        J=Point(2, 1, "J"),
        figure_points={"J": Point(2, 1, "J")},
        trace=ConstructionTrace([Point(0, 0, "A")], []),
    )


def _report():
    return VerificationReport(
        kind=ConicKind.PARABOLA,
        base_L=2.0,
        lam=None,
        tol=1e-9,
        threshold=4e-9,
        passed=True,
        max_residual=0.5,
        worst=LocusPoint(1, 0.25),
        max_standard_residual=0.5,
        standard_worst=None,
    )


def _hyperbola():
    return ConicSpec(
        kind=ConicKind.HYPERBOLA,
        base_L=2.0,
        lam=1.0,
        center=Point(0, -1),
        semi_axis_x=1.0,
        semi_axis_y=1.0,
        vertices=[Point(0, 0, "A"), Point(0, -2, "A*")],
        eccentricity=1.5,
        asymptote_slopes=(1.0, -1.0),
        conjugate_axis_y=-1.0,
    )


# name: (builder, its repr, the fields that ==, hash and repr read). The
# constructor takes the same fields in the same order, except where
# INIT_FIELDS says otherwise.
CASES = {
    "Tolerance": (
        lambda: Tolerance(eps_rel=1e-6, eps_abs=1e-10),
        "Tolerance(eps_rel=1e-06, eps_abs=1e-10)",
        ("eps_rel", "eps_abs"),
    ),
    "Point": (
        lambda: Point(x=1, y=2.5, label="A"),
        "Point(x=1.0, y=2.5, label='A')",
        ("x", "y", "label"),
    ),
    "Segment": (
        lambda: Segment(start=Point(0, 0), end=Point(1, 1, "B")),
        "Segment(start=Point(x=0.0, y=0.0, label=None), end=Point(x=1.0, y=1.0, label='B'))",
        ("start", "end"),
    ),
    "Circle": (
        lambda: Circle(center=Point(0, 0), radius=2),
        "Circle(center=Point(x=0.0, y=0.0, label=None), radius=2.0)",
        ("center", "radius"),
    ),
    "Line": (
        lambda: Line(anchor=Point(0, 0), direction=[0, 1]),
        "Line(anchor=Point(x=0.0, y=0.0, label=None), direction=(0.0, 1.0))",
        ("anchor", "direction"),
    ),
    "ConstructionStep": (
        _step,
        "ConstructionStep(op=<StepOp.BISECT: 'Bisect'>, inputs=('A', 'B'), output='F', citation='I.10')",
        ("op", "inputs", "output", "citation"),
    ),
    "ConstructionTrace": (
        _trace,
        "ConstructionTrace(initial=(Point(x=0.0, y=0.0, label='A'), Point(x=1.0, y=0.0, label='B')), "
        "steps=(ConstructionStep(op=<StepOp.BISECT: 'Bisect'>, inputs=('A', 'B'), output='F', "
        "citation='I.10'),))",
        ("initial", "steps"),
    ),
    "AreaFamily": (
        lambda: AreaFamily(kind=DEFICIENT, base_L=4, lam=0.5),
        "AreaFamily(kind=<ApplicationKind.DEFICIENT: 'deficient'>, base_L=4.0, lam=0.5, k=-0.5)",
        ("kind", "base_L", "lam", "k"),
    ),
    "ApplicationSpec": (
        lambda: ApplicationSpec(kind=EXCESS, base_L=2, height_y=1, lam=0.5),
        "ApplicationSpec(kind=<ApplicationKind.EXCESS: 'excess'>, base_L=2.0, height_y=1.0, lam=0.5)",
        ("kind", "base_L", "height_y", "lam"),
    ),
    "ApplicationResult": (
        _result,
        "ApplicationResult(spec=ApplicationSpec(kind=<ApplicationKind.EXACT: 'exact'>, base_L=4.0, "
        "height_y=1.0, lam=None), rect_base_b=4.0, area_X=4.0, square_side_g=2.0, "
        "J=Point(x=2.0, y=1.0, label='J'), figure_points={'J': Point(x=2.0, y=1.0, label='J')}, "
        "trace=ConstructionTrace(initial=(Point(x=0.0, y=0.0, label='A'),), steps=()))",
        ("spec", "rect_base_b", "area_X", "square_side_g", "J", "figure_points", "trace"),
    ),
    "LocusPoint": (
        lambda: LocusPoint(x=1, y=2, branch=Branch.LOWER),
        "LocusPoint(x=1.0, y=2.0, branch=<Branch.LOWER: 'lower'>)",
        ("x", "y", "branch"),
    ),
    "SampleRange": (
        lambda: SampleRange(y_min=0, y_max=1, n=3),
        "SampleRange(y_min=0.0, y_max=1.0, n=3)",
        ("y_min", "y_max", "n"),
    ),
    "ConicSpec": (
        _hyperbola,
        "ConicSpec(kind=<ConicKind.HYPERBOLA: 'hyperbola'>, base_L=2.0, lam=1.0, "
        "center=Point(x=0.0, y=-1.0, label=None), semi_axis_x=1.0, semi_axis_y=1.0, "
        "vertices=(Point(x=0.0, y=0.0, label='A'), Point(x=0.0, y=-2.0, label='A*')), "
        "eccentricity=1.5, asymptote_slopes=(1.0, -1.0), conjugate_axis_y=-1.0)",
        (
            "kind",
            "base_L",
            "lam",
            "center",
            "semi_axis_x",
            "semi_axis_y",
            "vertices",
            "eccentricity",
            "asymptote_slopes",
            "conjugate_axis_y",
        ),
    ),
    "VerificationReport": (
        _report,
        "VerificationReport(kind=<ConicKind.PARABOLA: 'parabola'>, base_L=2.0, lam=None, tol=1e-09, "
        "threshold=4e-09, passed=True, max_residual=0.5, "
        "worst=LocusPoint(x=1.0, y=0.25, branch=<Branch.UPPER: 'upper'>), max_standard_residual=0.5, "
        "standard_worst=None)",
        (
            "kind",
            "base_L",
            "lam",
            "tol",
            "threshold",
            "passed",
            "max_residual",
            "worst",
            "max_standard_residual",
            "standard_worst",
        ),
    ),
    "Arc": (
        lambda: Arc(circle=Circle(Point(0, 0), 1), start_angle=0, end_angle=3),
        "Arc(circle=Circle(center=Point(x=0.0, y=0.0, label=None), radius=1.0), "
        "start_angle=0.0, end_angle=3.0)",
        ("circle", "start_angle", "end_angle"),
    ),
    "Dot": (
        lambda: Dot(point=Point(1, 2)),
        "Dot(point=Point(x=1.0, y=2.0, label=None))",
        ("point",),
    ),
    "Label": (
        lambda: Label(anchor=Point(1, 2), text="A"),
        "Label(anchor=Point(x=1.0, y=2.0, label=None), text='A')",
        ("anchor", "text"),
    ),
    "StyledPrimitive": (
        lambda: StyledPrimitive(shape=Dot(Point(0, 0)), stroke=Stroke.DASHED),
        "StyledPrimitive(shape=Dot(point=Point(x=0.0, y=0.0, label=None)), "
        "stroke=<Stroke.DASHED: 'dashed'>)",
        ("shape", "stroke"),
    ),
    "Scene": (
        lambda: Scene(primitives=[StyledPrimitive(Dot(Point(0, 0)))], bounds=(-1.0, -1.0, 1.0, 1.0)),
        "Scene(primitives=(StyledPrimitive(shape=Dot(point=Point(x=0.0, y=0.0, label=None)), "
        "stroke=<Stroke.SOLID: 'solid'>),), bounds=(-1.0, -1.0, 1.0, 1.0))",
        ("primitives", "bounds"),
    ),
}

# The constructor's fields, where they differ from the compared ones.
INIT_FIELDS = {
    "AreaFamily": ("kind", "base_L", "lam"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


def test_every_public_value_type_is_covered():
    import areaconics

    assert {name for name in CASES if hasattr(areaconics, name)} == set(CASES) - {"AreaFamily"}
    assert len(CASES) == 19


def test_repr(case):
    name, make, text, _ = case
    assert repr(make()) == text


def test_constructor_fields_by_position_and_match_args(case):
    name, make, _, compared = case
    value = make()
    init = INIT_FIELDS.get(name, compared)
    assert type(value).__match_args__ == init
    rebuilt = type(value)(*_fields(value, init))
    assert rebuilt == value
    assert repr(rebuilt) == repr(value)


def test_equality_over_the_compared_fields(case):
    name, make, _, compared = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not (a != b)
    assert a != object() and not (a == _fields(a, compared))
    assert a.__eq__(_fields(a, compared)) is NotImplemented


def test_hash_over_the_compared_fields(case):
    name, make, _, compared = case
    value = make()
    if name == "ApplicationResult":
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
        return
    assert hash(value) == hash(make())
    assert {value: 1}[make()] == 1


@pytest.mark.parametrize("attr", ["first_field", "unknown"])
def test_assignment_and_deletion_raise_attribute_error(case, attr):
    name, make, _, compared = case
    value = make()
    target = compared[0] if attr == "first_field" else "not_a_field"
    before = repr(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{target}'"):
        setattr(value, target, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{target}'"):
        delattr(value, target)
    assert repr(value) == before


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    name, make, text, compared = case
    value = make()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, compared[0], 0)


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
def test_copy_round_trip(case, how):
    name, make, text, compared = case
    value = make()
    back = how(value)
    assert type(back) is type(value)
    assert back == value and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, compared[0], 0)


def test_defaults():
    assert Tolerance() == Tolerance(1e-9, 1e-12)
    assert Point(x=1, y=2).label is None
    assert AreaFamily(kind=EXACT, base_L=2) == AreaFamily(EXACT, 2.0, None)
    assert AreaFamily(EXACT, 2).k == 0.0
    assert ApplicationSpec(kind=EXACT, base_L=2, height_y=1).lam is None
    assert LocusPoint(x=1, y=2).branch is Branch.UPPER
    parabola = ConicSpec(kind=ConicKind.PARABOLA, base_L=4.0)
    assert _fields(parabola, CASES["ConicSpec"][2][2:]) == (None,) * 4 + ((), None, None, None)
    assert StyledPrimitive(shape=Dot(Point(0, 0))).stroke is Stroke.SOLID
    assert Scene(primitives=[]).bounds is None


def test_converted_fields():
    """Numbers become floats (or an index), sequences tuples, when built."""
    point = Point(True, 2)
    assert (type(point.x), type(point.y)) == (float, float)

    class Three:
        def __index__(self):
            return 3

    assert type(SampleRange(0, 1, Three()).n) is int
    assert Line(Point(0, 0), [1, 0]).direction == (1.0, 0.0)
    assert ConstructionStep(StepOp.BISECT, iter("AB"), "F", "I.10").inputs == ("A", "B")
    assert type(ApplicationSpec(EXACT, 4, 1).lam) is type(None)
    assert ApplicationSpec(DEFICIENT, 4, 1, 1).lam == 1.0


def test_application_spec_family_stays_out_of_repr_and_comparison():
    spec = ApplicationSpec(DEFICIENT, 4, 1, 0.5)
    assert spec.family == AreaFamily(DEFICIENT, 4.0, 0.5)
    assert "family" not in repr(spec)
    assert hash(spec) == hash((DEFICIENT, 4.0, 1.0, 0.5))
    assert spec.rect_base == 3.5


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Tolerance(0.0, 1e-12), ValueError, "tolerances must be strictly positive"),
        (lambda: Point(math.inf, 0), ValueError, r"point coordinates must be finite, got \(inf, 0.0\)"),
        (lambda: Point(0, 0, ""), ValueError, "point label must be non-empty when present"),
        (lambda: Circle(Point(0, 0), 0), ValueError, "circle radius must be positive, got 0.0"),
        (
            lambda: Line(Point(0, 0), (1, 1)),
            ValueError,
            r"line direction must be a unit vector, got \(1.0, 1.0\)",
        ),
        (
            lambda: ConstructionStep(StepOp.BISECT, ("A",), "F", "I.10"),
            MalformedTraceError,
            "Bisect expects 2 inputs, got 1",
        ),
        (
            lambda: ConstructionStep(StepOp.BISECT, ("A", "B"), "", "I.10"),
            MalformedTraceError,
            "step output label must be non-empty",
        ),
        (
            lambda: ConstructionStep(StepOp.BISECT, ("A", "B"), "F", ""),
            MalformedTraceError,
            "step citation must be non-empty",
        ),
        (
            lambda: ConstructionTrace([Point(0, 0)], []),
            MalformedTraceError,
            "initial points must be labeled",
        ),
        (
            lambda: AreaFamily(EXACT, -1),
            ConstructionError,
            "base length must be positive and finite, got -1.0",
        ),
        (
            lambda: AreaFamily(EXACT, 1, 1),
            ConstructionError,
            "an exact application takes no aspect ratio",
        ),
        (
            lambda: AreaFamily(EXCESS, 1),
            ConstructionError,
            "excess applications require the aspect ratio lambda",
        ),
        (
            lambda: AreaFamily(DEFICIENT, 1, math.inf),
            ConstructionError,
            "aspect ratio must be positive and finite, got inf",
        ),
        (
            lambda: ApplicationSpec(EXACT, 0, 0),
            ConstructionError,
            "base length must be positive and finite, got 0.0",
        ),
        (
            lambda: ApplicationSpec(EXACT, 1, 0),
            ConstructionError,
            "rectangle height must be positive, got 0.0",
        ),
        (
            lambda: ApplicationSpec(DEFICIENT, 1, 2, 0.5),
            DeficiencyExceedsBaseError,
            r"deficiency consumes the base: lambda\*height = 1.0 >= base 1.0",
        ),
        (
            lambda: SampleRange(0, 1, 2.0),
            LocusError,
            "sample count must be an integer, got 2.0",
        ),
        (lambda: SampleRange(-1, 1, 2), LocusError, "y_min must be nonnegative, got -1.0"),
        (lambda: SampleRange(1, 1, 2), LocusError, r"need y_min < y_max, got \[1.0, 1.0\]"),
        (lambda: SampleRange(0, 1, 1), LocusError, "need at least 2 samples, got 1"),
        (
            lambda: ConicSpec(ConicKind.ELLIPSE, 1.0, 1.0, eccentricity=1.0),
            LocusError,
            r"ellipse eccentricity must be in \[0, 1\), got 1.0",
        ),
        (
            lambda: ConicSpec(ConicKind.HYPERBOLA, 1.0, 1.0, eccentricity=1.0),
            LocusError,
            "hyperbola eccentricity must exceed 1, got 1.0",
        ),
        (
            lambda: ConicSpec(ConicKind.PARABOLA, 1.0, conjugate_axis_y=0.0),
            LocusError,
            "asymptote fields are present exactly for the hyperbola",
        ),
        (
            lambda: Arc(Circle(Point(0, 0), 1), 1, 1),
            FigureError,
            r"arc angles must satisfy start < end, got \[1.0, 1.0\]",
        ),
        (lambda: Label(Point(0, 0), ""), FigureError, "label text must be non-empty"),
        (
            lambda: Scene([StyledPrimitive(Dot(Point(2, 0)))], (0.0, 0.0, 1.0, 1.0)),
            FigureError,
            "explicit scene bounds do not contain all primitives",
        ),
    ],
)
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Point(1, 2, "A", "B"),
        lambda: Point(1),
        lambda: Point(1, 2, lable="A"),
        lambda: LocusPoint(1, 2, Branch.UPPER, None),
        lambda: ApplicationSpec(EXACT, 1, 1, None, None),
        lambda: AreaFamily(EXACT, 1, None, 0.0),
        lambda: AreaFamily(EXACT, 1, k=0.0),
        lambda: ApplicationSpec(EXACT, 1, 1, family=None),
    ],
)
def test_constructors_reject_extra_and_missing_arguments(make):
    with pytest.raises(TypeError):
        make()
