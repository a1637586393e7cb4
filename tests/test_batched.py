"""The batched step interpreter against the scalar one, bit for bit."""

import importlib.util
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from areaconics import constructions, kernel
from areaconics._batched import ARRAYS, _Run, execute_batched
from areaconics.constructions import (
    _PROGRAMS,
    _STEPS,
    _SWEEP_PROGRAMS as SWEEP_PROGRAMS,
    ApplicationKind,
    AreaFamily,
    ConstructionStep,
    ConstructionTrace,
    GeometricFailureError,
    StepOp,
    _Program,
    _compile,
    _given_coordinates,
    apply_deficient,
    apply_exact,
    apply_excess,
    replay_trace,
)
from areaconics.kernel import FLOATS, GeometryError, Point
from areaconics.locus import (
    _APPLICATION_KIND,
    _BLOCK,
    Branch,
    ConicKind,
    LocusPoint,
    SampleRange,
    _sample_locus_floats,
    sample_locus,
)

ROOT = Path(__file__).resolve().parents[1]


def apply(kind, base, lam, height):
    if kind is ConicKind.PARABOLA:
        return apply_exact(base, height)
    if kind is ConicKind.ELLIPSE:
        return apply_deficient(base, lam, height)
    return apply_excess(base, lam, height)


def bits(x, y):
    return float(x).hex(), float(y).hex()


def assert_same_error(raised, expected):
    assert type(raised) is type(expected)
    assert str(raised) == str(expected)


def assert_parity(steps, given):
    """``execute_batched`` over all rows equals ``replay_trace`` row by row.

    ``given`` maps each label to its per-row x and y lists. Either every
    labelled point matches bit for bit, or both raise the error of the
    first failing row.
    """
    rows = len(next(iter(given.values()))[0])
    program = _compile(tuple(given), steps)
    try:
        expected = [
            replay_trace(
                ConstructionTrace(tuple(Point(xs[i], ys[i], label) for label, (xs, ys) in given.items()), steps)
            )
            for i in range(rows)
        ]
    except ValueError as exc:
        with pytest.raises(type(exc)) as caught:
            execute_batched(program, {label: (np.array(xs), np.array(ys)) for label, (xs, ys) in given.items()})
        assert_same_error(caught.value, exc)
        return
    env = execute_batched(program, {label: (np.array(xs), np.array(ys)) for label, (xs, ys) in given.items()})
    for i, points in enumerate(expected):
        for label, p in points.items():
            assert bits(env[label][0][i], env[label][1][i]) == bits(p.x, p.y), (i, label)


def companion_square(kind, base, lam, heights):
    """The given points of the family's application at each height; the heights are not validated."""
    family = AreaFamily(kind, base, lam)
    rows = [_given_coordinates(family, y) for y in heights]
    return {label: ([r[label][0] for r in rows], [r[label][1] for r in rows]) for label in rows[0]}


@st.composite
def sweeps(draw):
    """A conic and a height range inside its valid range, L in [1e-6, 1e6].

    Heights reach down to 1e-9 of the scale, into the kernel's tangent
    snap, where some applications raise.
    """
    kind = draw(st.sampled_from(list(ConicKind)))
    base = 10.0 ** draw(st.floats(-6.0, 6.0))
    lam = None if kind is ConicKind.PARABOLA else 10.0 ** draw(st.floats(-1.0, 1.0))
    top = base / lam if kind is ConicKind.ELLIPSE else 10.0 * base
    low, high = sorted(draw(st.floats(-9.0, -1e-3)) for _ in range(2))
    y_min, y_max = top * 10.0**low, top * 10.0**high
    if not y_min < y_max:
        y_max = y_min * 2.0 if kind is not ConicKind.ELLIPSE else math.nextafter(y_min, math.inf)
    return kind, base, lam, SampleRange(y_min, y_max, draw(st.integers(2, 6)))


@settings(max_examples=150, deadline=None)
@given(sweeps())
@example((ConicKind.PARABOLA, 1.0, None, SampleRange(1e-7, 2e-7, 2)))
@example((ConicKind.ELLIPSE, 1e-6, 1.0, SampleRange(2.5e-7, 5e-7, 2)))
@example((ConicKind.HYPERBOLA, 1e-6, 10.0, SampleRange(1e-15, 1e-5, 5)))
# Heights where squaring by ``** 2`` (libm pow) misrounds the square of G's offset.
@example((ConicKind.PARABOLA, 0.36, None, SampleRange(0.0424, 0.0848, 2)))
@example((ConicKind.HYPERBOLA, 1.251, 1.321, SampleRange(0.5825, 1.0, 2)))
def test_batched_sweep_equals_per_height_applications(case):
    kind, base, lam, sample_range = case
    heights = sample_range.heights()
    # Every labelled point of the batched run, against apply_* one height at a time.
    assert_parity(_STEPS[_APPLICATION_KIND[kind]], companion_square(_APPLICATION_KIND[kind], base, lam, heights))
    try:
        sides = [apply(kind, base, lam, y).square_side_g for y in heights]
    except ValueError as exc:
        with pytest.raises(type(exc)) as caught:
            sample_locus(kind, base, sample_range, lam)
        assert_same_error(caught.value, exc)
        return
    uppers = sample_locus(kind, base, sample_range, lam)[: len(heights)]
    assert [bits(p.x, p.y) for p in uppers] == [bits(g, y) for g, y in zip(sides, heights)]


def test_extension_error_matches_per_height_application():
    with pytest.raises(GeometryError) as expected:
        apply_deficient(1e-6, 1, 2.5e-7)
    assert str(expected.value) == "extension distance must be positive, got 0.0"
    with pytest.raises(GeometryError) as caught:
        sample_locus(ConicKind.ELLIPSE, 1e-6, SampleRange(2.5e-7, 5e-7, 2), lam=1)
    assert_same_error(caught.value, expected.value)


@pytest.mark.parametrize(
    "kind, base, lam, sample_range",
    [
        # A top height near the float maximum: the first height passes, a
        # later one overflows the construction.
        (ConicKind.PARABOLA, 1.0, None, SampleRange(1.0, 1.7e308, 3)),
        (ConicKind.HYPERBOLA, 1.0, 1e308, SampleRange(1.0, 2.0, 2)),
    ],
)
def test_sample_locus_raises_the_first_failing_applications_error(kind, base, lam, sample_range):
    with pytest.raises(ValueError) as expected:
        for y in sample_range.heights():
            apply(kind, base, lam, y)
    with pytest.raises(ValueError) as caught:
        sample_locus(kind, base, sample_range, lam)
    assert_same_error(caught.value, expected.value)


def sweep_or_error(sweep, kind, base, sample_range, lam):
    """The sweep's points as (x bits, y bits, branch), or the class and message of its error."""
    try:
        points = sweep(kind, base, sample_range, lam)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(*bits(p.x, p.y), p.branch) for p in points]


@settings(max_examples=150, deadline=None)
@given(sweeps(), st.integers(2, 200))
def test_the_float_sweep_equals_sample_locus(case, n):
    kind, base, lam, sample_range = case
    sample_range = SampleRange(sample_range.y_min, sample_range.y_max, n)
    expected = sweep_or_error(sample_locus, kind, base, sample_range, lam)
    assert sweep_or_error(_sample_locus_floats, kind, base, sample_range, lam) == expected


@st.composite
def extreme_sweeps(draw):
    """A conic, L and lambda in [1e-300, 1e300], and 2-200 heights inside its valid range.

    The range's top, L/lambda for the ellipse and 10*L otherwise, stays
    within 1e-300..1e301; the heights reach down to 1e-9 of it.
    """
    kind = draw(st.sampled_from(list(ConicKind)))
    exponent = draw(st.floats(-300.0, 300.0))
    base = 10.0**exponent
    lam = None
    if kind is not ConicKind.PARABOLA:
        lam = 10.0 ** draw(st.floats(max(-300.0, exponent - 300.0), min(300.0, exponent + 300.0)))
    top = base / lam if kind is ConicKind.ELLIPSE else 10.0 * base
    low, high = sorted(draw(st.floats(-9.0, -1e-3)) for _ in range(2))
    y_min, y_max = top * 10.0**low, top * 10.0**high
    if not y_min < y_max:
        y_max = y_min * 2.0 if kind is not ConicKind.ELLIPSE else math.nextafter(y_min, math.inf)
    return kind, base, lam, SampleRange(y_min, y_max, draw(st.integers(2, 200)))


@settings(max_examples=150, deadline=None)
@given(extreme_sweeps())
@example((ConicKind.PARABOLA, 1e150, None, SampleRange(1e149, 2e154, 50)))
@example((ConicKind.ELLIPSE, 1e-170, 1.0, SampleRange(1e-180, 5e-171, 20)))
@example((ConicKind.HYPERBOLA, 1e-300, 1e300, SampleRange(1e-309, 1e-301, 7)))
def test_the_float_sweep_equals_sample_locus_at_extreme_scales(case):
    kind, base, lam, sample_range = case
    expected = sweep_or_error(sample_locus, kind, base, sample_range, lam)
    assert sweep_or_error(_sample_locus_floats, kind, base, sample_range, lam) == expected


@pytest.mark.parametrize(
    "kind, base, lam, sample_range",
    [
        # G snaps to the tangent foot A at the low heights.
        (ConicKind.PARABOLA, 1e-6, None, SampleRange(1e-8, 1.9e-6, 200)),
        (ConicKind.HYPERBOLA, 1.0, 1.0, SampleRange(0.5, 1e308, 4)),
        (ConicKind.ELLIPSE, 2.0, 1.0, SampleRange(0.5, 3.0, 6)),
        # The applied base overflows at the first height: the given point
        # B⁺ = (inf, 0) is not finite.
        (ConicKind.HYPERBOLA, 1.0, 1e308, SampleRange(2.0, 3.0, 2)),
    ],
)
def test_the_float_sweep_fails_as_sample_locus_fails(kind, base, lam, sample_range):
    expected = sweep_or_error(sample_locus, kind, base, sample_range, lam)
    assert isinstance(expected, tuple)
    assert sweep_or_error(_sample_locus_floats, kind, base, sample_range, lam) == expected


def test_the_float_sweeps_lower_branch_keeps_tied_heights_in_ascending_x():
    # -L/lam - y rounds to only 2 distinct floats over these 12 heights, so
    # a reversal of the upper block would flip x among tied heights.
    sample_range = SampleRange(0.1, 0.100001, 12)
    points = _sample_locus_floats(ConicKind.HYPERBOLA, 2.0, sample_range, 1e-10)
    assert points == list(sample_locus(ConicKind.HYPERBOLA, 2.0, sample_range, 1e-10))
    upper, lower = points[:12], points[12:]
    reflected = [-2.0 / 1e-10 - p.y for p in upper]
    order = sorted(range(12), key=reflected.__getitem__)
    assert lower == [LocusPoint(upper[i].x, reflected[i], Branch.LOWER) for i in order]
    reversal = [LocusPoint(p.x, r, Branch.LOWER) for p, r in zip(upper[::-1], reflected[::-1])]
    assert sum(a != b for a, b in zip(lower, reversal)) == 10


@pytest.mark.parametrize("kind, lam", [(ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 0.5)])
def test_a_sweep_runs_the_kinds_compiled_program_without_compiling(kind, lam, monkeypatch):
    compiled = []
    compile_ = constructions._compile
    monkeypatch.setattr(constructions, "_compile", lambda *args, **kw: compiled.append(args) or compile_(*args, **kw))
    ran = []
    run = _Program.run
    monkeypatch.setattr(_Program, "run", lambda program, ns, initial: ran.append(program) or run(program, ns, initial))
    for _ in range(2):
        sample_locus(kind, 2.0, SampleRange(0.1, 3.0, 3000), lam)
    assert compiled == []
    # The kind's pruned program, built once, for every run of both sweeps.
    program = SWEEP_PROGRAMS[_APPLICATION_KIND[kind]]
    assert ran and all(ran_program is program for ran_program in ran)
    assert [step.output for step in program.source[1]] == ["E", "F", "EGB", "AG_line", "G", "I"]
    assert program.source[0] == _PROGRAMS[_APPLICATION_KIND[kind]].source[0]


@pytest.mark.parametrize("kind, lam", [(ApplicationKind.EXACT, None), (ApplicationKind.DEFICIENT, 0.5), (ApplicationKind.EXCESS, 0.5)])
def test_a_sweep_run_checks_each_point_it_makes_once(kind, lam, monkeypatch):
    checked = []
    check_finite = _Run.check_finite
    monkeypatch.setattr(_Run, "check_finite", lambda run, x, y: checked.append((x, y)) or check_finite(run, x, y))
    given = _given_coordinates(AreaFamily(kind, 2.0, lam), np.array([0.5, 1.0, 1.5]))
    execute_batched(SWEEP_PROGRAMS[kind], given)
    # E, F, G and I; the given columns are checked through ``check``.
    assert len(checked) == 4


def run_batched(program, given):
    """``execute_batched``'s labelled values, or the error it raises."""
    try:
        return execute_batched(program, given)
    except ValueError as exc:
        return exc


@st.composite
def extreme_families(draw):
    """A kind, L and lambda in [1e-300, 1e300], and heights across the float range.

    Half the heights sit within 1e-12..1e3 of L, where more applications
    pass; most of the others fail at some step.
    """
    kind = draw(st.sampled_from(list(ApplicationKind)))
    base = draw(st.floats(1e-300, 1e300))
    lam = None if kind is ApplicationKind.EXACT else draw(st.floats(1e-300, 1e300))
    near = st.floats(-12.0, 3.0).map(lambda e: base * 10.0**e)
    heights = draw(st.lists(st.one_of(st.floats(min_value=0.0), near), min_size=1, max_size=6))
    return kind, base, lam, heights


@settings(max_examples=300, deadline=None)
@given(extreme_families())
@example((ApplicationKind.EXACT, 1e-6, None, [1e-8, 1e-6]))
@example((ApplicationKind.EXACT, 1e150, None, [1e150, 2e154]))
@example((ApplicationKind.EXCESS, 1.0, 1e300, [1e-300, 1.0]))
def test_the_pruned_sweep_program_returns_and_fails_as_the_full_program(case):
    kind, base, lam, heights = case
    with np.errstate(all="ignore"):
        given = _given_coordinates(AreaFamily(kind, base, lam), np.array(heights))
    pruned = run_batched(SWEEP_PROGRAMS[kind], given)
    full = run_batched(_PROGRAMS[kind], given)
    if isinstance(full, Exception):
        assert_same_error(pruned, full)
        return
    assert not isinstance(pruned, Exception), pruned
    for label in ("G", "I"):
        for got, want in zip(pruned[label], full[label], strict=True):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), label


def spread(given):
    """The given coordinates, each broadcast to a column of the run's length."""
    coords = iter(np.broadcast_arrays(*(c for point in given.values() for c in point)))
    return dict(zip(given, zip(coords, coords)))


def assert_constants_run_as_columns(program, given):
    """A run on ``given``, whose constant coordinates are numpy scalars, equals
    the run on the same coordinates as columns: every labelled value bit for
    bit, or the same error."""
    constants = run_batched(program, given)
    columns = run_batched(program, spread(given))
    if isinstance(columns, Exception):
        assert_same_error(constants, columns)
        return
    assert not isinstance(constants, Exception), constants
    for label, entity in columns.items():
        for leaf, column in zip(_numbers(constants[label]), _numbers(entity), strict=True):
            got = np.broadcast_to(leaf, column.shape).view(np.uint64)
            assert got.tolist() == column.view(np.uint64).tolist(), label


@settings(max_examples=300, deadline=None)
@given(extreme_families(), st.sampled_from(["full", "sweep"]))
@example((ApplicationKind.EXACT, 1e-6, None, [1e-8, 1e-6]), "sweep")
@example((ApplicationKind.EXACT, 1e150, None, [1e150, 2e154]), "full")
@example((ApplicationKind.EXCESS, 1.0, 1e300, [1e-300, 1.0]), "sweep")
# The applied base b = L - lambda*y is negative at every height, or only at some.
@example((ApplicationKind.DEFICIENT, 1.0, 1.0, [2.0, 3.0]), "full")
@example((ApplicationKind.DEFICIENT, 1.0, 1.0, [0.25, 2.0]), "full")
def test_the_sweeps_constant_given_coordinates_run_as_their_columns(case, program):
    # The sweep's own given points keep A, B and the base corners' y as
    # numpy scalars; the same coordinates broadcast to columns are run as
    # arrays throughout. Every labelled value matches bit for bit, or both
    # raise the same error.
    kind, base, lam, heights = case
    with np.errstate(all="ignore"):
        given = _given_coordinates(AreaFamily(kind, base, lam), np.array(heights))
    assert_constants_run_as_columns((_PROGRAMS if program == "full" else SWEEP_PROGRAMS)[kind], given)


def test_the_sweep_keeps_I_whose_check_fails_a_height_snapped_to_the_tangent_foot():
    # G snaps to the tangent foot A at these heights: |AG| = 0, which only
    # I's extension check rejects.
    with pytest.raises(GeometryError) as caught:
        sample_locus(ConicKind.PARABOLA, 1e-6, SampleRange(1e-8, 2e-6, 200))
    assert type(caught.value) is GeometryError
    assert str(caught.value) == "extension distance must be positive, got 0.0"
    # A program pruned to G alone would return those heights' x = 0.
    family = AreaFamily(ApplicationKind.EXACT, 1e-6)
    program = _compile(*_PROGRAMS[ApplicationKind.EXACT].source, reads=("G",))
    env = execute_batched(program, _given_coordinates(family, np.array([1e-8])))
    assert float(ARRAYS.hypot(*env["G"])[0]) == 0.0


def test_a_sweep_whose_J_circle_overflows_still_returns_the_applications_sides():
    # At y = 2e154 the circle of radius y about I has y² = inf; the sweep
    # does not draw it, and its sides are still apply_exact's.
    samples = sample_locus(ConicKind.PARABOLA, 1e150, SampleRange(1e149, 2e154, 50))
    assert float(samples.y[-1]) == 2e154
    for x, y in zip(samples.x.tolist(), samples.y.tolist()):
        assert x.hex() == apply_exact(1e150, y).square_side_g.hex(), y


@pytest.mark.parametrize(
    "kind, given",
    [
        # L = 0, which no family holds: B coincides with A, and the ray
        # beyond A is undefined.
        (
            ApplicationKind.EXACT,
            {"A": ([0.0], [0.0]), "B": ([0.0], [0.0]), "C": ([0.0], [1.0]), "D": ([0.0], [1.0])},
        ),
        # The second height fails at the first step.
        (ApplicationKind.EXACT, companion_square(ApplicationKind.EXACT, 1.0, None, [1.0, 0.0, 2.0])),
        # The second height's given point is not finite; the third fails later.
        (ApplicationKind.EXACT, companion_square(ApplicationKind.EXACT, 1.0, None, [1.0, math.inf, 0.0])),
        # The third height fails on its given point, checked first, but the
        # second fails at a later step and comes first.
        (ApplicationKind.EXACT, companion_square(ApplicationKind.EXACT, 1.0, None, [2.0, 0.0, math.nan])),
        # The first height's squared radius overflows into a tangent snap
        # and a zero extension; the second's corner B+ is infinite.
        (ApplicationKind.EXCESS, companion_square(ApplicationKind.EXCESS, 1.0, 1e308, [1.0, 2.0])),
        # A negative applied base puts B- behind A.
        (ApplicationKind.DEFICIENT, companion_square(ApplicationKind.DEFICIENT, 1.0, 1.0, [0.25, 2.0, 3.0])),
        (ApplicationKind.EXACT, companion_square(ApplicationKind.EXACT, 1e300, None, [1e300, 1e-300])),
        # L = inf, which no family holds.
        (
            ApplicationKind.EXACT,
            {"A": ([0.0], [0.0]), "B": ([math.inf], [0.0]), "C": ([math.inf], [1.0]), "D": ([0.0], [1.0])},
        ),
    ],
)
def test_invalid_heights_raise_the_first_failing_heights_error(kind, given):
    assert_parity(_STEPS[kind], given)


def step(op, inputs, output):
    return ConstructionStep(op, inputs, output, "I.1")


@pytest.mark.parametrize(
    "steps, given",
    [
        # P is off the line AB, the second time only.
        (
            (step(StepOp.ERECT_PERPENDICULAR, ("P", "A", "B"), "l"),),
            {"A": ([0.0, 0.0], [0.0, 0.0]), "B": ([1.0, 1.0], [0.0, 0.0]), "P": ([0.5, 0.5], [0.0, 1e-3])},
        ),
        # A circle of radius |AA| = 0.
        (
            (step(StepOp.DESCRIBE_CIRCLE, ("A", "A", "A"), "c"),),
            {"A": ([0.0, 1.0], [0.0, 1.0])},
        ),
        # The circle about P misses the line AB, the second time only.
        (
            (
                step(StepOp.DESCRIBE_CIRCLE, ("P", "A", "B"), "c"),
                step(StepOp.ERECT_PERPENDICULAR, ("A", "A", "B"), "l"),
                step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X"),
            ),
            {"A": ([0.0, 0.0], [0.0, 0.0]), "B": ([1.0, 1.0], [0.0, 0.0]), "P": ([0.5, 1.5], [0.0, 0.0])},
        ),
        # The second line's span overflows, so its direction is (nan, 0).
        (
            (step(StepOp.ERECT_PERPENDICULAR, ("A", "A", "B"), "l"),),
            {"A": ([0.0, -1e308], [0.0, 0.0]), "B": ([1.0, 1e308], [0.0, 0.0])},
        ),
        # P is 5 off the line AB, but its offset along AB overflows to a nan cross product.
        (
            (step(StepOp.ERECT_PERPENDICULAR, ("P", "A", "B"), "l"),),
            {"A": ([0.0, -1e308], [0.0, 0.0]), "B": ([1.0, 0.0], [0.0, 0.0]), "P": ([0.5, 1e308], [0.0, 5.0])},
        ),
        # The midpoint overflows.
        (
            (step(StepOp.BISECT, ("A", "B"), "M"),),
            {"A": ([1.0, 1e308], [0.0, 0.0]), "B": ([3.0, 1e308], [0.0, 0.0])},
        ),
        # Row 1 fails step 1 (a circle of radius |PP| = 0); row 0 passes it
        # and fails only step 2, where its midpoint overflows: row 0's error.
        (
            (
                step(StepOp.DESCRIBE_CIRCLE, ("P", "P", "Q"), "c"),
                step(StepOp.BISECT, ("M", "N"), "X"),
            ),
            {
                "P": ([0.0, 0.0], [0.0, 0.0]),
                "Q": ([1.0, 0.0], [0.0, 0.0]),
                "M": ([1e308, 1.0], [0.0, 0.0]),
                "N": ([1e308, 3.0], [0.0, 0.0]),
            },
        ),
        # Secants: the higher point by (y, x) wins, on either side of the foot.
        (
            (
                step(StepOp.DESCRIBE_CIRCLE, ("P", "A", "B"), "c"),
                step(StepOp.ERECT_PERPENDICULAR, ("A", "A", "B"), "l"),
                step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X"),
                step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "Y"),
                step(StepOp.MARK_SEGMENT, ("X", "P"), "s"),
            ),
            {
                "A": ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                "B": ([1.0, 0.0, -1.0], [0.0, 1.0, 0.0]),
                "P": ([0.25, 0.0, 0.0], [0.0, 0.5, 0.0]),
            },
        ),
    ],
)
def test_step_failures_match_the_scalar_kernel(steps, given):
    assert_parity(steps, given)


def _numbers(value):
    """An entity's numbers in order: a point's x and y, a circle's center then radius, and so on."""
    if isinstance(value, tuple):
        return [number for part in value for number in _numbers(part)]
    return [value]


# For each op, one step program over small-integer given points, and the
# last step's output as its numbers, at the configuration (row 0) and at
# the configuration doubled (row 1). Each configuration tells the inputs
# apart: swapping any two of one kind changes the output, except p and q
# of a distance or a midpoint, where the output is the same by symmetry.
# An intersection's circle and line are made by the two steps before it.
_OP_ORDER_CASES = {
    "Extend [through, frm, p, q]": (
        {"T": (2, 0), "F": (0, 0), "P": (0, 1), "Q": (0, 4)},
        (step(StepOp.EXTEND, ("T", "F", "P", "Q"), "X"),),
        ([5.0, 0.0], [10.0, 0.0]),
    ),
    "Bisect [p, q]": (
        {"P": (1, 2), "Q": (3, 6)},
        (step(StepOp.BISECT, ("P", "Q"), "X"),),
        ([2.0, 4.0], [4.0, 8.0]),
    ),
    "DescribeCircle [center, p, q]": (
        {"C": (1, 1), "P": (2, 0), "Q": (2, 3)},
        (step(StepOp.DESCRIBE_CIRCLE, ("C", "P", "Q"), "c"),),
        ([1.0, 1.0, 3.0], [2.0, 2.0, 6.0]),
    ),
    "ErectPerpendicular [at, p, q]": (
        {"T": (1, 0), "P": (0, 0), "Q": (3, 0)},
        (step(StepOp.ERECT_PERPENDICULAR, ("T", "P", "Q"), "l"),),
        ([1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 1.0]),
    ),
    "IntersectCircleLine [circle, line]": (
        {"O": (0, 0), "R": (3, 4), "T": (3, 0), "U": (4, 0)},
        (
            step(StepOp.DESCRIBE_CIRCLE, ("O", "O", "R"), "c"),
            step(StepOp.ERECT_PERPENDICULAR, ("T", "O", "U"), "l"),
            step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X"),
        ),
        ([3.0, 4.0], [6.0, 8.0]),
    ),
    "MarkSegment [p, q]": (
        {"P": (1, 2), "Q": (3, 4)},
        (step(StepOp.MARK_SEGMENT, ("P", "Q"), "s"),),
        ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]),
    ),
}


@pytest.mark.parametrize("given, steps, expected", list(_OP_ORDER_CASES.values()), ids=list(_OP_ORDER_CASES))
def test_each_op_reads_its_inputs_in_their_documented_order(given, steps, expected):
    program = _compile(tuple(given), steps)
    assert _numbers(program.run(FLOATS, [(float(x), float(y)) for x, y in given.values()])[-1]) == expected[0]
    run = _Run()
    doubled = [(np.array([x, 2.0 * x]), np.array([y, 2.0 * y])) for x, y in given.values()]
    with np.errstate(all="ignore"):
        numbers = _numbers(program.run(run, doubled)[-1])
    assert run.ok.all()
    assert [list(np.broadcast_to(n, (2,))) for n in numbers] == [list(row) for row in zip(*expected)]


def test_an_intersection_that_misses_names_its_step_circle_and_line_in_order():
    # The circle about O of radius |OR| = 5 misses the perpendicular at T = (6, 0).
    given = {"O": (0, 0), "R": (3, 4), "T": (6, 0), "U": (7, 0)}
    steps = (
        step(StepOp.DESCRIBE_CIRCLE, ("O", "O", "R"), "c"),
        step(StepOp.ERECT_PERPENDICULAR, ("T", "O", "U"), "l"),
        step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X"),
    )
    program = _compile(tuple(given), steps)
    with pytest.raises(GeometricFailureError) as caught:
        program.run(FLOATS, [(float(x), float(y)) for x, y in given.values()])
    assert str(caught.value) == "step 'X': circle 'c' and line 'l' do not intersect"
    run = _Run()
    with np.errstate(all="ignore"):
        program.run(run, [(np.array([x, 2.0 * x]), np.array([y, 2.0 * y])) for x, y in given.values()])
    assert list(run.ok) == [False, False]


@pytest.fixture(scope="module")
def workloads():
    name = "benchmark_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_sweep_and_construct_checks_pass(workloads, seed):
    """The benchmark's own checks on one sweep cycle and one round of constructions."""
    for name, ops in (("sweep", None), ("construct", 3)):
        workload = workloads.make(name, seed, "smoke", ROOT)
        for _ in range(ops or workload.cycle):
            op = workload.next_input()
            workload.check(op.args, workload.run(op.args))


@pytest.mark.parametrize("kind, lam", [(ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 0.5)])
def test_a_sweep_over_several_blocks_equals_per_height_applications(kind, lam):
    n = 2 * _BLOCK + 3
    samples = sample_locus(kind, 2.0, SampleRange(0.1, 3.0, n), lam)
    starts = range(0, n, _BLOCK)
    edges = {i for start in starts for i in (start, min(start + _BLOCK, n) - 1)}
    rows = sorted(edges | set(random.Random(n).sample(range(n), 40)))
    for i in rows:
        y = float(samples.y[i])
        g = apply(kind, 2.0, lam, y).square_side_g
        assert bits(samples.x[i], samples.y[i]) == bits(g, y), i


@pytest.mark.parametrize("kind, lam", [(ApplicationKind.EXACT, None), (ApplicationKind.EXCESS, 0.5)])
def test_constant_coordinates_come_back_as_numpy_scalars(kind, lam):
    family = AreaFamily(kind, 2.0, lam)
    given = _given_coordinates(family, np.array([0.5, 1.0, 1.5]))
    program = _PROGRAMS[kind]
    columns = execute_batched(program, spread(given))
    env = execute_batched(program, given)
    # A = (0, 0) is the same at every height.
    assert all(isinstance(c, np.float64) for c in env["A"])
    for label, entity in env.items():
        for leaf, expected in zip(_numbers(entity), _numbers(columns[label]), strict=True):
            assert np.ndim(leaf) == 0 or (isinstance(leaf, np.ndarray) and leaf.shape == (3,)), label
            assert np.broadcast_to(leaf, (3,)).view(np.uint64).tolist() == expected.view(np.uint64).tolist(), label


@pytest.mark.parametrize("kind, lam", [(ApplicationKind.EXACT, None), (ApplicationKind.DEFICIENT, 0.5), (ApplicationKind.EXCESS, 0.5)])
def test_a_sweep_run_keeps_the_axis_parallel_zeros_and_ones_as_scalars(kind, lam):
    # The base line runs along +x and AG_line along +y, so at every valid
    # height E's and F's y, AG_line's direction and G's x are exact zeros
    # and ones; a run keeps each as one numpy scalar, not a column.
    given = _given_coordinates(AreaFamily(kind, 2.0, lam), np.linspace(0.1, 1.5, 50))
    env = execute_batched(SWEEP_PROGRAMS[kind], given)
    (ux, uy) = env["AG_line"][1]
    scalars = {"E.y": env["E"][1], "F.y": env["F"][1], "AG_line.ux": ux, "AG_line.uy": uy, "G.x": env["G"][0]}
    assert {name: type(value) for name, value in scalars.items()} == dict.fromkeys(scalars, np.float64)
    assert [float(value).hex() for value in scalars.values()] == [v.hex() for v in (0.0, 0.0, -0.0, 1.0, 0.0)]


# Coordinates around the signed zeros and the axes: a given coordinate is
# one of these as a constant, or a column of them (with two that overflow
# a difference), so that every fold meets +0.0 and -0.0 on either side.
_SIGNED = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5]
_SIGNED_PROGRAMS = {
    "extend": (
        ("T", "F", "P", "Q"),
        (step(StepOp.EXTEND, ("T", "F", "P", "Q"), "X"),),
    ),
    "perpendicular": (
        ("T", "P", "Q"),
        (step(StepOp.ERECT_PERPENDICULAR, ("T", "P", "Q"), "l"),),
    ),
    "intersection": (
        ("O", "R", "T", "P", "Q"),
        (
            step(StepOp.DESCRIBE_CIRCLE, ("O", "O", "R"), "c"),
            step(StepOp.ERECT_PERPENDICULAR, ("T", "P", "Q"), "l"),
            step(StepOp.INTERSECT_CIRCLE_LINE, ("c", "l"), "X"),
        ),
    ),
}


@st.composite
def signed_configurations(draw):
    """A small program and its given points: each coordinate a constant, or a column of 1-4 rows."""
    name = draw(st.sampled_from(sorted(_SIGNED_PROGRAMS)))
    labels, steps = _SIGNED_PROGRAMS[name]
    rows = draw(st.integers(1, 4))
    column = st.lists(st.sampled_from([*_SIGNED, 1e308, -1e308]), min_size=rows, max_size=rows).map(np.array)
    coordinate = st.one_of(st.sampled_from(_SIGNED).map(np.float64), column)
    given = {label: (draw(coordinate), draw(coordinate)) for label in labels}
    if all(np.ndim(c) == 0 for point in given.values() for c in point):
        given[labels[0]] = (np.full(rows, given[labels[0]][0]), given[labels[0]][1])
    return steps, given


@settings(max_examples=500, deadline=None)
@given(signed_configurations())
# The line x = -0.0, along -y, touches both circles: cy*uy is -0.0, so t0 is
# +0.0 or -0.0 with the sign of cx, and so is the foot (-0.0 + t0*uy) returned.
@example((_SIGNED_PROGRAMS["intersection"][1], {
    "O": (np.array([-1.0, 1.0]), np.float64(0.0)),
    "R": (np.float64(0.0), np.float64(0.0)),
    "T": (np.float64(-0.0), np.float64(-0.0)),
    "P": (np.float64(2.5), np.float64(0.0)),
    "Q": (np.float64(1.0), np.float64(0.0)),
}))
# The line x = -0.0, along -y, cuts both circles: the foot's x is -0.0, so the
# crossings' x, -0.0 -+ -0.0, are +0.0 (low, the highest, returned) and -0.0.
@example((_SIGNED_PROGRAMS["intersection"][1], {
    "O": (np.array([1.0, -1.0]), np.float64(-0.0)),
    "R": (np.array([-1.5, 1.5]), np.float64(-0.0)),
    "T": (np.float64(-0.0), np.float64(0.0)),
    "P": (np.float64(2.5), np.float64(0.0)),
    "Q": (np.float64(1.0), np.float64(0.0)),
}))
# The difference Q - P overflows at row 1: its direction is nan there, and the
# line's unit check fails, though the other component is an exact zero.
@example((_SIGNED_PROGRAMS["perpendicular"][1], {
    "T": (np.array([0.0, -1e308]), np.float64(0.0)),
    "P": (np.array([0.0, -1e308]), np.float64(0.0)),
    "Q": (np.array([1.0, 1e308]), np.float64(0.0)),
}))
# A ray from F at y = +0.0 through T at y = -0.0: its y component, and X's y, are -0.0.
@example((_SIGNED_PROGRAMS["extend"][1], {
    "T": (np.array([1.0, 2.5]), np.float64(-0.0)),
    "F": (np.float64(0.0), np.float64(0.0)),
    "P": (np.float64(0.0), np.float64(0.0)),
    "Q": (np.float64(1.0), np.float64(0.0)),
}))
def test_constant_coordinates_around_signed_zeros_run_as_their_columns(case):
    steps, given = case
    assert_constants_run_as_columns(_compile(tuple(given), steps), given)


def test_a_failure_at_the_last_height_runs_the_float_program_once(monkeypatch):
    heights = np.linspace(0.5, 1.5, 8192)
    heights[-1] = 0.0
    given = _given_coordinates(AreaFamily(ApplicationKind.EXACT, 2.0, None), heights)
    # The last height's given points alone, run in floats as ``assert_parity`` runs them.
    last = tuple(
        Point(*(float(np.broadcast_to(c, heights.shape)[-1]) for c in point), label) for label, point in given.items()
    )
    with pytest.raises(ValueError) as expected:
        replay_trace(ConstructionTrace(last, _STEPS[ApplicationKind.EXACT]))
    float_runs = 0
    run = _Program.run

    def counted(self, ns, initial):
        nonlocal float_runs
        float_runs += ns is FLOATS
        return run(self, ns, initial)

    monkeypatch.setattr(_Program, "run", counted)
    with pytest.raises(ValueError) as caught:
        execute_batched(_PROGRAMS[ApplicationKind.EXACT], given)
    assert float_runs == 1
    assert_same_error(caught.value, expected.value)


def test_a_failing_check_on_constant_coordinates_raises_the_first_heights_error():
    # Row 1's midpoint overflows at step 1; step 2 draws a circle of radius
    # |AB| = 0 from two constant points, which every row, row 0 first, fails.
    steps = (
        step(StepOp.BISECT, ("M", "N"), "X"),
        step(StepOp.DESCRIBE_CIRCLE, ("A", "A", "B"), "c"),
    )
    given = {
        "M": (np.array([1.0, 1e308]), 0.0),
        "N": (np.array([3.0, 1e308]), 0.0),
        "A": (0.0, 0.0),
        "B": (0.0, 0.0),
    }
    with pytest.raises(ValueError) as caught:
        execute_batched(_compile(tuple(given), steps), given)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "circle radius must be positive, got 0.0"


AXIS_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.5, 1e308, -1e308, math.inf, -math.inf]


def axis_rows(values):
    """Each value against +0 and -0, in both orders."""
    rows = [(v, z) for v in values for z in (0.0, -0.0)]
    return [*rows, *((z, v) for v, z in rows)]


@pytest.mark.parametrize(
    "rows",
    [
        axis_rows(AXIS_VALUES),
        # A nan row falls back to np.hypot.
        axis_rows([*AXIS_VALUES, math.nan, -math.nan]),
        # So does a row with both components nonzero.
        [*axis_rows(AXIS_VALUES), (3.0, 4.0)],
        [*axis_rows(AXIS_VALUES), (math.inf, math.nan), (math.nan, -math.inf), (5e-324, 5e-324)],
    ],
)
def test_array_hypot_is_np_hypot_bit_for_bit(rows):
    x, y = (np.array(column) for column in zip(*rows))
    with np.errstate(all="ignore"):
        assert ARRAYS.hypot(x, y).view(np.uint64).tolist() == np.hypot(x, y).view(np.uint64).tolist()


def test_array_hypot_takes_scalars_and_keeps_an_infinite_component():
    assert ARRAYS.hypot(np.float64(-0.0), np.float64(-3.5)) == 3.5
    assert ARRAYS.hypot(np.array([math.inf, 3.0]), np.array([math.nan, 4.0])).tolist() == [math.inf, 5.0]


# Columns for the folds: signed zeros, subnormals, the least normal, finite
# values of both signs, the largest, infinities and nans of both signs.
FOLD_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -3.5, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan]


def row_bits(values, rows):
    """The bits of each row of a value: a column, a constant, or a list of floats."""
    return np.array(np.broadcast_to(np.asarray(values, dtype=np.float64), (rows,))).view(np.uint64).tolist()


def float_rows(primitive, rows):
    """``primitive(FLOATS, *row)`` at each row, or None where a check raises."""
    results = []
    for row in rows:
        try:
            results.append(primitive(FLOATS, *row))
        except ValueError:
            results.append(None)
    return results


def test_the_difference_fold_gives_the_float_differences_bits():
    # v - (+0.0) is v, so _minus keeps v; any other subtrahend is subtracted.
    column = np.array(FOLD_VALUES)
    for w in (np.float64(0.0), 0.0, np.float64(-0.0), np.float64(1.5), column[::-1]):
        expected = [v - float(u) for v, u in zip(FOLD_VALUES, np.broadcast_to(w, column.shape))]
        with np.errstate(all="ignore"):
            assert row_bits(kernel._minus(_Run.constant, column, w), len(column)) == row_bits(expected, len(column))


@pytest.mark.parametrize("anchor", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.5, 0.0)])
def test_the_distance_and_line_folds_give_the_float_bits(anchor):
    # From a constant anchor to (column, constant) and (constant, column):
    # _distance's and _line_through's differences, the latter's axis
    # direction, each row as FLOATS computes it, where its checks pass.
    p = tuple(np.float64(c) for c in anchor)
    column = np.array(FOLD_VALUES)
    rows, reverse = len(column), column[::-1]
    for q in ((column, np.float64(0.0)), (np.float64(-0.0), column), (column, reverse)):
        float_qs = [tuple(map(float, row)) for row in zip(*(np.broadcast_to(c, column.shape) for c in q))]
        with np.errstate(all="ignore"):
            distance = kernel._distance(_Run(), p, q)
        expected = [kernel._distance(FLOATS, tuple(map(float, p)), row) for row in float_qs]
        # np.hypot and math.hypot may differ in the last bit where no
        # component is zero, and np.hypot keeps a nan's sign.
        if q[1] is not reverse:
            assert row_bits(np.where(np.isnan(distance), np.nan, distance), rows) == row_bits(expected, rows), q
        run = _Run()
        with np.errstate(all="ignore"):
            _, (ux, uy) = kernel._line_through(run, p, q)
        lines = float_rows(lambda ns, row: kernel._line_through(ns, tuple(map(float, p)), row), [(row,) for row in float_qs])
        assert np.broadcast_to(run.ok, (rows,)).tolist() == [line is not None for line in lines]
        for i, line in enumerate(lines):
            if line is not None:
                got = [row_bits(c, rows)[i] for c in (ux, uy)]
                assert got == row_bits(line[1], 2), (q, i)


@pytest.mark.parametrize("center_y", [0.0, -0.0, 1.5])
@pytest.mark.parametrize(
    "line",
    [
        ((0.0, 0.0), (-0.0, 1.0)),
        ((0.0, 0.0), (0.0, 1.0)),
        ((0.0, -0.0), (-0.0, -1.0)),
        ((-0.0, 0.0), (0.0, 1.0)),
        # Not a unit direction, which _circle_line does not check: hy is one nonzero constant.
        ((0.0, 0.0), (-0.0, 0.5)),
    ],
)
def test_the_circle_line_folds_give_the_float_bits(center_y, line):
    # A centre x and a radius from FOLD_VALUES, each against each, with a
    # constant centre y, on constant lines along y: over a run _circle_line
    # folds cx, hx, h², half·(+1.0), ±0 + half and the tie-break. Those are
    # identities, so its y-side outputs equal FLOATS' at every row whose
    # centre x is finite; elsewhere the older folds of t0 and the crossings'
    # x differ from floats, where the returned point's check fails. The
    # highest point is compared at every row: the same bits where its checks
    # pass, and a failed check where FLOATS raises.
    cx, radius = (np.array(column) for column in zip(*((x, r) for x in FOLD_VALUES for r in FOLD_VALUES)))
    rows = len(cx)
    (ax, ay), (ux, uy) = line
    center_y_, ax_, ay_, ux_, uy_ = (np.float64(v) for v in (center_y, ax, ay, ux, uy))
    circle, arrays_line = ((cx, center_y_), radius), ((ax_, ay_), (ux_, uy_))
    run = _Run()
    with np.errstate(all="ignore"):
        missed, tangent, foot, low, high, low_last = kernel._circle_line(run, circle, arrays_line)
        highest = kernel._highest(run, circle, arrays_line, GeometryError, "miss")
    float_circles = [((float(x), center_y), float(r)) for x, r in zip(cx, radius)]
    for i, float_circle in enumerate(float_circles):
        if not math.isfinite(cx[i]):
            continue
        f_missed, f_tangent, f_foot, f_low, f_high, f_low_last = kernel._circle_line(FLOATS, float_circle, line)
        for name, value, want in (("missed", missed, f_missed), ("tangent", tangent, f_tangent), ("low_last", low_last, f_low_last)):
            assert bool(np.broadcast_to(value, (rows,))[i]) is bool(want), (name, i)
        got = [row_bits(c, rows)[i] for c in (*foot, low[1], high[1])]
        assert got == row_bits([*f_foot, f_low[1], f_high[1]], 4), i
    expected = float_rows(lambda ns, c: kernel._highest(ns, c, line, GeometryError, "miss"), [(c,) for c in float_circles])
    assert np.broadcast_to(run.ok, (rows,)).tolist() == [point is not None for point in expected]
    for i, point in enumerate(expected):
        if point is not None:
            assert [row_bits(c, rows)[i] for c in highest] == row_bits(point, 2), i


@pytest.mark.parametrize("direction", [(-1.0, 0.0), (-1.0, -0.0), (1.0, 0.0), (1.0, -0.0)])
def test_constant_crossings_tied_in_y_come_highest_by_x(direction):
    # On a line along x the two crossings tie in y; low comes last where its
    # x is the greater, a tie-break on constants alone.
    run = _Run()
    constant = np.float64
    circle = ((constant(0.0), constant(0.0)), constant(1.0))
    line = ((constant(0.0), constant(0.0)), tuple(map(constant, direction)))
    highest = kernel._highest(run, circle, line, GeometryError, "miss")
    expected = kernel._highest(FLOATS, ((0.0, 0.0), 1.0), ((0.0, 0.0), direction), GeometryError, "miss")
    assert row_bits(highest, 2) == row_bits(expected, 2) == row_bits((1.0, 0.0), 2)
    assert run.ok


def test_an_extension_that_underflows_to_minus_zero_is_not_folded():
    # dist·dx/norm underflows to -0.0 with every check passing; +0.0 + -0.0
    # is +0.0, so I's x must stay the sum, not the folded -0.0.
    frm_x = np.array([1e-300, 1e-200, 5e-324])
    dist = np.array([1e-300, 1e-200, 5e-324])
    zero = np.float64(0.0)
    run = _Run()
    with np.errstate(all="ignore"):
        x, y = kernel._extend(run, (zero, zero), (frm_x, zero), dist)
    assert run.ok.all()
    expected = [kernel._extend(FLOATS, (0.0, 0.0), (float(f), 0.0), float(d)) for f, d in zip(frm_x, dist)]
    assert row_bits(x, 3) == row_bits([e[0] for e in expected], 3) == row_bits([0.0, 0.0, 0.0], 3)
    assert row_bits(y, 3) == row_bits([e[1] for e in expected], 3)


class _Column(np.ndarray):
    """An ndarray subclass: a column to every fold, as any ndarray is."""


def test_a_subclassed_column_is_a_column_to_every_fold():
    column = np.array([0.0, 0.0]).view(_Column)
    positive = np.array([1.0, 2.0]).view(_Column)
    assert not ARRAYS.constant(column)
    assert ARRAYS.where(np.array([True, False]), column, np.float64(0.0)).shape == (2,)
    assert ARRAYS.axis(positive, np.float64(0.0)) == (1.0, 0.0)


# Counts each ufunc and array-function call that reaches a column: every
# array such a call returns is wrapped again, and operations between numpy
# scalars, which touch no column, are not counted.
class _Counted(np.ndarray):
    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.calls += 1
        result = getattr(ufunc, method)(*_plain(inputs), **_plain(kwargs))
        return result.view(_Counted) if isinstance(result, np.ndarray) and result.ndim else result

    def __array_function__(self, func, types, args, kwargs):
        _Counted.calls += 1
        result = func(*_plain(args), **_plain(kwargs))
        return result.view(_Counted) if isinstance(result, np.ndarray) and result.ndim else result


def _plain(value):
    if isinstance(value, _Counted):
        return value.view(np.ndarray)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


@pytest.mark.parametrize("kind, lam, passes", [(ApplicationKind.EXACT, None, 43), (ApplicationKind.DEFICIENT, 0.5, 53), (ApplicationKind.EXCESS, 0.5, 53)])
def test_a_sweep_run_makes_its_pinned_number_of_array_passes(kind, lam, passes):
    # A sweep run of 1,000 heights and its |AG|: the given points, the six
    # steps, the mask reduction (a concatenation and an all) and |AG|. A
    # change that adds a pass fails here; one that removes a pass lowers the pin.
    heights = np.linspace(0.1, 1.5, 1000).view(_Counted)
    _Counted.calls = 0
    env = execute_batched(SWEEP_PROGRAMS[kind], _given_coordinates(AreaFamily(kind, 2.0, lam), heights))
    kernel._distance(ARRAYS, env["A"], env["G"])
    assert _Counted.calls == passes


@pytest.mark.parametrize("program", ["full", "sweep"])
@pytest.mark.parametrize(
    "kind, lam, heights, i, message",
    [
        (ApplicationKind.EXACT, None, [0.5, 1.0, math.inf, 1.5], 2, "(2.0, inf)"),
        (ApplicationKind.EXACT, None, [0.5, math.nan, 1.5], 1, "(2.0, nan)"),
        (ApplicationKind.EXCESS, 0.5, [0.5, 1.0, math.inf, 1.5], 2, "(2.0, inf)"),
        (ApplicationKind.EXCESS, 0.5, [0.5, math.nan, 1.5], 1, "(2.0, nan)"),
        # The height is finite and the applied base b = L + lambda*y overflows.
        (ApplicationKind.EXCESS, 1e8, [0.5, 1e301, 1.5], 1, "(inf, 0.0)"),
    ],
)
def test_a_shared_given_column_fails_with_the_first_given_point_of_the_float_replay(
    program, kind, lam, heights, i, message
):
    family = AreaFamily(kind, 2.0, lam)
    heights = np.array(heights)
    with np.errstate(all="ignore"):
        given = _given_coordinates(family, heights)
    # C, D and the applied corner C± hold the very same heights array, and
    # B± and C± the same base b.
    corner = "C" + family.corner_suffix
    assert given["C"][1] is heights and given["D"][1] is heights and given[corner][1] is heights
    assert given["B" + family.corner_suffix][0] is given[corner][0]
    # The float replay of row i: its given points, built in order as ``Point``s, then the steps.
    with pytest.raises(ValueError) as expected:
        row = _given_coordinates(family, float(heights[i]))
        _PROGRAMS[kind].replay(tuple(Point(x, y, label) for label, (x, y) in row.items()))
    assert str(expected.value) == f"point coordinates must be finite, got {message}"
    compiled = _PROGRAMS[kind] if program == "full" else SWEEP_PROGRAMS[kind]
    with pytest.raises(ValueError) as caught:
        execute_batched(compiled, given)
    assert_same_error(caught.value, expected.value)


def test_a_given_point_that_no_step_reads_is_still_checked():
    # Z feeds no step, so only the given columns' check sees its infinite row 1.
    given = {"A": (0.0, 0.0), "B": (np.array([2.0, 4.0]), 0.0), "Z": (np.array([1.0, math.inf]), 0.0)}
    steps = (step(StepOp.BISECT, ("A", "B"), "M"),)
    with pytest.raises(ValueError) as expected:
        replay_trace(ConstructionTrace((Point(0.0, 0.0, "A"), Point(4.0, 0.0, "B"), Point(math.inf, 0.0, "Z")), steps))
    with pytest.raises(ValueError) as caught:
        execute_batched(_compile(tuple(given), steps), given)
    assert_same_error(caught.value, expected.value)
    assert str(caught.value) == "point coordinates must be finite, got (inf, 0.0)"


# Minor faults of each sweep, in a fresh process: one whose allocator has
# not yet been tuned by a larger free.
_FAULTS_PROBE = """
import json, resource
from areaconics.locus import ConicKind, SampleRange, sample_locus
faults = {}
for kind, lam in ((ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 0.5)):
    # A 100k-height hyperbola's 2n-entry columns take 1.6 MB each.
    for n in (6310, 8192, 100_000) if kind is ConicKind.HYPERBOLA else (6310, 8192):
        sample_range, counts = SampleRange(0.1, 1.5, n), []
        for _ in range(20):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sample_locus(kind, 2.0, sample_range, lam)
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        faults[f"{kind.value} {n}"] = counts
print(json.dumps(faults))
"""

# The peak resident size (KiB on Linux) that importing ``_batched`` adds
# once numpy and the modules it imports are loaded. After numpy's import
# the resident size sits below the peak, so a ballast of written pages
# first lifts it to the peak: past it, every page the import writes counts.
_RSS_PROBE = """
import resource, numpy, areaconics.constructions, areaconics.kernel
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open("/proc/self/statm") as statm:
    resident = int(statm.read().split()[1]) * resource.getpagesize() // 1024
ballast = numpy.ones(max(peak - resident, 0) * 1024, numpy.uint8)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import areaconics._batched
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def _fresh_python(code):
    """Run ``code`` in a new interpreter with the allocator's defaults: no MALLOC_* or GLIBC_TUNABLES setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


needs_glibc = pytest.mark.skipif(
    not (sys.platform == "linux" and platform.libc_ver()[0] == "glibc" and importlib.util.find_spec("resource")),
    reason="counts page faults with resource.getrusage and relies on glibc's dynamic mmap threshold",
)


@needs_glibc
def test_a_sweep_keeps_its_heap_pages_between_calls():
    # Without the 4 MiB freed at _batched's import, glibc trims the heap
    # after every run: ~250-550 faults per sweep at these sizes, and ~1,300
    # for the 100k-height hyperbola with 2 MiB freed.
    for case, counts in json.loads(_fresh_python(_FAULTS_PROBE)).items():
        assert max(counts[3:]) < 16, (case, counts)


@needs_glibc
def test_importing_batched_writes_no_page_of_its_reservation():
    # A written 4 MiB reservation would add 4,096 KiB.
    assert int(_fresh_python(_RSS_PROBE)) < 1024
