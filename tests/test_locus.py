import math
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest

from areaconics.constructions import (
    ApplicationKind,
    ConstructionError,
    apply_deficient,
    apply_exact,
    apply_excess,
    solve_height_for_area,
)
from areaconics.kernel import Point, distance
from areaconics.locus import (
    Branch,
    ConicKind,
    ConicSpec,
    DegenerateFitError,
    LocusError,
    LocusPoint,
    LocusSamples,
    SampleRange,
    conic_params,
    fit_conic_oracle,
    max_applicable_area,
    mirror,
    normalize_conic_coefficients,
    read_locus_csv,
    sample_locus,
    verify_residuals,
    write_locus_csv,
)


def test_sample_parabola_point():
    points = sample_locus(ConicKind.PARABOLA, 4, SampleRange(1.0, 2.0, 2))
    assert points[0].x == pytest.approx(2.0, rel=1e-12)
    assert points[0].y == 1.0
    assert points[0].branch is Branch.UPPER


def test_sample_ellipse_point():
    # lambda = 1 puts the point on the circle of radius L/2
    points = sample_locus(ConicKind.ELLIPSE, 2, SampleRange(1.0, 1.5, 2), lam=1)
    assert points[0].x == pytest.approx(1.0, rel=1e-12)
    assert points[0].y == 1.0


def test_sample_hyperbola_has_both_branches():
    points = sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(1.0, 2.0, 2), lam=1)
    uppers = [p for p in points if p.branch is Branch.UPPER]
    lowers = [p for p in points if p.branch is Branch.LOWER]
    assert len(uppers) == 2 and len(lowers) == 2
    assert points[:2] == uppers  # upper block first, each ascending in y
    assert uppers[0].x == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert uppers[0].y == 1.0
    # reflection across the conjugate axis y = -L/(2 lambda) = -1
    assert any(p.y == -3.0 and p.x == pytest.approx(math.sqrt(3.0), rel=1e-12) for p in lowers)
    assert [p.y for p in lowers] == sorted(p.y for p in lowers)


def _columns(points):
    """The same points as a ``LocusSamples``."""
    points = list(points)
    return LocusSamples([p.x for p in points], [p.y for p in points], [p.branch is Branch.LOWER for p in points])


def test_sample_locus_returns_a_sequence_of_points():
    points = sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(1.0, 2.0, 3), lam=1)
    assert isinstance(points, LocusSamples) and isinstance(points, Sequence)
    as_list = list(points)
    assert len(points) == len(as_list) == 6
    assert [points[i] for i in range(-6, 6)] == as_list + as_list
    assert type(points[0].x) is float and points[4].branch is Branch.LOWER
    with pytest.raises(IndexError):
        points[6]
    for part in (slice(1, 4), slice(None, None, -2), slice(3, 3)):
        assert isinstance(points[part], LocusSamples)
        assert points[part] == as_list[part]
    assert points == as_list and as_list == points
    assert points == tuple(as_list) and points == _columns(as_list)
    assert points != as_list[:-1] and as_list[:-1] != points
    assert points != as_list[::-1] and points != 3
    extra = [LocusPoint(0.0, 0.0)]
    assert type(points + extra) is list and points + extra == as_list + extra
    assert type(extra + points) is list and extra + points == extra + as_list
    assert as_list[2] in points and points.index(as_list[2]) == 2
    assert repr(points[:1]) == f"LocusSamples([{as_list[0]!r}])"
    with pytest.raises(ValueError):
        points.x[0] = 5.0  # the columns are read-only
    with pytest.raises(TypeError):
        hash(points)


def test_locus_samples_rejects_ragged_columns():
    with pytest.raises(LocusError, match="one-dimensional columns of one length"):
        LocusSamples([1.0], [1.0, 2.0], [False])
    with pytest.raises(LocusError, match="one-dimensional columns of one length"):
        LocusSamples([[1.0]], [[1.0]], [[False]])
    empty = LocusSamples([], [], [])
    assert len(empty) == 0 and empty == [] and list(empty) == []


def test_lower_branch_ties_keep_x_ascending():
    # y is far below the last bit of L/lam = 1e20, so every reflected
    # height -L/lam - y rounds to -1e20; a reversal would flip x there.
    points = sample_locus(ConicKind.HYPERBOLA, 1, SampleRange(0.05, 2, 4), lam=1e-20)
    xs = [0.22360679774997902, 0.8366600265340757, 1.161895003862225, 1.4142135623730951]
    heights = [0.05, 0.7000000000000001, 1.35, 2.0]
    assert list(points) == [LocusPoint(x, y, Branch.UPPER) for x, y in zip(xs, heights)] + [
        LocusPoint(x, -1e20, Branch.LOWER) for x in xs
    ]


def test_sample_range_validation():
    with pytest.raises(LocusError):
        SampleRange(1.0, 1.0, 2)
    with pytest.raises(LocusError):
        SampleRange(-0.5, 1.0, 2)
    with pytest.raises(LocusError):
        SampleRange(0.0, 1.0, 1)
    assert SampleRange(1.0, 3.5, 3).heights() == [1.0, 2.25, 3.5]


def test_sample_range_count_must_be_integral():
    for n in (2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(LocusError, match="sample count must be an integer"):
            SampleRange(0.1, 1.0, n)
    for n in (3, np.int64(3), np.uint8(3)):
        sample_range = SampleRange(0.1, 1.0, n)
        assert type(sample_range.n) is int
        assert sample_range.heights() == [0.1, 0.55, 1.0]


@pytest.mark.parametrize("seed", range(4))
def test_sweep_heights_are_the_grid_heights_bit_for_bit(seed):
    """The sweep's y column, worked out over arrays, is ``heights()`` exactly."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        y_min = 10.0 ** rng.uniform(-3, 3)
        y_max = y_min * (1.0 + 10.0 ** rng.uniform(-12, 4))
        sample_range = SampleRange(y_min, y_max, int(rng.integers(2, 3000)))
        heights = np.array(sample_range.heights())
        assert heights[-1] == y_max
        for kind, lam in ((ConicKind.PARABOLA, None), (ConicKind.HYPERBOLA, 1.0)):
            samples = sample_locus(kind, 1.0, sample_range, lam)
            y = samples.y[: sample_range.n]
            assert y.view(np.int64).tolist() == heights.view(np.int64).tolist()


def test_an_infinite_top_height_fails_as_at_the_first_height():
    # y_min + 0*inf is nan, without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match="rectangle height must be positive, got nan"):
            sample_locus(ConicKind.PARABOLA, 1.0, SampleRange(0.1, math.inf, 3))


def test_sample_locus_feasibility():
    with pytest.raises(LocusError):
        sample_locus(ConicKind.PARABOLA, 4, SampleRange(0.0, 1.0, 2))
    with pytest.raises(LocusError):
        sample_locus(ConicKind.ELLIPSE, 2, SampleRange(0.5, 2.0, 3), lam=1)
    with pytest.raises(LocusError):
        sample_locus(ConicKind.PARABOLA, 4, SampleRange(1.0, 2.0, 2), lam=1.0)
    with pytest.raises(LocusError):
        sample_locus(ConicKind.ELLIPSE, 2, SampleRange(0.5, 1.0, 2))


def test_mirror():
    assert mirror([LocusPoint(2, 1)]) == [LocusPoint(2, 1), LocusPoint(-2, 1)]
    assert mirror([LocusPoint(0, 0)]) == [LocusPoint(0, 0)]
    assert mirror([]) == []
    mixed = mirror([LocusPoint(1, 2, Branch.LOWER)])
    assert mixed[1] == LocusPoint(-1, 2, Branch.LOWER)


def test_conic_params_parabola():
    spec = conic_params(ConicKind.PARABOLA, 4)
    assert spec.lam is None and spec.center is None and spec.eccentricity is None
    assert spec.asymptote_slopes is None
    assert spec.vertices == (Point(0.0, 0.0, "A"),)
    assert spec.implicit_coefficients() == pytest.approx((-0.25, 0, 0, 0, 1.0, 0), abs=1e-15)


def test_conic_params_circle_case():
    spec = conic_params(ConicKind.ELLIPSE, 2, lam=1)
    assert spec.center == Point(0.0, 1.0)
    assert spec.semi_axis_x == 1.0
    assert spec.semi_axis_y == 1.0
    assert spec.eccentricity == 0.0


def test_conic_params_ellipse_major_axis_split():
    tall = conic_params(ConicKind.ELLIPSE, 4, lam=0.75)
    assert tall.eccentricity == 0.5
    assert tall.semi_axis_y == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert tall.semi_axis_y > tall.semi_axis_x  # major axis along the height

    wide = conic_params(ConicKind.ELLIPSE, 4, lam=4)
    assert wide.eccentricity == pytest.approx(math.sqrt(1 - 0.25), rel=1e-15)
    assert wide.semi_axis_x > wide.semi_axis_y  # major axis along the base


def test_conic_params_hyperbola():
    spec = conic_params(ConicKind.HYPERBOLA, 2, lam=1)
    assert spec.center == Point(0.0, -1.0)
    assert spec.vertices == (Point(0.0, 0.0, "A"), Point(0.0, -2.0, "A*"))
    assert spec.asymptote_slopes == (1.0, -1.0)
    assert spec.eccentricity == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert spec.conjugate_axis_y == -1.0


def test_conic_params_errors():
    with pytest.raises(LocusError):
        conic_params(ConicKind.ELLIPSE, 0, lam=1)
    with pytest.raises(LocusError):
        conic_params(ConicKind.HYPERBOLA, 2, lam=-1)
    with pytest.raises(LocusError):
        conic_params(ConicKind.HYPERBOLA, 2)
    with pytest.raises(LocusError):
        conic_params(ConicKind.PARABOLA, 2, lam=1)


def test_conic_spec_invariants():
    with pytest.raises(LocusError):
        ConicSpec(kind=ConicKind.ELLIPSE, base_L=2.0, lam=1.0, eccentricity=1.5)
    with pytest.raises(LocusError):
        ConicSpec(kind=ConicKind.PARABOLA, base_L=2.0, conjugate_axis_y=1.0)


def test_conic_spec_json():
    doc = conic_params(ConicKind.HYPERBOLA, 2, lam=1).to_json_dict()
    assert doc["kind"] == "hyperbola"
    assert doc["lambda"] == 1.0
    assert doc["center"] == [0.0, -1.0]
    assert doc["vertices"] == [[0.0, 0.0], [0.0, -2.0]]
    assert doc["asymptote_slopes"] == [1.0, -1.0]
    parabola_doc = conic_params(ConicKind.PARABOLA, 4).to_json_dict()
    assert "lambda" not in parabola_doc and "center" not in parabola_doc


def test_max_applicable_area_examples():
    assert max_applicable_area(2, 1) == (1.0, 1.0)
    assert max_applicable_area(4, 1) == (4.0, 2.0)
    assert max_applicable_area(1, 0.25) == (1.0, 0.5)
    with pytest.raises(LocusError):
        max_applicable_area(0, 1)


BASE_NOT_FINITE = "base length must be positive and finite, got {}"
RATIO_NOT_FINITE = "aspect ratio must be positive and finite, got inf"


@pytest.mark.parametrize(
    "kind, base, lam, message",
    [
        # An infinite L used to reach the construction, and fail there.
        (ConicKind.PARABOLA, math.inf, None, BASE_NOT_FINITE.format("inf")),
        (ConicKind.ELLIPSE, math.inf, 1.0, BASE_NOT_FINITE.format("inf")),
        (ConicKind.ELLIPSE, 1.0, math.inf, RATIO_NOT_FINITE),
        (ConicKind.HYPERBOLA, 1.0, math.inf, RATIO_NOT_FINITE),
        (ConicKind.HYPERBOLA, -math.inf, 1.0, BASE_NOT_FINITE.format("-inf")),
    ],
)
def test_an_infinite_base_or_aspect_ratio_is_rejected(kind, base, lam, message):
    sample_range = SampleRange(1.0, 2.0, 3)
    with pytest.raises(LocusError) as caught:
        sample_locus(kind, base, sample_range, lam)
    assert str(caught.value) == message
    for call in (
        lambda: conic_params(kind, base, lam),
        lambda: verify_residuals([LocusPoint(1.0, 1.0)], kind, base, lam, tol=1e-9),
    ):
        with pytest.raises(LocusError, match=f"^{message}$"):
            call()
    application_kind, application = {
        ConicKind.PARABOLA: (ApplicationKind.EXACT, lambda y: apply_exact(base, y)),
        ConicKind.ELLIPSE: (ApplicationKind.DEFICIENT, lambda y: apply_deficient(base, lam, y)),
        ConicKind.HYPERBOLA: (ApplicationKind.EXCESS, lambda y: apply_excess(base, lam, y)),
    }[kind]
    with pytest.raises(ConstructionError) as caught:
        for y in sample_range.heights():
            application(y)
    assert type(caught.value) is ConstructionError
    assert str(caught.value) == message
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        solve_height_for_area(application_kind, base, 1.0, lam)
    if lam is not None:
        with pytest.raises(LocusError, match=f"^{message}$"):
            max_applicable_area(base, lam)


def test_max_applicable_area_out_of_float_range():
    # L**2/(4*lam) = 2.5e399 overflows; the float formula gave (inf, 5e199).
    with pytest.raises(LocusError, match="overflows the float range"):
        max_applicable_area(1e200, 1.0)
    with pytest.raises(LocusError, match="underflows the float range"):
        max_applicable_area(1e-200, 1e300)
    # Only L**2 overflows (underflows); the area itself fits.
    area, at_base = max_applicable_area(1e200, 1e200)
    assert (area, at_base) == (pytest.approx(2.5e199, rel=1e-15), 5e199)
    assert max_applicable_area(1e-200, 1e-300)[0] == pytest.approx(2.5e-101, rel=1e-15)


def test_verify_residuals_pass_on_samples():
    for kind, lam in ((ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 1.0), (ConicKind.HYPERBOLA, 1.0)):
        points = sample_locus(kind, 2, SampleRange(0.2, 1.6, 9), lam)
        report = verify_residuals(points, kind, 2, lam, tol=1e-9)
        assert report.passed
        assert report.max_residual <= 1e-9 * 4.0


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_verify_residuals_rejects_tolerance(tol):
    with pytest.raises(LocusError, match="tolerance must be finite and nonnegative"):
        verify_residuals([LocusPoint(2, 1)], ConicKind.PARABOLA, 4, tol=tol)


def test_verify_residuals_zero_tolerance_passes_exact_point():
    assert verify_residuals([LocusPoint(2, 1)], ConicKind.PARABOLA, 4, tol=0).passed


def test_verify_residuals_fail():
    report = verify_residuals([LocusPoint(2.1, 1)], ConicKind.PARABOLA, 4, tol=1e-9)
    assert not report.passed
    assert report.max_residual == pytest.approx(0.41, rel=1e-9)
    assert report.worst == LocusPoint(2.1, 1)


def test_verify_residuals_empty():
    report = verify_residuals([], ConicKind.PARABOLA, 4)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.worst is None


def test_verify_residuals_nan_is_worst():
    # On-curve points, then two points whose residuals are nan, then a
    # point far off the curve: the first nan point stays the worst.
    for kind, lam, bad in (
        (ConicKind.ELLIPSE, 1.0, LocusPoint(0.25, math.inf)),  # L*y - y**2 = inf - inf
        (ConicKind.HYPERBOLA, 1.5, LocusPoint(math.nan, 1.0)),
        (ConicKind.PARABOLA, None, LocusPoint(math.nan, 1.0)),
    ):
        points = sample_locus(kind, 2, SampleRange(0.2, 1.6, 9), lam)
        points += [bad, LocusPoint(math.nan, 0.5), LocusPoint(100.0, 0.5)]
        report = verify_residuals(points, kind, 2, lam, tol=1e-9)
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert report.worst is bad
    report = verify_residuals([LocusPoint(math.nan, 1.0), LocusPoint(5.0, 1.0)], ConicKind.ELLIPSE, 2, 1.0)
    assert not report.passed
    assert math.isnan(report.max_residual) and math.isnan(report.max_standard_residual)
    assert report.worst == report.standard_worst
    assert math.isnan(report.worst.x)


def _same_report(points, kind, lam, tol=1e-9):
    """``verify_residuals`` of a list and of the same points as columns: one report."""
    by_loop = verify_residuals(list(points), kind, 2, lam, tol)
    by_columns = verify_residuals(_columns(points), kind, 2, lam, tol)
    # repr compares nan fields too, and shows a numpy scalar in the report.
    assert repr(by_columns) == repr(by_loop)
    return by_loop


KINDS = [(ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 1.0), (ConicKind.HYPERBOLA, 1.5)]


@pytest.mark.parametrize("kind, lam", KINDS)
@pytest.mark.parametrize("mirrored", [False, True])
def test_verify_residuals_loop_and_columns_agree(kind, lam, mirrored):
    samples = sample_locus(kind, 2, SampleRange(0.2, 1.6, 9), lam)
    if mirrored:
        samples = _columns(mirror(samples))
    report = _same_report(samples, kind, lam)
    assert report.passed
    assert verify_residuals(samples, kind, 2, lam) == report
    assert _same_report([], kind, lam) == verify_residuals(samples[:0], kind, 2, lam)
    # Off the curve: the tolerance fails.
    off = LocusSamples(samples.x * 1.01, samples.y, samples.lower)
    assert not _same_report(off, kind, lam).passed
    # The first nan is the worst, in both forms.
    points = list(samples)
    points[3:3] = [LocusPoint(math.nan, 1.0), LocusPoint(5.0, 1.0), LocusPoint(math.nan, 0.5)]
    report = _same_report(points, kind, lam)
    assert math.isnan(report.worst.x) and report.worst.y == 1.0
    assert report.standard_worst == report.worst
    # Of two equal maxima (mirror images), the first is the worst.
    report = _same_report(points[:3] + [LocusPoint(3.0, 1.0), LocusPoint(-3.0, 1.0)] + points[6:], kind, lam)
    assert report.worst == report.standard_worst == LocusPoint(3.0, 1.0)


def test_verify_residuals_overflow_is_an_infinite_residual():
    # (y - c)**2 overflows; ``** 2`` used to raise OverflowError here.
    report = _same_report([LocusPoint(1.0, 1e200)], ConicKind.ELLIPSE, 1.0)
    assert not report.passed
    assert report.max_residual == report.max_standard_residual == math.inf


@pytest.mark.parametrize("kind, lam", KINDS)
def test_mirror_fit_and_write_take_columns_as_lists(tmp_path, kind, lam):
    samples = sample_locus(kind, 2, SampleRange(0.2, 1.6, 9), lam)
    assert mirror(samples) == mirror(list(samples))
    mirrored = _columns(mirror(samples))
    assert fit_conic_oracle(mirrored) == fit_conic_oracle(list(mirrored))
    by_columns, by_loop = tmp_path / "columns.csv", tmp_path / "loop.csv"
    write_locus_csv(mirrored, by_columns)
    write_locus_csv(list(mirrored), by_loop)
    assert by_columns.read_bytes() == by_loop.read_bytes()
    # Points on the axis, either zero, are their own mirror images.
    points = [
        LocusPoint(0.0, 0.0),
        LocusPoint(2.0, 1.0),
        LocusPoint(-0.0, -3.0, Branch.LOWER),
        LocusPoint(-1.5, 0.5),
        LocusPoint(1.0, -2.0, Branch.LOWER),
    ]
    assert mirror(_columns(points)) == mirror(points)
    assert len(mirror(points)) == 8


def test_residuals_invariant_under_mirroring():
    for kind, lam in ((ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 2.0)):
        points = sample_locus(kind, 3, SampleRange(0.3, 1.4, 7), lam)
        base = verify_residuals(points, kind, 3, lam)
        doubled = verify_residuals(mirror(points), kind, 3, lam)
        assert doubled.max_residual == base.max_residual
        assert doubled.max_standard_residual == base.max_standard_residual


def test_hyperbola_branch_symmetry_algebraic():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        base = float(rng.uniform(0.1, 50.0))
        lam = float(rng.uniform(0.1, 10.0))
        y = float(rng.uniform(0.01, 50.0))
        x = math.sqrt(base * y + lam * y * y)
        reflected = -base / lam - y
        residual = abs(x * x - (base * reflected + lam * reflected * reflected))
        assert residual <= 1e-9 * max(1.0, x * x)


def test_standard_form_equivalence_on_samples():
    for kind, lam in ((ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 1.5)):
        points = sample_locus(kind, 2, SampleRange(0.2, 1.6, 9), lam)
        report = verify_residuals(points, kind, 2, lam, tol=1e-9)
        assert report.max_residual <= 1e-9 * 4.0
        assert report.max_standard_residual <= 1e-8


def test_circle_specialization():
    base = 3.0
    points = sample_locus(ConicKind.ELLIPSE, base, SampleRange(0.1, 2.9, 15), lam=1)
    center = Point(0.0, base / 2.0)
    for p in points:
        assert abs(distance(Point(p.x, p.y), center) - base / 2.0) <= 1e-9


def test_degeneration_to_parabola():
    heights = SampleRange(0.01, 1.0, 12)
    parabola = sample_locus(ConicKind.PARABOLA, 1, heights)
    ellipse = sample_locus(ConicKind.ELLIPSE, 1, heights, lam=1e-6)
    hyperbola = [
        p for p in sample_locus(ConicKind.HYPERBOLA, 1, heights, lam=1e-6) if p.branch is Branch.UPPER
    ]
    for p, e, h in zip(parabola, ellipse, hyperbola):
        assert abs(e.x - p.x) <= 1e-6
        assert abs(h.x - p.x) <= 1e-6


def test_normalize_conic_coefficients():
    assert normalize_conic_coefficients((1, 0, 0, 0, -4, 0)) == (-0.25, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert normalize_conic_coefficients((2, 0, 0, 0, 0, 0)) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateFitError):
        normalize_conic_coefficients((0, 0, 0, 0, 0, 0))
    with pytest.raises(LocusError):
        normalize_conic_coefficients((1, 2, 3))


def test_fit_conic_oracle_parabola():
    points = sample_locus(ConicKind.PARABOLA, 4, SampleRange(0.5, 4.0, 8))
    fitted = fit_conic_oracle(points)
    expected = normalize_conic_coefficients((1, 0, 0, 0, -4, 0))
    assert fitted == pytest.approx(expected, abs=1e-6)


def test_fit_conic_oracle_circle():
    points = sample_locus(ConicKind.ELLIPSE, 2, SampleRange(0.2, 1.8, 8), lam=1)
    fitted = fit_conic_oracle(points)
    expected = normalize_conic_coefficients((1, 0, 1, 0, -2, 0))
    assert fitted == pytest.approx(expected, abs=1e-6)


def test_fit_conic_oracle_degenerate():
    collinear = [LocusPoint(float(i), 2.0 * i + 1.0) for i in range(6)]
    with pytest.raises(DegenerateFitError):
        fit_conic_oracle(collinear)
    with pytest.raises(DegenerateFitError):
        fit_conic_oracle([LocusPoint(1, 1)] * 5)


def test_fit_conic_oracle_rejects_non_finite_points():
    points = sample_locus(ConicKind.ELLIPSE, 2, SampleRange(0.2, 1.8, 8), lam=1)
    for bad, message in (
        (LocusPoint(math.nan, 1.0), r"point 8 \(nan, 1.0\) has a non-finite coordinate"),
        (LocusPoint(0.5, math.inf), r"point 8 \(0.5, inf\) has a non-finite coordinate"),
        (LocusPoint(-math.inf, 1.0), r"point 8 \(-inf, 1.0\) has a non-finite coordinate"),
        (LocusPoint(2e154, 1.0), r"point 8 \(2e\+154, 1.0\) overflows the design matrix"),
        (LocusPoint(1.0, -1.5e154), r"point 8 \(1.0, -1.5e\+154\) overflows the design matrix"),
    ):
        with pytest.raises(LocusError, match=message) as info:
            fit_conic_oracle(points + [bad, LocusPoint(math.nan, 0.0)])
        assert type(info.value) is LocusError


def _full_svd_fit(points):
    """The fit as a full SVD of a row-built design matrix: the reference."""
    rows = np.array([[p.x * p.x, p.x * p.y, p.y * p.y, p.x, p.y, 1.0] for p in points], dtype=float)
    return normalize_conic_coefficients(np.linalg.svd(rows)[2][-1])


@pytest.mark.parametrize("kind, lam", [(ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 2.0)])
@pytest.mark.parametrize("base", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("mirrored", [False, True])
def test_fit_conic_oracle_matches_full_svd(kind, lam, base, mirrored):
    top = 0.9 * base / lam if kind is ConicKind.ELLIPSE else 3.0 * base
    points = sample_locus(kind, base, SampleRange(top / 200, top, 120), lam)
    if mirrored:
        points = mirror(points)
    assert len(points) <= 500
    assert fit_conic_oracle(points) == pytest.approx(_full_svd_fit(points), abs=1e-12)


def test_fit_conic_oracle_memory_is_linear():
    # A full SVD would ask for a 200k-by-200k U (298 GiB).
    points = mirror(sample_locus(ConicKind.ELLIPSE, 2.0, SampleRange(1e-3, 1.999, 100_000), lam=1.0))
    assert len(points) == 200_000
    tracemalloc.start()
    try:
        fitted = fit_conic_oracle(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    expected = conic_params(ConicKind.ELLIPSE, 2.0, 1.0).implicit_coefficients()
    assert fitted == pytest.approx(expected, abs=1e-6)


def test_oracle_agreement_all_kinds():
    cases = (
        (ConicKind.PARABOLA, 4.0, None, SampleRange(0.5, 4.0, 8)),
        (ConicKind.ELLIPSE, 2.0, 1.0, SampleRange(0.2, 1.8, 8)),
        (ConicKind.HYPERBOLA, 2.0, 1.0, SampleRange(0.5, 4.0, 8)),
    )
    for kind, base, lam, sample_range in cases:
        points = [p for p in sample_locus(kind, base, sample_range, lam) if p.branch is Branch.UPPER]
        fitted = fit_conic_oracle(points)
        expected = conic_params(kind, base, lam).implicit_coefficients()
        assert fitted == pytest.approx(expected, abs=1e-6)


def test_csv_round_trip(tmp_path):
    points = sample_locus(ConicKind.HYPERBOLA, 2, SampleRange(0.3, 2.7, 5), lam=0.5)
    path = tmp_path / "locus.csv"
    write_locus_csv(points, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x,y,branch"
    loaded = read_locus_csv(path)
    assert loaded == points  # bit-exact through repr round trip


def test_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b,c\n1,2,upper\n", encoding="utf-8")
    with pytest.raises(LocusError):
        read_locus_csv(bad_header)

    bad_branch = tmp_path / "bad2.csv"
    bad_branch.write_text("x,y,branch\n1,2,sideways\n", encoding="utf-8")
    with pytest.raises(LocusError):
        read_locus_csv(bad_branch)

    bad_number = tmp_path / "bad3.csv"
    bad_number.write_text("x,y,branch\none,2,upper\n", encoding="utf-8")
    with pytest.raises(LocusError):
        read_locus_csv(bad_number)
