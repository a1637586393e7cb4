"""Conic loci swept out by the area applications.

As the rectangle height y varies with the base segment fixed, the
rectangle/square intersection point J traces a conic: a parabola for
the exact application (x**2 = L*y), an ellipse for the deficient one
(x**2 = L*y - lam*y**2), and one hyperbola branch for the excessive one
(x**2 = L*y + lam*y**2), completed by mirror images across the height
axis and, for the hyperbola, by reflection across the conjugate axis
y = -L/(2*lam).

``sample_locus`` drives the constructions, never the closed forms; the
closed forms live in ``conic_params`` and ``verify_residuals``, so
construction-versus-equation agreement is a checked property rather
than an assumption. ``fit_conic_oracle`` is an independent least-squares
cross check on sampled points. A sweep returns its points as columns,
a ``LocusSamples``, which ``verify_residuals`` checks on the columns
directly; every other function loops over the points. Only the code that
sweeps, fits or reads the columns imports numpy, at its first call, so
code that does none of these (most CLI verbs) never loads it.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from pathlib import Path as FilePath
from typing import Any

from .constructions import (
    _STEPS,
    ApplicationKind,
    ApplicationSpec,
    AreaFamily,
    ConstructionError,
    _in_decimal,
    _max_area,
)
from .kernel import Point, _bind, _distance, _Value

__all__ = [
    "Branch",
    "ConicKind",
    "ConicSpec",
    "DegenerateFitError",
    "LocusError",
    "LocusPoint",
    "LocusSamples",
    "SampleRange",
    "VerificationReport",
    "conic_params",
    "fit_conic_oracle",
    "max_applicable_area",
    "mirror",
    "normalize_conic_coefficients",
    "read_locus_csv",
    "sample_locus",
    "verify_residuals",
    "write_locus_csv",
]


# Heights per run of the batched step program: memory stays flat in n.
_BLOCK = 1024


class LocusError(ValueError):
    """Invalid locus parameters or data."""


class DegenerateFitError(LocusError):
    """The sampled points do not determine a unique conic."""


class ConicKind(Enum):
    PARABOLA = "parabola"
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"


_APPLICATION_KIND = {
    ConicKind.PARABOLA: ApplicationKind.EXACT,
    ConicKind.ELLIPSE: ApplicationKind.DEFICIENT,
    ConicKind.HYPERBOLA: ApplicationKind.EXCESS,
}


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"


class LocusPoint(_Value):
    """One traced point: x is the square side, y the rectangle height.

    ``branch`` distinguishes the hyperbola's two branches; everything
    else lives on the upper branch.
    """

    __match_args__ = ("x", "y", "branch")

    def __init__(self, x: float, y: float, branch: Branch = Branch.UPPER) -> None:
        _bind(self, "x", float(x))
        _bind(self, "y", float(y))
        _bind(self, "branch", branch)


class LocusSamples(Sequence[LocusPoint]):
    """Locus points held as columns: x and y float arrays and a ``lower`` mask.

    ``lower`` marks the hyperbola's lower-branch points. As a sequence it
    behaves like a list of ``LocusPoint``s, each built when accessed: a
    slice is a ``LocusSamples``, ``==`` against any sequence of points
    compares as two lists would, and ``+`` with a list gives a list. The
    columns are read-only views, not copies: a caller that passes in its
    own float or bool arrays keeps them, and writing to them changes the
    samples. The value is not frozen; set no attribute after construction.
    """

    __slots__ = ("x", "y", "lower")

    def __init__(self, x: Any, y: Any, lower: Any) -> None:
        import numpy as np

        columns = [np.asarray(c, dtype).view() for c, dtype in ((x, float), (y, float), (lower, bool))]
        if any(c.shape != columns[0].shape or c.ndim != 1 for c in columns):
            raise LocusError("x, y and lower must be one-dimensional columns of one length")
        for c in columns:
            c.flags.writeable = False
        self.x, self.y, self.lower = columns

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return LocusSamples(self.x[index], self.y[index], self.lower[index])
        return LocusPoint(float(self.x[index]), float(self.y[index]), _BRANCH[bool(self.lower[index])])

    def __iter__(self) -> Any:
        for x, y, lower in zip(self.x.tolist(), self.y.tolist(), self.lower.tolist()):
            yield LocusPoint(x, y, _BRANCH[lower])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __add__(self, other: Any) -> Any:
        return list(self) + other if isinstance(other, list) else NotImplemented

    def __radd__(self, other: Any) -> Any:
        return other + list(self) if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"LocusSamples({list(self)!r})"


# The branch of a point by its ``lower`` flag.
_BRANCH = {False: Branch.UPPER, True: Branch.LOWER}


class SampleRange(_Value):
    """Uniform sampling grid over heights [y_min, y_max], endpoints included."""

    __match_args__ = ("y_min", "y_max", "n")

    def __init__(self, y_min: float, y_max: float, n: int) -> None:
        y_min, y_max = float(y_min), float(y_max)
        try:
            n = operator.index(n)
        except TypeError as exc:
            raise LocusError(f"sample count must be an integer, got {n!r}") from exc
        if not (y_min >= 0.0):
            raise LocusError(f"y_min must be nonnegative, got {y_min}")
        if not (y_min < y_max):
            raise LocusError(f"need y_min < y_max, got [{y_min}, {y_max}]")
        if n < 2:
            raise LocusError(f"need at least 2 samples, got {n}")
        _bind(self, "y_min", y_min)
        _bind(self, "y_max", y_max)
        _bind(self, "n", n)

    def heights(self) -> list[float]:
        """The n heights y_min + i*step, the last one y_max exactly: the heights a sweep takes."""
        y_min, step = self.y_min, self._step()
        values = [_grid_height(y_min, step, i) for i in range(self.n)]
        values[-1] = self.y_max
        return values

    def _step(self) -> float:
        """The grid spacing; the last height, y_min + (n-1)*step, may round away from y_max."""
        return (self.y_max - self.y_min) / (self.n - 1)


def _grid_height(y_min: float, step: float, index: Any) -> Any:
    """The height y_min + i*step at grid index i.

    Plain arithmetic, so ``index`` may be an int or a numpy array of them.
    """
    return y_min + index * step


def _family(kind: ConicKind, base_L: float, lam: float | None) -> AreaFamily:
    """The area family tracing the conic; invalid parameters raise LocusError."""
    try:
        return AreaFamily(_APPLICATION_KIND[kind], base_L, lam)
    except ConstructionError as exc:
        raise LocusError(str(exc)) from exc


def sample_locus(
    kind: ConicKind,
    base_L: float,
    sample_range: SampleRange,
    lam: float | None = None,
) -> LocusSamples:
    """Trace the locus by running the matching construction at each height.

    Heights are uniform on the range. Each point's x is the square side
    |AG| measured off the constructed G, not evaluated from a formula;
    its y is the input height. The construction's step program runs once
    per block of heights over arrays, and reproduces the per-height
    ``apply_*`` results bit for bit, failures included: an invalid height
    raises what ``apply_*`` raises at the first failing height. For the
    hyperbola the result also contains the lower-branch reflections
    across the conjugate axis, appended after the upper block; each
    block is ordered by ascending y. The points come back as columns, a
    ``LocusSamples``.

    Heights must be strictly constructible: y > 0 everywhere, and
    lam * y_max < L for the ellipse (at lam*y = L the applied rectangle
    vanishes).
    """
    import numpy as np

    from ._batched import ARRAYS, execute_batched, given_points

    family = _family(kind, base_L, lam)
    if sample_range.y_min <= 0.0:
        raise LocusError("sample heights must be positive: the applied rectangle vanishes at y = 0")
    # Only the ellipse's applied base b = L - lam*y shrinks to nothing, at y = L/lam.
    if not (family.rect_base(sample_range.y_max) > 0.0):
        raise LocusError(
            f"ellipse heights must stay below L/lambda = {-family.base_L / family.k}: "
            "the deficiency would consume the whole base"
        )
    # Silent, as in floats: at an infinite y_max, 0*inf is nan.
    with np.errstate(all="ignore"):
        heights = _grid_height(sample_range.y_min, sample_range._step(), np.arange(sample_range.n))
    heights[-1] = sample_range.y_max
    # The heights ascend from y_min > 0 to y_max, inside the bounds checked
    # above, so the application's checks pass at every height if they pass
    # at the first (an infinite y_max makes the first height NaN, which the
    # spec rejects).
    spec = ApplicationSpec(family.kind, family.base_L, float(heights[0]), family.lam)
    steps = _STEPS[spec.kind]
    sides = np.empty_like(heights)
    for start in range(0, len(heights), _BLOCK):
        block = heights[start : start + _BLOCK]
        env = execute_batched(steps, given_points(spec.kind, spec.base_L, spec.lam, block))
        sides[start : start + _BLOCK] = _distance(ARRAYS, env["A"], env["G"])
    upper = np.zeros(len(heights), bool)
    if kind is not ConicKind.HYPERBOLA:
        return LocusSamples(sides, heights, upper)
    # -L/k - y is only non-increasing in floats, so reflected heights can
    # tie; a stable sort keeps those in ascending x, where a reversal
    # would flip them.
    reflected = family.reflect(heights)
    order = np.argsort(reflected, kind="stable")
    return LocusSamples(
        np.concatenate((sides, sides[order])),
        np.concatenate((heights, reflected[order])),
        np.concatenate((upper, ~upper)),
    )


def mirror(points: Sequence[LocusPoint]) -> list[LocusPoint]:
    """Append the (-x, y) mirror images; points on the axis self-mirror."""
    mirrored = [LocusPoint(-p.x, p.y, p.branch) for p in points if p.x != 0.0]
    return list(points) + mirrored


class ConicSpec(_Value):
    """Closed-form parameters of a traced conic.

    Fields that do not apply to a kind are absent (None/empty) rather
    than zero-filled; the asymptote fields exist only for the hyperbola.
    Vertices are the curve's points on the height axis.
    """

    __match_args__ = (
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
    )

    def __init__(
        self,
        kind: ConicKind,
        base_L: float,
        lam: float | None = None,
        center: Point | None = None,
        semi_axis_x: float | None = None,
        semi_axis_y: float | None = None,
        vertices: Sequence[Point] = (),
        eccentricity: float | None = None,
        asymptote_slopes: tuple[float, float] | None = None,
        conjugate_axis_y: float | None = None,
    ) -> None:
        vertices = tuple(vertices)
        if kind is ConicKind.ELLIPSE:
            if eccentricity is None or not (0.0 <= eccentricity < 1.0):
                raise LocusError(f"ellipse eccentricity must be in [0, 1), got {eccentricity}")
        if kind is ConicKind.HYPERBOLA:
            if eccentricity is None or not (eccentricity > 1.0):
                raise LocusError(f"hyperbola eccentricity must exceed 1, got {eccentricity}")
        has_asymptotes = asymptote_slopes is not None or conjugate_axis_y is not None
        if has_asymptotes != (kind is ConicKind.HYPERBOLA):
            raise LocusError("asymptote fields are present exactly for the hyperbola")
        _bind(self, "kind", kind)
        _bind(self, "base_L", base_L)
        _bind(self, "lam", lam)
        _bind(self, "center", center)
        _bind(self, "semi_axis_x", semi_axis_x)
        _bind(self, "semi_axis_y", semi_axis_y)
        _bind(self, "vertices", vertices)
        _bind(self, "eccentricity", eccentricity)
        _bind(self, "asymptote_slopes", asymptote_slopes)
        _bind(self, "conjugate_axis_y", conjugate_axis_y)

    def implicit_coefficients(self) -> tuple[float, float, float, float, float, float]:
        """Coefficients (a, b, c, d, e, f) of a*x^2 + b*xy + c*y^2 + d*x + e*y + f = 0.

        Gauge-normalized so the largest-magnitude coefficient is +1,
        matching the normalization of ``fit_conic_oracle``.
        """
        family = _family(self.kind, self.base_L, self.lam)
        return normalize_conic_coefficients((1.0, 0.0, -family.k, 0.0, -family.base_L, 0.0))

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind.value, "base_L": self.base_L}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.center is not None:
            out["center"] = [self.center.x, self.center.y]
        if self.semi_axis_x is not None:
            out["semi_axis_x"] = self.semi_axis_x
        if self.semi_axis_y is not None:
            out["semi_axis_y"] = self.semi_axis_y
        if self.vertices:
            out["vertices"] = [[v.x, v.y] for v in self.vertices]
        if self.eccentricity is not None:
            out["eccentricity"] = self.eccentricity
        if self.asymptote_slopes is not None:
            out["asymptote_slopes"] = list(self.asymptote_slopes)
        if self.conjugate_axis_y is not None:
            out["conjugate_axis_y"] = self.conjugate_axis_y
        return out


def conic_params(kind: ConicKind, base_L: float, lam: float | None = None) -> ConicSpec:
    """Closed-form conic parameters for the given base length and aspect ratio.

    Parabola: x**2 = L*y, vertex at the origin. Ellipse: center
    (0, L/(2*lam)), semi-axes L/(2*sqrt(lam)) along the base and
    L/(2*lam) along the height, eccentricity sqrt(1 - lam) for lam <= 1
    (a circle of radius L/2 at lam = 1) and sqrt(1 - 1/lam) otherwise.
    Hyperbola: center (0, -L/(2*lam)), vertices (0, 0) and (0, -L/lam),
    asymptotes y = -L/(2*lam) +- x/sqrt(lam), eccentricity sqrt(1 + lam).
    """
    family = _family(kind, base_L, lam)
    base_L, lam = family.base_L, family.lam
    if lam is None:  # the parabola, k = 0
        return ConicSpec(kind=kind, base_L=base_L, vertices=(Point(0.0, 0.0, "A"),))
    half_height = base_L / (2.0 * lam)
    half_width = base_L / (2.0 * math.sqrt(lam))
    if kind is ConicKind.ELLIPSE:
        ecc = math.sqrt(1.0 - lam) if lam <= 1.0 else math.sqrt(1.0 - 1.0 / lam)
        return ConicSpec(
            kind=kind,
            base_L=base_L,
            lam=lam,
            center=Point(0.0, half_height),
            semi_axis_x=half_width,
            semi_axis_y=half_height,
            vertices=(Point(0.0, 0.0, "A"), Point(0.0, base_L / lam)),
            eccentricity=ecc,
        )
    root_lam = math.sqrt(lam)
    return ConicSpec(
        kind=kind,
        base_L=base_L,
        lam=lam,
        center=Point(0.0, -half_height),
        semi_axis_x=half_width,
        semi_axis_y=half_height,
        vertices=(Point(0.0, 0.0, "A"), Point(0.0, -base_L / lam, "A*")),
        eccentricity=math.sqrt(1.0 + lam),
        asymptote_slopes=(1.0 / root_lam, -1.0 / root_lam),
        conjugate_axis_y=-half_height,
    )


def max_applicable_area(base_L: float, lam: float) -> tuple[float, float]:
    """Largest area a deficient application can hold, and the base it sits on.

    Returns (L**2 / (4*lam), L/2): the maximal rectangle is the one
    applied to half the segment. An area that a float cannot hold (it
    overflows, or underflows to 0) raises LocusError.
    """
    family = _family(ConicKind.ELLIPSE, base_L, float(lam))
    base_L, lam = family.base_L, family.lam
    area = _max_area(base_L, lam)
    if not (0.0 < area < math.inf):  # L*L may over- or underflow where the area does not
        area = float(_in_decimal(_max_area, base_L, lam))
    if not (0.0 < area < math.inf):
        raise LocusError(
            f"the maximum area L^2/(4*lambda) for L = {base_L}, lambda = {lam} "
            f"{'underflows' if area == 0.0 else 'overflows'} the float range"
        )
    return area, base_L / 2.0


class VerificationReport(_Value):
    """Residual summary for a point set against a conic's equations.

    ``max_residual`` is over the vertex-form equation (x**2 versus
    L*y -+ lam*y**2, with lower-branch points reflected first);
    ``max_standard_residual`` is over the dimensionless standard form.
    The pass flag compares the vertex-form maximum against
    ``tol * max(1, L**2)``, the natural area scale of the residual.
    A nan residual (a non-finite point) counts as the largest: the first
    such point is reported as the worst, and the check fails.
    """

    __match_args__ = (
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
    )

    def __init__(
        self,
        kind: ConicKind,
        base_L: float,
        lam: float | None,
        tol: float,
        threshold: float,
        passed: bool,
        max_residual: float,
        worst: LocusPoint | None,
        max_standard_residual: float,
        standard_worst: LocusPoint | None,
    ) -> None:
        _bind(self, "kind", kind)
        _bind(self, "base_L", base_L)
        _bind(self, "lam", lam)
        _bind(self, "tol", tol)
        _bind(self, "threshold", threshold)
        _bind(self, "passed", passed)
        _bind(self, "max_residual", max_residual)
        _bind(self, "worst", worst)
        _bind(self, "max_standard_residual", max_standard_residual)
        _bind(self, "standard_worst", standard_worst)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind.value, "base_L": self.base_L}
        if self.lam is not None:
            out["lambda"] = self.lam
        out["tol"] = self.tol
        out["threshold"] = self.threshold
        out["passed"] = self.passed
        out["max_residual"] = self.max_residual
        if self.worst is not None:
            out["worst"] = [self.worst.x, self.worst.y, self.worst.branch.value]
        out["max_standard_residual"] = self.max_standard_residual
        if self.standard_worst is not None:
            out["standard_worst"] = [
                self.standard_worst.x,
                self.standard_worst.y,
                self.standard_worst.branch.value,
            ]
        return out


def _residual_forms(family: AreaFamily) -> Callable[[Any, Any, Any], tuple[Any, Any]]:
    """The conic's residuals at points: ``residuals(x, y, vertex_y) -> (vertex, standard)``.

    Plain arithmetic, so the coordinates may be floats or numpy arrays.
    ``vertex_y`` is y with lower-branch points reflected first; the vertex
    form is |x**2 - (L*y + k*y**2)| at it, and the standard form is
    dimensionless. Both are >= 0 or nan.
    """
    base_L, k = family.base_L, family.k
    if k == 0.0:

        def parabola(x: Any, y: Any, vertex_y: Any) -> tuple[Any, Any]:
            # k = 0 skips k*y*y, which is nan at an infinite height; x**2 = L*y
            # is already the parabola's standard form.
            residual = abs(x * x - base_L * vertex_y)
            return residual, residual

        return parabola
    # The standard form about the center y = c = -L/(2k) is
    # (y - c)**2/c**2 + s*x**2/a**2 = 1, with s = +1 for the ellipse and -1
    # for the hyperbola; symmetric about c, so both branches check as they
    # are.
    center = -base_L / (2.0 * k)
    a = base_L / (2.0 * math.sqrt(abs(k)))
    c2, a2, s = center * center, a * a, (-1.0 if k > 0.0 else 1.0)

    def central(x: Any, y: Any, vertex_y: Any) -> tuple[Any, Any]:
        d = y - center
        residual = abs(x * x - (base_L * vertex_y + k * vertex_y * vertex_y))
        return residual, abs(d * d / c2 + s * (x * x / a2) - 1.0)

    return central


def verify_residuals(
    points: Iterable[LocusPoint],
    kind: ConicKind,
    base_L: float,
    lam: float | None = None,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check sampled points against the conic's equations; never raises on failure.

    ``tol`` must be finite and nonnegative: a nan or negative one would fail
    exact points, an infinite one pass any. A ``LocusSamples`` is checked
    on its columns, any other iterable point by point, to the same report.
    """
    family = _family(kind, base_L, lam)
    if not (0.0 <= tol < math.inf):
        raise LocusError(f"tolerance must be finite and nonnegative, got {tol}")
    base_L = family.base_L
    residuals = _residual_forms(family)
    # A nan residual is the worst: the worst point is the first nan, else
    # the first maximum.
    max_residual = max_standard = -1.0
    worst: LocusPoint | None = None
    standard_worst: LocusPoint | None = None
    if isinstance(points, LocusSamples):
        import numpy as np

        if len(points):
            x, y = points.x, points.y
            with np.errstate(all="ignore"):
                residual, standard = residuals(x, y, np.where(points.lower, family.reflect(y), y))
            # argmax returns the first nan if there is one.
            i, j = int(residual.argmax()), int(standard.argmax())
            max_residual, worst = float(residual[i]), points[i]
            max_standard, standard_worst = float(standard[j]), points[j]
    else:
        # Residuals are >= 0 or nan, so -1 lets the first point in;
        # ``not residual <= max`` records a nan, and a nan maximum
        # (max != max) then keeps the first one.
        lower_branch = Branch.LOWER
        for p in points:
            y = p.y
            residual, standard = residuals(p.x, y, family.reflect(y) if p.branch is lower_branch else y)
            if not residual <= max_residual and max_residual == max_residual:
                max_residual = residual
                worst = p
            if not standard <= max_standard and max_standard == max_standard:
                max_standard = standard
                standard_worst = p
    if worst is None:  # no points
        max_residual = max_standard = 0.0
    threshold = tol * max(1.0, base_L * base_L)
    return VerificationReport(
        kind=kind,
        base_L=base_L,
        lam=lam,
        tol=tol,
        threshold=threshold,
        passed=max_residual <= threshold,
        max_residual=max_residual,
        worst=worst,
        max_standard_residual=max_standard,
        standard_worst=standard_worst,
    )


def normalize_conic_coefficients(
    coeffs: Sequence[float],
) -> tuple[float, float, float, float, float, float]:
    """Scale a 6-vector of conic coefficients so its largest entry is +1."""
    values = [float(c) for c in coeffs]
    if len(values) != 6:
        raise LocusError(f"expected 6 conic coefficients, got {len(values)}")
    pivot = max(range(6), key=lambda i: abs(values[i]))
    if values[pivot] == 0.0:
        raise DegenerateFitError("all conic coefficients vanish")
    scale = values[pivot]
    # The + 0.0 folds any -0.0 entries back to +0.0.
    out = tuple(v / scale + 0.0 for v in values)
    return out  # type: ignore[return-value]


def fit_conic_oracle(
    points: Sequence[LocusPoint],
) -> tuple[float, float, float, float, float, float]:
    """Least-squares implicit conic through sampled points.

    Builds the n-by-6 design matrix with rows (x^2, xy, y^2, x, y, 1),
    column by column, and takes the right singular vector of the smallest
    singular value, normalized so the largest-magnitude coefficient is +1.
    The SVD is thin (U is n-by-6, never n-by-n), so time and memory are
    O(n). Requires at least 6 points in general position; collinear or
    otherwise degenerate input (a null space of dimension above one) is
    rejected, and so is a non-finite coordinate or one whose square
    overflows.
    """
    import numpy as np

    n = len(points)
    if n < 6:
        raise DegenerateFitError(f"need at least 6 points to pin down a conic, got {n}")
    x = np.fromiter([p.x for p in points], float, n)
    y = np.fromiter([p.y for p in points], float, n)
    with np.errstate(over="ignore", invalid="ignore"):
        design = np.column_stack((x * x, x * y, y * y, x, y, np.ones(n)))
    finite = np.isfinite(design)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        px, py = float(x[i]), float(y[i])
        if math.isfinite(px) and math.isfinite(py):
            raise LocusError(
                f"point {i} ({px!r}, {py!r}) overflows the design matrix: "
                f"the fit needs |x| and |y| at most {math.sqrt(np.finfo(float).max)!r}"
            )
        raise LocusError(f"point {i} ({px!r}, {py!r}) has a non-finite coordinate")
    _, singular, vt = np.linalg.svd(design, full_matrices=False)
    if singular[4] <= 1e-10 * singular[0]:
        raise DegenerateFitError("points do not determine a unique conic (degenerate configuration)")
    return normalize_conic_coefficients(vt[-1])


def write_locus_csv(points: Iterable[LocusPoint], path: str | FilePath) -> None:
    """Write points as CSV with header ``x,y,branch`` at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "branch"])
        for p in points:
            writer.writerow([repr(p.x), repr(p.y), p.branch.value])


def read_locus_csv(path: str | FilePath) -> list[LocusPoint]:
    """Read points from the ``x,y,branch`` CSV format."""
    points: list[LocusPoint] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [cell.strip().lower() for cell in header] != ["x", "y", "branch"]:
            raise LocusError(f"expected header 'x,y,branch' in {path}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise LocusError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError as exc:
                raise LocusError(f"{path}:{line_no}: bad coordinate: {exc}") from exc
            try:
                branch = Branch(row[2].strip().lower())
            except ValueError as exc:
                raise LocusError(f"{path}:{line_no}: bad branch tag {row[2]!r}") from exc
            points.append(LocusPoint(x, y, branch))
    return points
