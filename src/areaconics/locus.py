"""Conic loci swept out by the area applications.

As the rectangle height y varies with the base segment fixed, the
rectangle/square intersection point J traces a conic: a parabola for
the exact application (x**2 = L*y), an ellipse for the deficient one
(x**2 = L*y - lam*y**2), and one hyperbola branch for the excessive one
(x**2 = L*y + lam*y**2), completed by mirror images across the height
axis and, for the hyperbola, by reflection across the conjugate axis
y = -L/(2*lam).

``sample_locus`` drives the constructions, never the closed forms; the
closed forms live in ``ConicSpec`` and ``verify_residuals``, so
construction-versus-equation agreement is a checked property rather
than an assumption. ``fit_conic_oracle`` is an independent least-squares
cross check on sampled points. A sweep returns its points as columns,
a ``LocusSamples``. Both checkers read points as columns, ``_BLOCK`` at a
time, through one reader, ``_column_blocks``: ``fit_conic_oracle``
always, ``verify_residuals`` once numpy is loaded; a process that has not
loaded it verifies one point at a time over floats. Every other function
loops over the points. Only the code that sweeps over arrays, fits or
reads the columns imports numpy, at its first call.
``_sample_locus_floats`` sweeps over floats, one height at a time, to the
same points as a list, so code that needs few heights (the CLI up to a
cutoff, the figures) never loads it.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from itertools import islice
from pathlib import Path as FilePath
from typing import Any

from .constructions import (
    _SWEEP_PROGRAMS,
    ApplicationKind,
    ApplicationSpec,
    AreaFamily,
    ConstructionError,
    _given_coordinates,
    _in_decimal,
    _max_area,
)
from .kernel import FLOATS, Point, _bind, _distance, _Value

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


# Heights per run of the batched step program, and points per block of
# columns read by both checkers (``_column_blocks``): memory stays flat in
# n. A sweep of 8,192 heights, one run, peaks at 1.5-1.7 MiB traced
# (tracemalloc, all three kinds), and a fit at ~1.0 MiB whatever its n;
# what a run costs whatever its size, ~0.3-0.5 ms, is paid once per block.
# The allocator keeps those pages between runs (``_batched``).
_BLOCK = 8192


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
        # An infinite step: the first height, y_min + 0*step, would be NaN.
        if y_max == math.inf:
            raise LocusError(f"y_max must be finite, got {y_max}")
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


def _sweep_family(kind: ConicKind, base_L: float, sample_range: SampleRange, lam: float | None) -> AreaFamily:
    """The area family of a sweep over ``sample_range``, whose application is valid at every height.

    The heights ascend from y_min > 0 to y_max, finite (``SampleRange``
    rejects an infinite y_max) and inside the bounds checked here, so the
    application's checks pass at every height if they pass at the first.
    Both sweeps, ``sample_locus`` and ``_sample_locus_floats``, check their
    heights here.
    """
    family = _family(kind, base_L, lam)
    if sample_range.y_min <= 0.0:
        raise LocusError("sample heights must be positive: the applied rectangle vanishes at y = 0")
    # Only the ellipse's applied base b = L - lam*y shrinks to nothing, at y = L/lam.
    if not (family.rect_base(sample_range.y_max) > 0.0):
        raise LocusError(
            f"ellipse heights must stay below L/lambda = {-family.base_L / family.k}: "
            "the deficiency would consume the whole base"
        )
    first = _grid_height(sample_range.y_min, sample_range._step(), 0)
    ApplicationSpec(family.kind, family.base_L, first, family.lam)
    return family


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

    The sweep runs its kind's program pruned to G and I
    (``constructions._SWEEP_PROGRAMS``): E, F, EGB, AG_line, G and I, 6 of
    the 12 steps. I stays for its check: where the kernel snaps G to the
    tangent foot A, |AG| = 0 and only I's "extension distance must be
    positive" fails the height, which would otherwise return x = 0. The
    six steps dropped (FG, IH_line, I_side, H, I_height, J) cannot fail
    where E through I pass, so the pruned program fails at the same
    height, with the same error, as ``apply_*``. Where I passes, I =
    (a, 0) with a finite (I's point check) and positive: G off the foot
    A lies √gap > 1e-6 above it (the tangent band is at least 1e-12),
    and I carries |AG| along the base to rounding. So the line IH_line
    through I perpendicular to AI, and the circle I_side of radius
    |IA| = a, are well defined, and y is finite and positive. H and J
    lie on circles centred on I, the anchor of IH_line, so the squared
    distance h² of centre to line is 0: they never miss, and where
    r² = a² or y² overflows, the infinite band takes a tangent at the
    finite foot I.

    Heights must be strictly constructible: y > 0 everywhere, and
    lam * y_max < L for the ellipse (at lam*y = L the applied rectangle
    vanishes).
    """
    import numpy as np

    from ._batched import ARRAYS, execute_batched

    family = _sweep_family(kind, base_L, sample_range, lam)
    program = _SWEEP_PROGRAMS[family.kind]
    n = sample_range.n
    hyperbola = kind is ConicKind.HYPERBOLA
    # The hyperbola's x column holds both branches, the upper in its first n entries.
    x = np.empty(2 * n if hyperbola else n)
    sides = x[:n]
    # Silent, as in floats: the applied base L + k*y may overflow.
    with np.errstate(all="ignore"):
        heights = _grid_height(sample_range.y_min, sample_range._step(), np.arange(n))
        heights[-1] = sample_range.y_max
        for start in range(0, n, _BLOCK):
            env = execute_batched(program, _given_coordinates(family, heights[start : start + _BLOCK]))
            sides[start : start + _BLOCK] = _distance(ARRAYS, env["A"], env["G"])
    if not hyperbola:
        return LocusSamples(x, heights, np.zeros(n, bool))
    y = np.empty(2 * n)
    y[:n] = heights
    lower = np.zeros(2 * n, bool)
    lower[n:] = True
    # -L/k - y is only non-increasing in floats, so the lower branch, sorted
    # stably by height, is the upper one reversed, except where neighbouring
    # reflected heights tie: there a stable sort keeps them in ascending x,
    # where the reversal would flip them. One pass over neighbours finds a tie.
    reflected = y[n:]
    reflected[:] = family.reflect(heights[::-1])
    if (reflected[1:] == reflected[:-1]).any():
        order = np.argsort(reflected[::-1], kind="stable")
        x[n:] = sides[order]
        reflected[:] = reflected[::-1][order]
    else:
        x[n:] = sides[::-1]
    return LocusSamples(x, y, lower)


def _sample_locus_floats(
    kind: ConicKind, base_L: float, sample_range: SampleRange, lam: float | None = None
) -> list[LocusPoint]:
    """``sample_locus`` one height at a time over floats: its points as a list, without numpy."""
    return _sweep_floats(_sweep_family(kind, base_L, sample_range, lam), sample_range.heights())


def _sweep_floats(family: AreaFamily, heights: Sequence[float]) -> list[LocusPoint]:
    """The points of a sweep over ``heights``, one float run of the pruned program each.

    The heights ascend, and each passes ``ApplicationSpec``'s checks (see
    ``_sweep_family``). A float run at a height computes, bit for bit, what
    the batched run computes there, and the lower branch is sorted as
    ``sample_locus`` sorts it, so the points are ``sample_locus``'s, in its
    order. Where a construction fails, the sweep raises what ``apply_*``
    raises at the first failing height: its first given point that is not
    finite, as ``Point`` checks it, or its first failing step.
    """
    program = _SWEEP_PROGRAMS[family.kind]
    a, g = program.labels.index("A"), program.labels.index("G")
    check_finite, run = FLOATS.check_finite, program.run
    upper = []
    for y in heights:
        given = list(_given_coordinates(family, y).values())
        for point in given:
            check_finite(*point)
        env = run(FLOATS, given)
        upper.append(LocusPoint(_distance(FLOATS, env[a], env[g]), y))
    if family.k <= 0.0:
        return upper
    # Python's sort is stable, as ``sample_locus``'s argsort is.
    reflected = [family.reflect(y) for y in heights]
    order = sorted(range(len(reflected)), key=reflected.__getitem__)
    return upper + [LocusPoint(upper[i].x, reflected[i], Branch.LOWER) for i in order]


def mirror(points: Sequence[LocusPoint]) -> list[LocusPoint]:
    """Append the (-x, y) mirror images; points on the axis self-mirror."""
    mirrored = [LocusPoint(-p.x, p.y, p.branch) for p in points if p.x != 0.0]
    return list(points) + mirrored


class ConicSpec(_Value):
    """Closed-form parameters of the conic traced by the family (kind, L, lam).

    Parabola: x**2 = L*y, vertex at the origin. Ellipse: center
    (0, L/(2*lam)), semi-axes L/(2*sqrt(lam)) along the base and
    L/(2*lam) along the height, eccentricity sqrt(1 - lam) for lam <= 1
    (a circle of radius L/2 at lam = 1) and sqrt(1 - 1/lam) otherwise.
    Hyperbola: center (0, -L/(2*lam)), vertices (0, 0) and (0, -L/lam),
    asymptotes y = -L/(2*lam) +- x/sqrt(lam), eccentricity sqrt(1 + lam).

    The constructor takes kind, L and lam, and computes the other fields
    from them. Fields that do not apply to a kind are None rather than
    zero-filled; the asymptote fields exist only for the hyperbola.
    Vertices are the curve's points on the height axis. ``family`` is the
    validated area family; it is left out of ``==``, ``hash`` and ``repr``.
    Invalid parameters raise LocusError, and so does an L/lam past the
    float range or an L/(2*lam) that underflows to 0.
    """

    __match_args__ = ("kind", "base_L", "lam")
    _fields = (
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

    def __init__(self, kind: ConicKind, base_L: float, lam: float | None = None) -> None:
        family = _family(kind, base_L, lam)
        base_L, lam = family.base_L, family.lam
        center = semi_axis_x = semi_axis_y = eccentricity = asymptote_slopes = conjugate_axis_y = None
        vertices: tuple[Point, ...] = (Point(0.0, 0.0, "A"),)
        if lam is not None:  # the ellipse or the hyperbola
            # The far vertex's distance from A, the largest of the closed forms.
            span = base_L / lam
            if span == math.inf:
                raise LocusError(f"L/lambda for L = {base_L}, lambda = {lam} overflows the float range")
            root_lam = math.sqrt(lam)
            semi_axis_x = base_L / (2.0 * root_lam)
            semi_axis_y = base_L / (2.0 * lam)
            # L/(2*lambda) rounds to 0 wherever another closed form does:
            # L/lambda is twice it, and L/(2*sqrt(lambda)) is at least it for
            # lambda >= 1 and above L/2 for lambda < 1.
            if semi_axis_y == 0.0:
                raise LocusError(f"L/(2*lambda) for L = {base_L}, lambda = {lam} underflows the float range")
            if kind is ConicKind.ELLIPSE:
                center = Point(0.0, semi_axis_y)
                vertices += (Point(0.0, span),)
                eccentricity = math.sqrt(1.0 - lam) if lam <= 1.0 else math.sqrt(1.0 - 1.0 / lam)
            else:
                conjugate_axis_y = -semi_axis_y
                center = Point(0.0, conjugate_axis_y)
                vertices += (Point(0.0, -span, "A*"),)
                eccentricity = math.sqrt(1.0 + lam)
                asymptote_slopes = (1.0 / root_lam, -1.0 / root_lam)
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
        _bind(self, "family", family)

    def implicit_coefficients(self) -> tuple[float, float, float, float, float, float]:
        """Coefficients (a, b, c, d, e, f) of a*x^2 + b*xy + c*y^2 + d*x + e*y + f = 0.

        Gauge-normalized so the largest-magnitude coefficient is +1,
        matching the normalization of ``fit_conic_oracle``.
        """
        family = self.family
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
    """Closed-form conic parameters for the given base length and aspect ratio (see ``ConicSpec``)."""
    return ConicSpec(kind, base_L, lam)


def max_applicable_area(base_L: float, lam: float) -> tuple[float, float]:
    """Largest area a deficient application can hold, and the base it sits on.

    Returns (L**2 / (4*lam), L/2): the maximal rectangle is the one
    applied to half the segment. An area that a float cannot hold (it
    overflows, or underflows to 0) raises LocusError.
    """
    family = _family(ConicKind.ELLIPSE, base_L, lam)
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
    """Residual summary for a point set against the conic's vertex-form equation.

    ``max_residual`` is the largest |x**2 - (L*y + k*y**2)| over the points,
    with lower-branch points reflected first, and ``worst`` the point where
    it falls (None for no points, whose ``max_residual`` is 0.0). The
    constructor computes ``threshold``, ``tol * max(1, L**2)``, the natural
    area scale of the residual, and ``passed``, whether the maximum is at
    most the threshold. A nan residual (a non-finite point) counts as the
    largest: the first such point is reported as the worst, and the check
    fails.
    """

    __match_args__ = ("kind", "base_L", "lam", "tol", "max_residual", "worst")
    _fields = ("kind", "base_L", "lam", "tol", "threshold", "passed", "max_residual", "worst")

    def __init__(
        self,
        kind: ConicKind,
        base_L: float,
        lam: float | None,
        tol: float,
        max_residual: float,
        worst: LocusPoint | None,
    ) -> None:
        threshold = tol * max(1.0, base_L * base_L)
        _bind(self, "kind", kind)
        _bind(self, "base_L", base_L)
        _bind(self, "lam", lam)
        _bind(self, "tol", tol)
        _bind(self, "threshold", threshold)
        _bind(self, "passed", max_residual <= threshold)
        _bind(self, "max_residual", max_residual)
        _bind(self, "worst", worst)

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
        return out


def _residual(family: AreaFamily) -> Callable[[Any, Any], Any]:
    """The conic's vertex-form residual at points: ``residual(x, vertex_y)``.

    Plain arithmetic, so the coordinates may be floats or numpy arrays.
    ``vertex_y`` is y with lower-branch points reflected first; the
    residual is |x**2 - (L*y + k*y**2)| at it, >= 0 or nan.
    """
    base_L, k = family.base_L, family.k
    if k == 0.0:

        def parabola(x: Any, vertex_y: Any) -> Any:
            # k = 0 skips k*y*y, which is nan at an infinite height.
            return abs(x * x - base_L * vertex_y)

        return parabola

    def central(x: Any, vertex_y: Any) -> Any:
        return abs(x * x - (base_L * vertex_y + k * vertex_y * vertex_y))

    return central


def _worst_in_loop(points: Iterable[LocusPoint], family: AreaFamily) -> tuple[float, LocusPoint | None]:
    """The largest residual and its point, one point at a time over floats.

    Returns (max_residual, worst), -1.0 and None for no points. A nan
    residual is the largest: the worst point is the first nan, else the
    first maximum. The reference for ``_worst_on_columns``.
    """
    residual = _residual(family)
    # Residuals are >= 0 or nan, so -1 lets the first point in;
    # ``not value <= max_residual`` records a nan, and a nan maximum
    # (max != max) then keeps the first one.
    max_residual = -1.0
    worst: LocusPoint | None = None
    lower_branch = Branch.LOWER
    for p in points:
        y = p.y
        value = residual(p.x, family.reflect(y) if p.branch is lower_branch else y)
        if not value <= max_residual and max_residual == max_residual:
            max_residual = value
            worst = p
    return max_residual, worst


def _worst_on_columns(points: Iterable[LocusPoint], family: AreaFamily) -> tuple[float, LocusPoint | None]:
    """``_worst_in_loop``'s result, computed on columns one block at a time.

    A block's ``argmax`` is its first nan, else its first maximum, and it
    replaces the largest so far by the loop's own rule, so the result is
    the loop's. Only the hyperbola reads the branches: ``reflect`` leaves
    the other kinds' heights unchanged.
    """
    import numpy as np

    residual = _residual(family)
    branches = family.k > 0.0
    max_residual = -1.0
    worst: LocusPoint | None = None
    for block, start, x, y, lower in _column_blocks(points, branches):
        with np.errstate(all="ignore"):
            values = residual(x, np.where(lower, family.reflect(y), y) if branches else y)
        i = int(values.argmax())
        value = float(values[i])
        if not value <= max_residual and max_residual == max_residual:
            max_residual, worst = value, block[start + i]
    return max_residual, worst


def _column_blocks(points: Iterable[LocusPoint], branches: bool) -> Iterator[tuple[Any, int, Any, Any, Any]]:
    """The points as columns, ``_BLOCK`` at a time: (block, start, x, y, lower) for each block.

    Both checkers read their points here: ``verify_residuals`` on columns,
    and ``fit_conic_oracle``. The block's i-th point is ``block[start + i]``.
    For a list or any other iterable, ``block`` is a list of the caller's
    own objects, read one block at a time, so memory stays flat in the
    number of points, and ``start`` is 0; each coordinate is packed as
    doubles with ``struct`` and read by ``np.frombuffer``, which beats
    ``np.fromiter`` by a third. A ``LocusSamples`` yields itself and slices
    of its columns. ``lower``, the lower-branch mask, is built from points
    only if ``branches`` asks for it, and is None otherwise. The columns
    read from points are read-only.
    """
    import struct

    import numpy as np

    if isinstance(points, LocusSamples):
        for start in range(0, len(points), _BLOCK):
            stop = start + _BLOCK
            yield points, start, points.x[start:stop], points.y[start:stop], points.lower[start:stop]
        return
    lower_branch = Branch.LOWER
    rest = iter(points)
    while block := list(islice(rest, _BLOCK)):
        doubles = f"{len(block)}d"
        x = np.frombuffer(struct.pack(doubles, *[p.x for p in block]))
        y = np.frombuffer(struct.pack(doubles, *[p.y for p in block]))
        lower = np.frombuffer(bytes([p.branch is lower_branch for p in block]), bool) if branches else None
        yield block, 0, x, y, lower


def verify_residuals(
    points: Iterable[LocusPoint],
    kind: ConicKind,
    base_L: float,
    lam: float | None = None,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check sampled points against the conic's vertex-form equation; never raises on failure.

    The report holds the family (L and lam as floats), ``tol`` as a float,
    the threshold, whether the check passed, the largest residual and the
    point where it falls (see ``VerificationReport``). ``tol`` must be
    finite and nonnegative: a nan or negative one would fail exact points,
    an infinite one pass any. Once numpy is loaded, the points are checked
    on columns, 8,192 at a time (``_worst_on_columns``); a process that has
    not loaded numpy checks them one at a time over floats
    (``_worst_in_loop``), so the CLI never loads it to verify. Both give the
    same report. For a list or any other iterable the worst point is the
    caller's own object; for a ``LocusSamples`` it is built from its
    columns.
    """
    family = _family(kind, base_L, lam)
    tol = float(tol)
    if not (0.0 <= tol < math.inf):
        raise LocusError(f"tolerance must be finite and nonnegative, got {tol}")
    # Where numpy is loaded its import is paid. Elsewhere (the CLI) the
    # import, ~150 ms, would cost more than the loop on any input checked.
    find_worst = _worst_on_columns if "numpy" in sys.modules else _worst_in_loop
    max_residual, worst = find_worst(points, family)
    if worst is None:  # no points
        max_residual = 0.0
    return VerificationReport(
        kind=kind,
        base_L=family.base_L,
        lam=family.lam,
        tol=tol,
        max_residual=max_residual,
        worst=worst,
    )


def normalize_conic_coefficients(
    coeffs: Sequence[float],
) -> tuple[float, float, float, float, float, float]:
    """Scale a 6-vector of conic coefficients so its largest entry is +1.

    The entry scaled to +1 is the first whose magnitude is within 1e-9
    (relative) of the largest, so that coefficients a fit ties only to
    rounding keep the sign the closed form gives them.
    """
    values = [float(c) for c in coeffs]
    if len(values) != 6:
        raise LocusError(f"expected 6 conic coefficients, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise LocusError(f"conic coefficients must be finite, got {tuple(values)}")
    largest = max(map(abs, values))
    if largest == 0.0:
        raise DegenerateFitError("all conic coefficients vanish")
    scale = next(v for v in values if abs(v) >= largest * (1.0 - 1e-9))
    # The + 0.0 folds any -0.0 entries back to +0.0.
    out = tuple(v / scale + 0.0 for v in values)
    return out  # type: ignore[return-value]


def fit_conic_oracle(
    points: Sequence[LocusPoint],
) -> tuple[float, float, float, float, float, float]:
    """Least-squares implicit conic through sampled points.

    Reads the points ``_BLOCK`` at a time (``_column_blocks``), builds each
    block's rows (x^2, xy, y^2, x, y, 1) of the design matrix, and keeps
    only the 6-by-6 R factor of the rows so far: the QR of the previous R
    stacked on the block (Chan's R-bidiagonalization, one block of rows at
    a time as in tall-skinny QR). The right singular vector of R's
    smallest singular value, those of the design matrix, is the fit,
    normalized so the largest-magnitude coefficient is +1. Time is O(n)
    and memory flat in n. Up to one block of 11 or more points the result
    is the thin SVD's of the whole matrix bit for bit, since LAPACK's SVD
    factors such a tall matrix by the same QR first. Requires at least 6
    points in general position; collinear or otherwise degenerate input
    (a null space of dimension above one) is rejected, and so is a
    non-finite coordinate or one whose square overflows.
    """
    import numpy as np

    n = len(points)
    if n < 6:
        raise DegenerateFitError(f"need at least 6 points to pin down a conic, got {n}")
    r = np.empty((0, 6))
    offset = 0
    for _, _, x, y, _ in _column_blocks(points, False):
        # R's rows and the block's, stored transposed: the QR then copies
        # each column of the stack from contiguous memory.
        stacked = np.empty((6, len(r) + len(x)))
        stacked[:, : len(r)] = r.T
        design = stacked[:, len(r) :]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(x, x, out=design[0])
            np.multiply(x, y, out=design[1])
            np.multiply(y, y, out=design[2])
        design[3], design[4], design[5] = x, y, 1.0
        finite = np.isfinite(design)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            px, py = float(x[i]), float(y[i])
            i += offset
            if math.isfinite(px) and math.isfinite(py):
                raise LocusError(
                    f"point {i} ({px!r}, {py!r}) overflows the design matrix: "
                    f"the fit needs |x| and |y| at most {math.sqrt(np.finfo(float).max)!r}"
                )
            raise LocusError(f"point {i} ({px!r}, {py!r}) has a non-finite coordinate")
        r = np.linalg.qr(stacked.T, mode="r")
        offset += len(x)
    singular, vt = np.linalg.svd(r)[1:]
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
    """Read points from the ``x,y,branch`` CSV format, with or without a UTF-8 byte-order mark."""
    points: list[LocusPoint] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
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
