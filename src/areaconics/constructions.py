"""Replayable straightedge-and-compass applications of areas.

An application places a rectangle of prescribed area against a base
segment AB in one of three ways: exactly on AB, falling short of B by a
rectangle similar to a reference shape (aspect ratio lambda), or
exceeding B by such a rectangle. In every case a companion square of
equal area is erected at A by the classical semicircle construction:
extend the base beyond A by the rectangle height, bisect the extended
span, and intersect the semicircle over it with the perpendicular at A.
The square side g then satisfies

    g**2 = b * y      with b = L + k*y and k = 0, -lambda, or +lambda,

so the three applications are one family, g**2 = L*y + k*y**2
(``AreaFamily``). The rectangle and square boundaries meet at J = (g, y).
Each construction is recorded as an ordered list of proposition-cited
steps (a trace) that can be serialized to JSON and replayed bit-exactly.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from enum import Enum
from typing import Any, Callable, NamedTuple, Sequence

from .kernel import (
    FLOATS,
    Point,
    _bind,
    _Value,
    _circle,
    _distance,
    _extend,
    _highest,
    _line_through,
    _midpoint,
    _perpendicular,
    _point,
    distance,
)

__all__ = [
    "ApplicationKind",
    "ApplicationResult",
    "ApplicationSpec",
    "ConstructionError",
    "ConstructionStep",
    "ConstructionTrace",
    "DeficiencyExceedsBaseError",
    "GeometricFailureError",
    "InfeasibleAreaError",
    "MalformedTraceError",
    "StepOp",
    "apply_deficient",
    "apply_exact",
    "apply_excess",
    "replay_trace",
    "solve_height_for_area",
]


class ConstructionError(ValueError):
    """Invalid parameters for an application of areas."""


class DeficiencyExceedsBaseError(ConstructionError):
    """The deficiency rectangle would consume the whole base segment."""


class InfeasibleAreaError(ConstructionError):
    """The requested area exceeds what a deficient application can hold."""


class MalformedTraceError(ValueError):
    """A construction trace violates label or structural discipline."""


class GeometricFailureError(ValueError):
    """A replayed intersection step found no intersection."""


class ApplicationKind(Enum):
    EXACT = "exact"
    DEFICIENT = "deficient"
    EXCESS = "excess"


class StepOp(Enum):
    EXTEND = "Extend"
    BISECT = "Bisect"
    DESCRIBE_CIRCLE = "DescribeCircle"
    ERECT_PERPENDICULAR = "ErectPerpendicular"
    INTERSECT_CIRCLE_LINE = "IntersectCircleLine"
    MARK_SEGMENT = "MarkSegment"


def _intersect(ns: Any, step: ConstructionStep, circle: Any, line: Any) -> Any:
    miss = "step {!r}: circle {!r} and line {!r} do not intersect"
    return _highest(ns, circle, line, GeometricFailureError, miss, step.output, *step.inputs)


# Each op's input kinds, its output kind, and what it does over a numeric
# namespace (see ``kernel``), given its step and input values.
_OPS: dict[StepOp, tuple[tuple[str, ...], str, Callable[..., Any]]] = {
    StepOp.EXTEND: (
        ("point",) * 4,
        "point",
        lambda ns, step, through, frm, p, q: _extend(ns, through, frm, _distance(ns, p, q)),
    ),
    StepOp.BISECT: (("point",) * 2, "point", lambda ns, step, p, q: _midpoint(ns, p, q)),
    StepOp.DESCRIBE_CIRCLE: (
        ("point",) * 3,
        "circle",
        lambda ns, step, center, p, q: _circle(ns, center, _distance(ns, p, q)),
    ),
    StepOp.ERECT_PERPENDICULAR: (
        ("point",) * 3,
        "line",
        lambda ns, step, at, p, q: _perpendicular(ns, at, _line_through(ns, p, q)),
    ),
    StepOp.INTERSECT_CIRCLE_LINE: (("circle", "line"), "point", _intersect),
    StepOp.MARK_SEGMENT: (("point",) * 2, "segment", lambda ns, step, p, q: (p, q)),
}


class ConstructionStep(_Value):
    """One primitive construction step.

    Input semantics by op (all inputs are labels of earlier entities):

    - ``Extend [through, frm, p, q]``: point at distance |pq| beyond
      ``through`` on the ray from ``frm`` through ``through``.
    - ``Bisect [p, q]``: midpoint of pq.
    - ``DescribeCircle [center, p, q]``: circle centered at ``center``
      with radius |pq| (the compass transfers the distance).
    - ``ErectPerpendicular [at, p, q]``: perpendicular at ``at`` to the
      line through p and q.
    - ``IntersectCircleLine [circle, line]``: the highest intersection
      point (the semicircle-side choice); fails if the two do not meet.
    - ``MarkSegment [p, q]``: names the segment pq for later reference.

    The citation is the Elements proposition backing the step, e.g.
    "I.10" or "II.14"; it is documentation payload, not control flow.
    """

    __match_args__ = ("op", "inputs", "output", "citation")

    def __init__(self, op: StepOp, inputs: Sequence[str], output: str, citation: str) -> None:
        _bind(self, "op", op)
        _bind(self, "inputs", tuple(inputs))
        _bind(self, "output", output)
        _bind(self, "citation", citation)
        # Through the class attribute, which the benchmark's tracer wraps to count calls.
        self.__post_init__()

    def __post_init__(self) -> None:
        expected = len(_OPS[self.op][0])
        if len(self.inputs) != expected:
            raise MalformedTraceError(
                f"{self.op.value} expects {expected} inputs, got {len(self.inputs)}"
            )
        if not self.output:
            raise MalformedTraceError("step output label must be non-empty")
        if not self.citation:
            raise MalformedTraceError("step citation must be non-empty")


class ConstructionTrace(_Value):
    """Ordered construction steps over an initial labeled configuration.

    ``initial`` holds the given points (always at least A and B; for the
    applications it also carries the applied rectangle's corners, since
    the rectangle itself is the given datum). Label discipline (inputs
    defined before use, outputs unique) is enforced when the trace is
    executed, so malformed traces can be represented and then rejected
    with a precise error.
    """

    __match_args__ = ("initial", "steps")

    def __init__(self, initial: Sequence[Point], steps: Sequence[ConstructionStep]) -> None:
        initial, steps = tuple(initial), tuple(steps)
        for point in initial:
            if point.label is None:
                raise MalformedTraceError("initial points must be labeled")
        _bind(self, "initial", initial)
        _bind(self, "steps", steps)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "initial": [{"label": p.label, "x": p.x, "y": p.y} for p in self.initial],
            "steps": [
                {
                    "op": s.op.value,
                    "inputs": list(s.inputs),
                    "output": s.output,
                    "citation": s.citation,
                }
                for s in self.steps
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, data: Any) -> ConstructionTrace:
        if not isinstance(data, dict) or "initial" not in data or "steps" not in data:
            raise MalformedTraceError("trace document must have 'initial' and 'steps' keys")
        try:
            initial = tuple(
                Point(float(entry["x"]), float(entry["y"]), str(entry["label"]))
                for entry in data["initial"]
            )
            steps = tuple(
                ConstructionStep(
                    op=StepOp(entry["op"]),
                    inputs=tuple(str(name) for name in entry["inputs"]),
                    output=str(entry["output"]),
                    citation=str(entry["citation"]),
                )
                for entry in data["steps"]
            )
        except MalformedTraceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTraceError(f"invalid trace document: {exc}") from exc
        return cls(initial, steps)

    @classmethod
    def from_json(cls, text: str) -> ConstructionTrace:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(f"trace document is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


class _Program(NamedTuple):
    """A step sequence compiled to slots, run over either numeric namespace.

    Slot i holds the entity labelled ``labels[i]``: the initial points
    first, then each step's output. ``made`` holds the slot and label of
    each point a step makes. Each op is its function, its step, and the
    getter of its input values.
    """

    labels: tuple[str, ...]
    made: tuple[tuple[int, str], ...]
    ops: tuple[tuple[Callable[..., Any], ConstructionStep, Callable[[list[Any]], Any]], ...]

    def run(self, ns: Any, initial: list[Any]) -> list[Any]:
        """Every slot's value, from the initial points' (x, y), which it checks."""
        env = [_point(ns, x, y) for x, y in initial]
        for fn, step, inputs in self.ops:
            env.append(fn(ns, step, *inputs(env)))
        return env

    def replay(self, initial: Sequence[Point]) -> dict[str, Point]:
        """The labelled points of a float run from the given points."""
        env = self.run(FLOATS, [(p.x, p.y) for p in initial])
        made = {label: Point(*env[slot], label) for slot, label in self.made}
        return {point.label: point for point in initial} | made


# Cached: a sweep runs the same few programs on every call.
@functools.lru_cache(maxsize=64)
def _compile(labels: tuple[str, ...], steps: tuple[ConstructionStep, ...]) -> _Program:
    """Resolve labels to slots, checking label discipline and input kinds."""
    slots: dict[str, tuple[int, str]] = {}
    for label in labels:
        if label in slots:
            raise MalformedTraceError(f"initial label {label!r} defined twice")
        slots[label] = (len(slots), "point")
    ops = []
    for step in steps:
        wants, makes, fn = _OPS[step.op]
        for name in step.inputs:
            if name not in slots:
                raise MalformedTraceError(f"step input label {name!r} is not defined")
        if step.output in slots:
            raise MalformedTraceError(f"output label {step.output!r} already defined")
        for name, want in zip(step.inputs, wants):
            if slots[name][1] != want:
                raise MalformedTraceError(f"step {step.output!r}: input {name!r} must be a {want}")
        ops.append((fn, step, operator.itemgetter(*(slots[name][0] for name in step.inputs))))
        slots[step.output] = (len(slots), makes)
    made = [(slot, label) for label, (slot, kind) in slots.items() if kind == "point"]
    return _Program(tuple(slots), tuple(made[len(labels) :]), tuple(ops))


def replay_trace(trace: ConstructionTrace) -> dict[str, Point]:
    """Execute a trace and return its labeled points.

    The whole trace is checked before any step runs. Replay is
    deterministic: the same trace always reproduces identical
    coordinates, bit for bit.
    """
    return _compile(tuple(p.label for p in trace.initial), trace.steps).replay(trace.initial)


def _excess_coefficient(kind: ApplicationKind, lam: float | None) -> float:
    """k of x**2 = L*y + k*y**2: 0 (exact), -lam (deficient) or +lam (excess)."""
    if kind is ApplicationKind.EXACT:
        return 0.0
    assert lam is not None
    return -lam if kind is ApplicationKind.DEFICIENT else lam


def _rect_base(base_L: float, k: float, height: Any) -> Any:
    """The applied rectangle's base b = L + k*y.

    Plain arithmetic, so ``height`` may be a float or a numpy array. At
    k = 0 the base is L itself, even at an infinite height (0*inf is nan).
    """
    return base_L if k == 0.0 else base_L + k * height


# The label suffix of the applied rectangle's corners B and C.
_CORNER_SUFFIX = {ApplicationKind.EXACT: "", ApplicationKind.DEFICIENT: "⁻", ApplicationKind.EXCESS: "⁺"}


class AreaFamily(_Value):
    """The relation x**2 = L*y + k*y**2 shared by the three applications.

    An application of kind ``kind`` over a base of length L applies, at
    height y, a rectangle of base b = L + k*y, with k = 0 for the exact
    application, -lambda for the deficient one and +lambda for the
    excessive one (Euclid VI.28-29); as y sweeps, the companion square's
    side x = g traces the parabola, ellipse or hyperbola (Apollonius,
    Conics I.11-13). Building the value validates L and lambda.
    """

    __match_args__ = ("kind", "base_L", "lam")
    _fields = ("kind", "base_L", "lam", "k")

    def __init__(self, kind: ApplicationKind, base_L: float, lam: float | None = None) -> None:
        base_L = float(base_L)
        if lam is not None:
            lam = float(lam)
        if not (0.0 < base_L < math.inf):
            raise ConstructionError(f"base length must be positive and finite, got {base_L}")
        if kind is ApplicationKind.EXACT:
            if lam is not None:
                raise ConstructionError("an exact application takes no aspect ratio")
        elif lam is None:
            raise ConstructionError(f"{kind.value} applications require the aspect ratio lambda")
        elif not (0.0 < lam < math.inf):
            raise ConstructionError(f"aspect ratio must be positive and finite, got {lam}")
        _bind(self, "kind", kind)
        _bind(self, "base_L", base_L)
        _bind(self, "lam", lam)
        _bind(self, "k", _excess_coefficient(kind, lam))

    @property
    def corner_suffix(self) -> str:
        """Suffix of the applied corners' labels: "" (B, C), "⁻" or "⁺"."""
        return _CORNER_SUFFIX[self.kind]

    def rect_base(self, height: Any) -> Any:
        """b = L + k*y, for a float or a numpy array of heights."""
        return _rect_base(self.base_L, self.k, height)

    def reflect(self, y: float) -> float:
        """The height mirrored across the conjugate axis y = -L/(2k): -L/k - y.

        Only the excessive family (k > 0, the hyperbola) has a second
        branch there; for the others ``y`` comes back unchanged.
        """
        return -self.base_L / self.k - y if self.k > 0.0 else y


class ApplicationSpec(_Value):
    """Parameters of one application of areas.

    ``lam`` is the aspect ratio (horizontal side / vertical side) of the
    reference rectangle governing the deficiency or excess; it must be
    absent for the exact kind, where no reference rectangle exists.
    ``family`` is the validated area family of ``kind``, L and lam; it
    is left out of ``==``, ``hash`` and ``repr``.
    """

    __match_args__ = ("kind", "base_L", "height_y", "lam")

    def __init__(
        self, kind: ApplicationKind, base_L: float, height_y: float, lam: float | None = None
    ) -> None:
        family = AreaFamily(kind, base_L, lam)
        height_y = float(height_y)
        if not (height_y > 0.0):
            raise ConstructionError(f"rectangle height must be positive, got {height_y}")
        # Only a deficiency can consume the base: b = L - lam*y <= 0 exactly when lam*y >= L.
        if not (family.rect_base(height_y) > 0.0):
            raise DeficiencyExceedsBaseError(
                f"deficiency consumes the base: lambda*height = "
                f"{family.lam * height_y} >= base {family.base_L}"
            )
        _bind(self, "kind", kind)
        _bind(self, "base_L", family.base_L)
        _bind(self, "height_y", height_y)
        _bind(self, "lam", family.lam)
        _bind(self, "family", family)

    @property
    def rect_base(self) -> float:
        """Base length of the applied rectangle, b = L + k*y."""
        return self.family.rect_base(self.height_y)


class ApplicationResult(_Value):
    """Output of one application: figure points, scalars, and the trace.

    Invariants (within tolerance): ``area_X == rect_base_b * height_y``,
    ``square_side_g**2 == area_X``, and ``J == (square_side_g, height_y)``.
    """

    __match_args__ = ("spec", "rect_base_b", "area_X", "square_side_g", "J", "figure_points", "trace")

    def __init__(
        self,
        spec: ApplicationSpec,
        rect_base_b: float,
        area_X: float,
        square_side_g: float,
        J: Point,
        figure_points: dict[str, Point],
        trace: ConstructionTrace,
    ) -> None:
        _bind(self, "spec", spec)
        _bind(self, "rect_base_b", rect_base_b)
        _bind(self, "area_X", area_X)
        _bind(self, "square_side_g", square_side_g)
        _bind(self, "J", J)
        _bind(self, "figure_points", figure_points)
        _bind(self, "trace", trace)

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.spec.kind.value, "base_L": self.spec.base_L}
        if self.spec.lam is not None:
            out["lambda"] = self.spec.lam
        out["height_y"] = self.spec.height_y
        out["rect_base_b"] = self.rect_base_b
        out["area_X"] = self.area_X
        out["square_side_g"] = self.square_side_g
        out["J"] = [self.J.x, self.J.y]
        return out


def _given_coordinates(
    kind: ApplicationKind, base_L: float, lam: float | None, height: Any
) -> dict[str, tuple[Any, Any]]:
    """The given configuration: segment AB plus the applied rectangle corners.

    Maps each label to its (x, y); ``height`` may be a float or a numpy
    array, and the constant coordinates stay scalars. The parameters are
    not validated: a degenerate configuration fails in the construction.
    For the exact kind the applied corners are B and C themselves.
    """
    b = _rect_base(base_L, _excess_coefficient(kind, lam), height)
    suffix = _CORNER_SUFFIX[kind]
    coords = {
        "A": (0.0, 0.0),
        "B": (base_L, 0.0),
        "C": (base_L, height),
        "D": (0.0, height),
    }
    coords["B" + suffix] = (b, 0.0)
    coords["C" + suffix] = (b, height)
    return coords


def _construction_steps(base_corner: str) -> tuple[ConstructionStep, ...]:
    """The companion-square construction over the applied rectangle's base.

    The same step sequence serves all three kinds; only the base corner
    label (B, B-minus, or B-plus) differs. Works unchanged whether the
    base is longer or shorter than the height, and in the square case.
    """
    step = ConstructionStep
    op = StepOp
    return (
        # E beyond A, away from the base, with EA equal to the height AD.
        step(op.EXTEND, ("A", base_corner, "A", "D"), "E", "I.3"),
        step(op.BISECT, ("E", base_corner), "F", "I.10"),
        # Semicircle over the extended base, center F, radius FE.
        step(op.DESCRIBE_CIRCLE, ("F", "F", "E"), "EGB", "I.Def.18"),
        step(op.ERECT_PERPENDICULAR, ("A", "A", base_corner), "AG_line", "I.11"),
        # G: the perpendicular at A meets the semicircle; AG is the square side.
        step(op.INTERSECT_CIRCLE_LINE, ("EGB", "AG_line"), "G", "II.14"),
        step(op.MARK_SEGMENT, ("F", "G"), "FG", "Post.1"),
        # The square AIHG on side AG, corner at A, along the base.
        step(op.EXTEND, ("A", "E", "A", "G"), "I", "I.46"),
        step(op.ERECT_PERPENDICULAR, ("I", "A", "I"), "IH_line", "I.46"),
        step(op.DESCRIBE_CIRCLE, ("I", "I", "A"), "I_side", "I.46"),
        step(op.INTERSECT_CIRCLE_LINE, ("I_side", "IH_line"), "H", "I.46"),
        # J: transfer the height AD onto the square's side line through I.
        step(op.DESCRIBE_CIRCLE, ("I", "A", "D"), "I_height", "I.2"),
        step(op.INTERSECT_CIRCLE_LINE, ("I_height", "IH_line"), "J", "I.3"),
    )


# The step program of each kind, built, validated and compiled once.
_STEPS = {kind: _construction_steps("B" + _CORNER_SUFFIX[kind]) for kind in ApplicationKind}
_PROGRAMS = {
    kind: _compile(tuple(_given_coordinates(kind, 1.0, 1.0, 1.0)), _STEPS[kind]) for kind in ApplicationKind
}


def _run_application(spec: ApplicationSpec) -> ApplicationResult:
    coords = _given_coordinates(spec.kind, spec.base_L, spec.lam, spec.height_y)
    initial = tuple(Point(x, y, label) for label, (x, y) in coords.items())
    points = _PROGRAMS[spec.kind].replay(initial)
    trace = ConstructionTrace(initial, _STEPS[spec.kind])
    square_side = distance(points["A"], points["G"])
    base = spec.rect_base
    return ApplicationResult(
        spec=spec,
        rect_base_b=base,
        area_X=base * spec.height_y,
        square_side_g=square_side,
        J=points["J"],
        figure_points=points,
        trace=trace,
    )


def apply_exact(base_L: float, height_y: float) -> ApplicationResult:
    """Apply a rectangle of base L and height y exactly on the segment AB.

    The companion square has side g with g**2 = L * y. All three height
    regimes (y < L, y == L, y > L) flow through the same construction.
    """
    return _run_application(ApplicationSpec(ApplicationKind.EXACT, base_L, height_y))


def apply_deficient(base_L: float, lam: float, height_y: float) -> ApplicationResult:
    """Apply a rectangle falling short of B by a lam*y by y rectangle.

    The applied base is b = L - lam*y (requires lam*y < L) and the
    companion square side satisfies g**2 = (L - lam*y) * y.
    """
    return _run_application(ApplicationSpec(ApplicationKind.DEFICIENT, base_L, height_y, lam))


def apply_excess(base_L: float, lam: float, height_y: float) -> ApplicationResult:
    """Apply a rectangle exceeding B by a lam*y by y rectangle.

    The applied base is b = L + lam*y and the companion square side
    satisfies g**2 = (L + lam*y) * y.
    """
    return _run_application(ApplicationSpec(ApplicationKind.EXCESS, base_L, height_y, lam))


def solve_height_for_area(
    kind: ApplicationKind,
    base_L: float,
    area_X: float,
    lam: float | None = None,
) -> list[float]:
    """Heights whose application holds the requested area, ascending.

    Exact: the single height area/L. Deficient: the two roots of
    lam*y**2 - L*y + area = 0 (equal at the maximal area L**2/(4*lam),
    which sits over the half-base L/2). Excess: the one positive root of
    lam*y**2 + L*y - area = 0.

    Where the float formulas overflow (L**2 or 4*lam*area beyond the float
    range), they run again in decimal arithmetic. A height that a float
    cannot hold (it overflows, or underflows to 0) raises ConstructionError.
    """
    family = AreaFamily(kind, base_L, lam)
    base_L, k = family.base_L, family.k
    area_X = float(area_X)
    if not (0.0 < area_X < math.inf):
        raise ConstructionError(f"area must be positive and finite, got {area_X}")
    # With 4*lam infinite the float formulas misjudge the maximal area or
    # divide by zero.
    heights = _area_roots(base_L, k, area_X) if 4.0 * abs(k) < math.inf else []
    if heights and all(0.0 < y < math.inf for y in heights):
        return heights
    heights = [float(y) for y in _in_decimal(_area_roots, base_L, k, area_X)]
    for y in heights:
        if not (0.0 < y < math.inf):
            raise ConstructionError(
                f"a height for area {area_X} on base {base_L} "
                f"{'underflows' if y == 0.0 else 'overflows'} the float range"
            )
    return heights


def _area_roots(base_L: Any, k: Any, area_X: Any) -> list[Any]:
    """The positive roots y of L*y + k*y**2 = area, ascending.

    Runs in the arithmetic of its arguments: floats, or decimals (see
    ``_in_decimal``).
    """
    if k == 0:
        return [area_X / base_L]
    lam = abs(k)
    sqrt = math.sqrt if type(base_L) is float else type(base_L).sqrt
    if k < 0:
        max_area = _max_area(base_L, lam)
        # 1 + 1e-9 as the float it rounds to, in max_area's arithmetic.
        if area_X > max_area * type(max_area)(1.0 + 1e-9):
            raise InfeasibleAreaError(
                f"area {area_X} exceeds the maximum applicable area "
                f"L^2/(4*lambda) = {max_area} (Elements VI.27)"
            )
        disc = max(0, base_L * base_L - 4 * lam * area_X)
        # Stable quadratic: large root first, small root via the product.
        y_hi = (base_L + sqrt(disc)) / (2 * lam)
        y_lo = area_X / (lam * y_hi)
        return [y_lo, y_hi]
    root = sqrt(base_L * base_L + 4 * lam * area_X)
    return [2 * area_X / (base_L + root)]


def _max_area(base_L: Any, lam: Any) -> Any:
    """L**2/(4*lam), the largest area a deficient application holds (VI.27)."""
    return base_L * base_L / (4 * lam)


def _in_decimal(formula: Callable[..., Any], *args: float) -> Any:
    """``formula`` over float ``args`` in 50-digit decimal arithmetic.

    The fallback for formulas whose float products overflow or underflow:
    the decimal exponent range holds any product of floats. Traps are off,
    so an infinite input gives an infinite, zero or nan result for the
    caller to reject, not an exception.
    """
    import decimal  # only these rare paths need it

    with decimal.localcontext(decimal.Context(prec=50, traps=[])):
        return formula(*map(decimal.Decimal, args))
