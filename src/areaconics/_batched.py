"""A compiled step program run once over many heights.

A sweep runs the same straight-line step program at every height; only
the given points change. Here each labelled point holds one numpy array
per coordinate, with one entry per height, and a compiled program (in a
sweep, the kind's program pruned to what the sweep reads,
``constructions._SWEEP_PROGRAMS``) runs each step once over all of them,
through the kernel's primitives over the numpy namespace ``ARRAYS`` (with
a run's own checks, ``_Run``). So every entry equals, bit for bit, what
the float run computes for that height alone.

A coordinate that is the same at every height (A = (0, 0), B = (L, 0),
the base corners' zero y) stays a numpy scalar, so an operation between
two constants is one scalar operation, not one per height, and a run
returns it as one. So does a value that the float expression would make
a column of, where it is provably the same exact zero, or the same ±1,
at every height whose checks pass (constant propagation, under IEEE
754's signed zeros). The kernel asks ``constant`` and ``axis`` where:
a ray component that is one exact zero gives ``_extend`` its coordinate
(E's and I's y); a line through points whose difference is one exact
zero and a column of one sign gets the direction (±1.0, that zero)
(AG_line's); on a line along y, the circle-line foot's t0 is cy*uy and
the crossings' x is foot_x ∓ ux. ``where`` returns one constant that
both sides hold bit for bit (G's x), and the side a constant condition
chooses. On a line up along y (ux one exact zero, uy one +1.0) the
lower crossing never comes last, so ``_circle_line`` returns the
constant False for it, and where the foot's y is one +0.0, ``_highest``
takes the upper crossing's y, half, which is +0.0 at a tangent (G's y).
Each fold's comment shows that wherever it gives another value than the
float expression, a check fails at that height, with the fold and
without it. Beside those, the kernel
skips operations that are exact identities at every height, nan and the
signed zeros included: v - (+0.0) is v (``kernel._minus``: |AD|'s, |AG|'s
and b's differences from A, the circle-line's cx and hx), a square plus
a square that is one zero, half*(+1.0), ±0 + half where half is never
-0.0, and the crossings' tie-break on a line along y, where their x are
equal. So every value stays the float expression's, failing heights
included. ``kernel._circle`` checks a radius positive and finite as two
checks with one message, as a run ANDs its masks anyway. In a sweep of
the pruned program a run, with its |AG|, makes 39 / 49 / 49 array passes
(parabola / ellipse / hyperbola), against 43 / 53 / 53 before the
crossing choice was folded (``BENCH_33.json``), 54 / 65 / 65 before the
identities (``BENCH_31.json``) and 108 / 135 / 135 before the folds
(``BENCH_29.json``); a test pins the count and lists each pass.

A run's checks do not stop it. Each check records its mask; where every
height passes, one concatenation and one ``all`` over the masks show it,
at the run's end, and only on a failure does ``ok`` AND them height by
height to find the first failing one. A check on constants alone fails
every height or none, in Python, and so does the finite check of a 0-d
value (``math.isfinite``, not a numpy call). The given points are checked
first, once per distinct column; each step checks the points it makes.
At a height whose checks pass its
values are the float run's, and a height fails a check in the run if
and only if it fails in floats, so the lowest height the mask rejects is
the first height that fails in floats; the error itself comes from one
float run at that height (see ``execute_batched``), which names the run's
height on it as ``height_index``. What a run computes past a failed
check is discarded.

``math.hypot`` and ``np.hypot`` may differ in the last bit; in the
companion-square program every distance and ray norm has one zero
component, where both are exact: hypot(x, ±0) is |x| (IEEE 754, C99
F.9.4.3). ``ARRAYS.hypot`` takes that |x|, one ``np.abs`` (or a 0-d
x's own ``abs()``), where one component is zero in every row (a 0-d zero
or an all-zero array), and ``np.hypot`` otherwise. On a nan, ``np.abs``
clears the sign that ``np.hypot`` keeps; only a failing height's values
can hold a nan.

Memory: a run allocates its columns afresh at every call, but the pages
they take stay the process's between calls. Importing this module frees
one untouched 4 MiB array, which makes glibc keep up to 8 MiB of freed
heap instead of handing it back to the kernel after each run (see the
comment at the allocation).

Only ``locus.sample_locus`` imports this module, at its first call, so
numpy stays off the import of every verb and sweep that does not run it,
and so does the allocation.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .constructions import _Program
from .kernel import Point, _Namespace, _tolerance

# Keep a run's heap pages between runs. A run of n <= locus._BLOCK heights
# allocates ~25 float columns of n entries. Each is under glibc's 128 KiB
# mmap threshold, so all come from the brk heap; together they peak at
# 1.2-1.7 MiB traced at 6,310 and 8,192 heights. When the run frees them,
# the free top of the heap exceeds the 128 KiB trim threshold, glibc gives
# it back to the kernel, and the next run faults every page in again:
# ~280-380 minor faults per sweep of 6,310 heights, ~390-540 at 8,192,
# ~1.3-1.5 us each, on a 2-vCPU VM (Python 3.11, numpy 2.4, glibc 2.36).
# mallopt(3), M_MMAP_THRESHOLD: freeing a block that was mmapped raises the
# mmap threshold to its size and the trim threshold to twice that. So
# freeing one 4 MiB array sets them to 4 MiB and 8 MiB, and later runs
# reuse the same heap pages: 0 faults per sweep up to 20,000 heights. The
# 4 MiB also covers a 100k-height hyperbola's 2n-entry columns (1.6 MB
# each), which a 2 MiB block left to mmap and trimming: 0 faults per call
# against ~1,300. Freed heap that glibc keeps can now reach 8 MiB.
# ``np.empty`` writes no page, so the resident size does not grow, and no
# result changes. It does nothing under other allocators, in a process
# that has already freed a larger block, or where the user set a
# threshold, top pad or mmap maximum (MALLOC_*_ variables, GLIBC_TUNABLES
# or mallopt), which turns the dynamic thresholds off.
np.empty(4 << 20, np.uint8)


def _hypot(x: Any, y: Any) -> Any:
    # A component with no nonzero entry: hypot(v, ±0) is |v|. A 0-d test
    # is ~50 ns, where ``.any()`` even on a numpy scalar is a reduction, so
    # a 0-d component is tested first. A 0-d |v| is the scalar's own abs(),
    # which gives np.abs's bits without a ufunc call.
    for zero, other in ((x, y), (y, x)) if y.ndim > x.ndim else ((y, x), (x, y)):
        if not (zero.any() if zero.ndim else zero):
            return np.abs(other) if other.ndim else abs(other)
    return np.hypot(x, y)


def _constant(v: Any) -> bool:
    # A numpy scalar, or a float the kernel passes as a literal.
    return not getattr(v, "ndim", 0)


def _where(condition: Any, a: Any, b: Any) -> Any:
    # A constant condition chooses the same side at every height, and the
    # same constant on both sides, bit for bit, is the choice at every
    # height. Two nans are never ==, and np.where gives their bits.
    if _constant(condition):
        return a if condition else b
    if _constant(a) and _constant(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b):
        return a
    return np.where(condition, a, b)


def _axis(dx: Any, dy: Any) -> tuple[Any, Any] | None:
    # With one component one exact zero, the norm is |other| (``_hypot``),
    # so where other is finite and nonzero, other / norm is ±1.0 and zero /
    # norm is zero itself. Where other is 0 the norm check fails. Where it is
    # infinite or nan the quotient is nan, which fails the line's unit check
    # that (±1.0, zero) would pass, so such a column keeps its quotients.
    for zero, other in ((dy, dx), (dx, dy)):
        if _constant(zero) and not zero and not _constant(other):
            low, high = other.min(), other.max()
            if -math.inf < low and high < math.inf and (low >= 0.0 or high <= 0.0):
                one = np.float64(1.0 if low >= 0.0 else -1.0)
                return (one, zero) if zero is dy else (zero, one)
    return None


ARRAYS = _Namespace(
    sqrt=np.sqrt,
    hypot=_hypot,
    where=_where,
    **_tolerance(np.maximum, np.logical_not),
    constant=_constant,
    axis=_axis,
)


class _Run:
    """``ARRAYS`` for one run, with checks that record their masks: ``ok`` ANDs them.

    ``ARRAYS``' methods are class attributes, so building a run binds none.
    """

    def __init__(self) -> None:
        self.masks: list[Any] = []
        self.failed = False

    @property
    def ok(self) -> Any:
        """Every check's mask ANDed: one reduction over the masks recorded since the last read."""
        if self.failed:
            return np.False_
        masks = self.masks
        if len(masks) > 1:
            masks[:] = [np.logical_and.reduce(masks)]
        return masks[0] if masks else np.True_

    def check(self, ok: Any, error: type[Exception], message: str, *values: Any) -> None:
        if ok.ndim:
            self.masks.append(ok)
        # A 0-d mask, a check on constants alone, fails every height or none.
        elif not ok:
            self.failed = True

    def check_finite(self, x: Any, y: Any) -> None:
        self._finite(x)
        self._finite(y)

    def _finite(self, v: Any) -> None:
        # A 0-d value in Python: np.isfinite on a numpy scalar takes ~0.6 us.
        if v.ndim:
            self.masks.append(np.isfinite(v))
        elif not math.isfinite(v):
            self.failed = True


for _name, _method in vars(ARRAYS).items():
    setattr(_Run, _name, staticmethod(_method))
del _name, _method


def execute_batched(program: _Program, given: dict[str, tuple[Any, Any]]) -> list[Any]:
    """Run a compiled step program over arrays of given points, one entry per height.

    ``given`` maps the program's initial labels, in its order, to their
    (x, y): numpy arrays, or scalars where a coordinate is the same at
    every height. Returns every slot's value (``program.labels`` names
    them) as the run computed it, in the form ``given`` takes: a
    coordinate that varies with height is an array of the run's length, a
    constant one a numpy scalar. On a failure the run's mask gives the
    first failing height i, and height i's given points, built as
    ``Point``s, are replayed over floats, which raises that height's
    error, class and message, with ``height_index`` i. The caller holds
    ``np.errstate(all="ignore")``, as a float run's errors are silent: a
    sweep (``locus.sample_locus``) enters it once for all its blocks.
    """
    run = _Run()
    # A numpy scalar, not a float: float division by zero raises, where
    # numpy's follows the errstate. The given points' finite check, once per
    # column (in a sweep C, D and the applied corner C± share the heights
    # array, and B± and C± the base b), and in Python for the constants.
    initial, columns, constants = [], {}, []
    for x, y in given.values():
        if isinstance(x, np.ndarray):
            columns[id(x)] = x
        else:
            constants.append(x)
            x = np.float64(x)
        if isinstance(y, np.ndarray):
            columns[id(y)] = y
        else:
            constants.append(y)
            y = np.float64(y)
        initial.append((x, y))
    run.failed = not all(map(math.isfinite, constants))
    for column in columns.values():
        run._finite(column)
    env = program.run(run, initial)
    # Where every check passes, one pass over all the masks shows it; the
    # per-height AND is built only to find the first failing height.
    masks = run.masks
    if not run.failed and (not masks or np.concatenate(masks).all()):
        return env
    ok = run.ok
    # No check fails at any height below i, and a height fails a check in
    # the run exactly where it fails one in floats (see the module
    # docstring), so the float replay at height i raises what ``apply_*``
    # raises at the first failing height: a given point's error as
    # ``Point`` raises it, the first in order, or a step's. A 0-d mask, from
    # checks on constants alone, fails at every height and gives i = 0.
    i = int(ok.argmin())
    try:
        program.replay([Point(*(c[i] if c.ndim else c for c in point), label) for label, point in zip(given, initial)])
    except ValueError as exc:
        exc.height_index = i  # type: ignore[attr-defined]
        raise
    raise AssertionError(f"height {i} failed a batched check but passes the scalar construction")
