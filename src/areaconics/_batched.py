"""A compiled step program run once over many heights.

A sweep runs the same straight-line step program at every height; only
the given points change. Here each labelled point holds one numpy array
per coordinate, with one entry per height, and a compiled program (the
kind's ``constructions._PROGRAMS`` entry, in a sweep) runs each step once
over all of them, through the kernel's primitives over the numpy
namespace ``ARRAYS`` (with a run's own ``check``, ``_Run``). So every
entry equals, bit for bit, what the float run computes for that height
alone.

A coordinate that is the same at every height (A = (0, 0), B = (L, 0),
the base corners' zero y) stays a numpy scalar, so an operation between
two constants is one scalar operation, not one per height, and a run
returns it as one.

A run's checks do not stop it. Each check ANDs its mask into the run's
one mask, and the run ends with one reduction. Up to a height's first
failing check its values are the float run's, so the lowest height the
mask rejects is the first height that fails in floats; the error itself
comes from one float run at that height (see ``execute_batched``). What a
run computes past a failed check is discarded.

``math.hypot`` and ``np.hypot`` may differ in the last bit; in the
companion-square program every distance and ray norm has one zero
component, where both are exact: hypot(x, ±0) is |x| (IEEE 754, C99
F.9.4.3). ``ARRAYS.hypot`` takes that |x| directly when every row has a
zero component, and ``np.hypot`` otherwise and on two scalars.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

import numpy as np

from .constructions import _Program
from .kernel import FLOATS


def _hypot(x: Any, y: Any) -> Any:
    # Two constants: one scalar call, cheaper than the test below.
    if np.ndim(x) == np.ndim(y) == 0:
        return np.hypot(x, y)
    ax, ay = np.abs(x), np.abs(y)
    # Every row's min(|x|, |y|) is zero. A nan row is nonzero here (np.minimum
    # propagates it) and takes np.hypot, which keeps the nan's sign where
    # np.abs clears it.
    if not np.minimum(ax, ay).any():
        return np.maximum(ax, ay)
    return np.hypot(x, y)


ARRAYS = SimpleNamespace(
    sqrt=np.sqrt,
    hypot=_hypot,
    isfinite=np.isfinite,
    maximum=np.maximum,
    where=np.where,
    not_=np.logical_not,
)


class _Run(SimpleNamespace):
    """``ARRAYS`` for one run, with a check that records: ``ok`` is every mask ANDed."""

    def __init__(self) -> None:
        super().__init__(**vars(ARRAYS), ok=np.True_)

    def check(self, ok: Any, error: type[Exception], message: str, *values: Any) -> None:
        self.ok = self.ok & ok


def execute_batched(program: _Program, given: dict[str, tuple[Any, Any]]) -> dict[str, Any]:
    """Run a compiled step program over arrays of given points, one entry per height.

    ``given`` maps the program's initial labels, in its order, to their
    (x, y): numpy arrays, or scalars where a coordinate is the same at
    every height. Returns every labelled entity as the run computed it,
    in the form ``given`` takes: a coordinate that varies with height is
    an array of the run's length, a constant one a numpy scalar. On a
    failure the run's mask gives the first failing height i, and the
    program runs over floats at height i alone, which raises that
    height's error, class and message.
    """
    # A numpy scalar, not a float: float division by zero raises, where
    # numpy's follows the errstate below.
    initial = [tuple(c if isinstance(c, np.ndarray) else np.float64(c) for c in point) for point in given.values()]
    run = _Run()
    with np.errstate(all="ignore"):
        env = program.run(run, initial)
    if run.ok.all():
        return dict(zip(program.labels, env))
    # No check fails at any height below i, and up to a height's first
    # failing check the batched values are the float values bit for bit,
    # so the float run at height i raises what ``apply_*`` raises at the
    # first failing height. A 0-d mask, from checks on constants alone,
    # fails at every height and gives i = 0.
    i = int(run.ok.argmin())
    program.run(FLOATS, [tuple(float(c[i] if c.ndim else c) for c in point) for point in initial])
    raise AssertionError(f"height {i} failed a batched check but passes the scalar construction")
