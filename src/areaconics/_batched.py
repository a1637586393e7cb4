"""A compiled step program run once over many heights.

A sweep runs the same straight-line step program at every height; only
the given points change. Here each labelled point holds one numpy array
per coordinate, with one entry per height, and a compiled program (the
kind's ``constructions._PROGRAMS`` entry, in a sweep) runs each step once
over all of them, through the kernel's primitives over the numpy
namespace ``ARRAYS``. So every entry equals, bit for bit, what the float
run computes for that height alone. The array checks only find where a
run fails: the error itself comes from the float run (see
``execute_batched``).

``math.hypot`` and ``np.hypot`` may differ in the last bit; in the
companion-square program every distance and ray norm has one zero
component, where both are exact.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

import numpy as np

from .constructions import _Program
from .kernel import FLOATS


class _Failure(Exception):
    """A check failed; its argument is the first failing height of this run."""


def _locate(ok: Any, error: type[Exception], message: str, *values: Any) -> None:
    if not ok.all():
        raise _Failure(int(ok.argmin()))


ARRAYS = SimpleNamespace(
    sqrt=np.sqrt,
    hypot=np.hypot,
    isfinite=np.isfinite,
    maximum=np.maximum,
    where=np.where,
    not_=np.logical_not,
    check=_locate,
)


def execute_batched(program: _Program, given: dict[str, tuple[Any, Any]]) -> dict[str, Any]:
    """Run a compiled step program over arrays of given points, one entry per height.

    ``given`` maps the program's initial labels, in its order, to their
    (x, y): numpy arrays, or scalars where a coordinate is the same at
    every height, which are broadcast to the arrays' shape. Returns every
    labelled entity; a point is its (x, y) arrays. The array checks only
    find the first height i that fails a check; an earlier height may
    still fail at a later step. So on a failure the program runs over
    floats at heights 0..i one at a time, and raises the first failing
    height's error, class and message, by construction.
    """
    coords = iter(np.broadcast_arrays(*(c for point in given.values() for c in point)))
    initial = list(zip(coords, coords))
    try:
        with np.errstate(all="ignore"):
            return dict(zip(program.labels, program.run(ARRAYS, initial)))
    except _Failure as failure:
        (failing,) = failure.args
    for i in range(failing + 1):
        program.run(FLOATS, [(float(x[i]), float(y[i])) for x, y in initial])
    raise AssertionError(f"height {failing} failed a batched check but passes the scalar construction")
