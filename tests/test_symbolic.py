"""The paper's theorem, proved by the program: each kind's step program run over sympy.

A namespace over sympy expressions runs ``_PROGRAMS[kind]`` and
``_SWEEP_PROGRAMS[kind]`` with symbolic given points, through the kernel's
nine namespace methods and nothing else: no module global is patched. Its
``check`` and ``where`` decide each relation for every positive value of
the symbols, or fail naming the relation they cannot decide. Its
``tangent`` and ``on_line`` decide exactly, with no tolerance: a circle
meets a line where the gap is >= 0 and touches it where the gap is 0,
and a point lies on a line where its offset is 0. So the assertions hold
as identities: G = (0, √(b·y)), and J = (x, y) with x² = L·y + k·y², for
every positive L, λ and y (b, λ and y for the deficient kind).

Over sympy ``==`` and ``!=`` compare expressions by their form, not their
value; the kernel uses them only to test a norm against 0 before it
divides by it, and a zero norm would leave a nan in G or J, which fails
the assertions.
"""

from types import SimpleNamespace

import pytest
import sympy as sp

from areaconics.constructions import (
    _CORNER_SUFFIX,
    _PROGRAMS,
    _SWEEP_PROGRAMS,
    ApplicationKind,
    AreaFamily,
    _given_coordinates,
)
from areaconics.kernel import _Namespace

L, lam, b, y = sp.symbols("L lambda b y", positive=True)


def _exact(expr):
    # The kernel's literals (0.5, 1.0, 1e-9) as the rationals they name.
    return sp.simplify(sp.nsimplify(expr, rational=True))


def _decide(relation):
    """``relation``'s truth for every positive value of the symbols; fails where sympy cannot tell."""
    if isinstance(relation, (bool, sp.logic.boolalg.BooleanAtom)):
        return bool(relation)
    truth = _exact(relation)
    if not isinstance(truth, sp.logic.boolalg.BooleanAtom):
        raise AssertionError(f"cannot decide {relation}")
    return bool(truth)


def _check(ok, error, message, *values):
    if not _decide(ok):
        raise error(message.format(*values))


def _check_finite(x, y):
    finite = [sp.sympify(v).is_finite for v in (x, y)]
    if None in finite:
        raise AssertionError(f"cannot decide whether ({x}, {y}) is finite")
    if not all(finite):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")


SYMBOLIC = _Namespace(
    sqrt=sp.sqrt,
    hypot=lambda x, y: sp.sqrt(x**2 + y**2),
    where=lambda condition, a, b: a if _decide(condition) else b,
    tangent=lambda gap, r2: (_decide(gap >= 0), _decide(sp.Eq(gap, 0))),
    on_line=lambda off, span: _decide(sp.Eq(off, 0)),
    check=_check,
    check_finite=_check_finite,
    constant=None,
    axis=None,
)

# Each kind's base L, its k in x² = L·y + k·y², and the symbols it holds
# positive. The deficient kind needs b > 0 as an assumption, which does
# not follow from L, λ, y > 0, so there L = b + λ·y.
KINDS = {
    ApplicationKind.EXACT: (L, 0),
    ApplicationKind.DEFICIENT: (b + lam * y, -lam),
    ApplicationKind.EXCESS: (L, lam),
}


def _run(program, kind):
    base_L, k = KINDS[kind]
    # The library's own given configuration and applied base b = L + k·y.
    family = SimpleNamespace(base_L=base_L, k=k, corner_suffix=_CORNER_SUFFIX[kind])
    family.rect_base = lambda height: AreaFamily.rect_base(family, height)
    given = _given_coordinates(family, y)
    env = program.run(SYMBOLIC, [given[label] for label in program.source[0]])
    return dict(zip(program.labels, env)), base_L, k, family.rect_base(y)


@pytest.mark.parametrize("programs", [_PROGRAMS, _SWEEP_PROGRAMS], ids=["full", "sweep"])
@pytest.mark.parametrize("kind", list(KINDS), ids=[kind.value for kind in KINDS])
def test_each_program_proves_the_theorem_for_every_positive_input(kind, programs):
    points, base_L, k, rect_base = _run(programs[kind], kind)
    # G on the perpendicular at A, at the mean proportional of b and y (II.14);
    # I lays the square's side |AG| off along the base (I.46).
    side = sp.sqrt(rect_base * y)
    G, I = points["G"], points["I"]
    assert _exact(G[0]) == 0, G
    assert _exact(G[1] - side) == 0, G
    assert _exact(I[0] - side) == 0, I
    assert _exact(I[1]) == 0, I
    if "J" in points:
        J = points["J"]
        assert _exact(J[1] - y) == 0, J
        assert _exact(J[0] ** 2 - (base_L * y + k * y**2)) == 0, J
    else:
        assert programs is _SWEEP_PROGRAMS


def test_an_undecidable_relation_fails_naming_it():
    with pytest.raises(AssertionError, match="cannot decide"):
        _check(sp.Symbol("t", real=True) > 0, ValueError, "")
