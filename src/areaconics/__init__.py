"""Conics as loci of rectangle-and-square area applications on a segment.

The package constructs, with straightedge-and-compass primitives, a
rectangle of prescribed area applied to a base segment together with a
companion square of equal area, and sweeps the rectangle height to
trace the parabola, ellipse, or hyperbola through the intersection
point of the two figures. Constructions are recorded as replayable,
proposition-cited traces; loci can be verified against the closed-form
equations, cross-checked with a least-squares conic fit, and rendered
as deterministic SVG diagrams.
"""

# Each module's ``__all__`` is its public API; the package re-exports all four.
from . import constructions, figures, kernel, locus
from .constructions import *
from .figures import *
from .kernel import *
from .locus import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += constructions.__all__
__all__ += figures.__all__
__all__ += kernel.__all__
__all__ += locus.__all__
