"""Exact rational calculus of characteristic classes.

Multiplicative sequences for the signature and A-hat genera, truncated
cohomology rings of spheres and quaternionic projective spaces, the rational
Pontryagin character and its inverse, and the surgery obstruction pipeline
for normal invariants of bundles over S^4 x HP^n.  Every value is a
`fractions.Fraction`; nothing is approximated.
"""

from . import manifolds, multseq, rational, ring, series, surgery
from .manifolds import *
from .multseq import *
from .rational import *
from .ring import *
from .series import *
from .surgery import *

__version__ = "0.1.0"

# the union of the layers' own public names, each listed once in its layer
__all__ = sorted(
    manifolds.__all__ + multseq.__all__ + rational.__all__
    + ring.__all__ + series.__all__ + surgery.__all__
)
