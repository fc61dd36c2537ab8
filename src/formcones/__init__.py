"""Exact-arithmetic cones of divisors and curves on spaces of complete forms.

The package models spaces of complete collineations and complete quadrics
through their Picard lattices: integer divisor classes, the effective,
nef, movable, Mori, and moving-curve cones, chamber decompositions of the
effective cone, and the closed-form dimension counts behind them.  All
computation is over the integers and rationals; no floating point.

Each module's ``__all__`` declares its public names; the root re-exports
them in one list.
"""

from . import chambers, cones, errors, formulas, spaces
from .chambers import *
from .cones import *
from .errors import *
from .formulas import *
from .reports import VERSION
from .spaces import *

__version__ = VERSION

__all__ = ["__version__", "VERSION", *cones.__all__, *spaces.__all__,
           *chambers.__all__, *formulas.__all__, *errors.__all__]
