"""cfx: series expansions for the distribution, density and quantiles of
standardized estimates about normal and gamma base laws.

The package has two layers.  The symbolic layer (``hpoly``, ``bell``,
``partitions``, ``hbasis``, ``engine``) manipulates exact rational
coefficient tables: expansion polynomials indexed by integer partitions with
generalized-Hermite coefficients.  The numeric layer (``basedist``,
``cumulants``, the evaluation entry points in ``engine``, ``oracle``)
evaluates those tables for concrete cumulant models and base distributions.
"""

from .hpoly import Poly
from .bell import Seq, partial_ordinary_bell
from .partitions import Partition, s_weight, hset, bracket_series_coeff
from . import hbasis, basedist, cumulants, engine, oracle

__all__ = [
    "Poly", "Seq", "partial_ordinary_bell",
    "Partition", "s_weight", "hset", "bracket_series_coeff",
    "hbasis", "basedist", "cumulants", "engine", "oracle",
]

__version__ = "0.1.0"
