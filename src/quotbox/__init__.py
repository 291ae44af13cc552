"""Exact verification of product formulas for graded quotient counting.

The package checks, in exact integer arithmetic, that the generating
series of Euler characteristics of finite-colength quotient loci of
certain rank-2 graded modules on affine 3-space factors as MacMahon's
function squared times the generating polynomial of box-bounded plane
partitions, and cross-checks every enumerative ingredient by at least two
independent routes.

Each module lists its public names once, in its own ``__all__``; the
package root re-exports exactly those.
"""

from . import partitions, quotfixed, reflexive, series, verify
from .series import *
from .partitions import *
from .reflexive import *
from .quotfixed import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *series.__all__, *partitions.__all__, *reflexive.__all__, *quotfixed.__all__,
    *verify.__all__, "__version__",
]
