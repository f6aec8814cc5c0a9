"""powersumkit: exact power-sum formulas, Stirling-family number
triangles, symmetric-function identities, and even zeta values.

Everything is computed in exact arbitrary-precision arithmetic (Python
ints and Fractions); floating point appears only in CLI presentation.
The package exports the ``__all__`` of each layer below.
"""

from .exact import *
from .sequences import *
from .symfuncs import *
from .combinatorics import *
from .powersums import *
from .zeta import *
from .verify import *

__version__ = "0.1.0"
