"""Dynamic portfolio optimization on a block-structured QUBO.

The pipeline: price series -> interval log returns and risk matrices ->
integer portfolio weights encoded in binary -> a block tridiagonal QUBO ->
solved whole or block by block, in float64 or through a signed 8-bit
device emulation -> scored on budget feasibility, net returns, and a
return/risk ratio.

The public API is the union of the modules' ``__all__``; the command line
(``dpoqubo.cli``) exports nothing.
"""

from .backends import *
from .bcd import *
from .harness import *
from .market import *
from .model import *
from .planted import *
from .precision import *
from .qubo import *
from .serialize import *

__version__ = "0.1.0"
