"""fracsum: exponential-sum compression of the fractional-integral kernel.

The power-law kernel of the fractional integral, shifted away from its
singularity by an offset delta, is approximated on [delta, T] by a sum of
P = (K+1)*J decaying exponentials built from a composite Gauss-Jacobi rule.
Two closed-form estimators certify the relative error, and an implicit
trapezoidal stepper uses the compressed kernel to solve Caputo initial value
problems with O(P) memory instead of storing the whole history.

The public names are those each module lists in its __all__; this file only
republishes them.
"""

from . import kernel, oracle, problems, quadrature, solver, specialfn
from .kernel import *
from .oracle import *
from .problems import *
from .quadrature import *
from .solver import *
from .specialfn import *

__version__ = "0.1.0"

__all__ = sorted(kernel.__all__ + oracle.__all__ + problems.__all__
                 + quadrature.__all__ + solver.__all__ + specialfn.__all__)
