"""divisorlab: desk-scale computation and verification toolkit for the
generalised Dirichlet divisor problem.

Subpackages:

* ``exponents`` -- closed-form constants, bound formulas, scalar optimisation.
* ``laurent``   -- truncated Laurent series at s=1, Stieltjes constants,
  main-term polynomials via residue extraction.
* ``sieve``     -- exact d_k(n) blocks and partial sums D_k(x).
* ``remainder`` -- Delta_k(x) samples, exponent fits, sign changes,
  mean squares, comparison envelopes.
* ``zetasum``   -- exponential sums, Euler-Maclaurin zeta, chi factor,
  approximate functional equation, moment integrals, mean-value checks.
* ``cli``       -- batch command-line surface.

Submodules load on first attribute access (``divisorlab.sieve``), so a
process imports numpy only when a layer that uses it is reached.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "errors", "exponents", "laurent", "numerics",
                         "remainder", "sieve", "zetasum"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
