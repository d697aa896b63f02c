"""Exact counting of labeled hypertrees and verification of the
generating-function identities that govern them.

The package has four layers:

* :mod:`hypertrees.series` -- truncated multivariate power series over
  exact rationals, the arithmetic everything else runs on;
* :mod:`hypertrees.hypergraphs` -- a brute-force enumeration oracle over
  labeled hypergraphs, with a union-find counting kernel;
* :mod:`hypertrees.gf` -- the connected-hypergraph series, its hypertree
  layer, rooted fixed point, closed-form counts and identity suite;
* :mod:`hypertrees.funceq` -- the log-exp functional equation, its
  vanishing pattern, substitution family and reversion route.

``hypertrees.cli`` wires the layers into the ``hypertrees`` command.
"""

from .series import (
    ContextMismatchError,
    Monomial,
    OutOfContextError,
    Series,
    TruncationContext,
)

__version__ = "0.1.0"

__all__ = [
    "ContextMismatchError",
    "Monomial",
    "OutOfContextError",
    "Series",
    "TruncationContext",
    "__version__",
]
