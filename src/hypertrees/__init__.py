"""Exact counting of labeled hypertrees and verification of the
generating-function identities that govern them.

The package has four layers:

* :mod:`hypertrees.series` -- truncated multivariate power series over
  exact rationals, the arithmetic everything else runs on;
* :mod:`hypertrees.hypergraphs` -- a brute-force oracle over labeled
  hypergraphs, with a kernel that counts by block-size types;
* :mod:`hypertrees.gf` -- the connected-hypergraph series, its hypertree
  layer, rooted fixed point and identity suite;
* :mod:`hypertrees.funceq` -- the log-exp functional equation, its
  vanishing pattern, substitution family and reversion route; it runs on
  the series layer, and only its hypertree dictionary report reaches into gf.

The closed-form counts live in :mod:`hypertrees.closed`.  ``hypertrees.cli``
wires the layers into the ``hypertrees`` command and alone formats their data.
Importing the package loads no layer; import from the submodules, as in
``from hypertrees.series import Series``.
"""

__version__ = "0.1.0"
# the oracle's counting-kernel steps per run, one per (state, move) pair; kept
# here so that --help shows it without loading the oracle
DEFAULT_BUDGET = 1_000_000
