"""Verification library for genus-2 theta constants, their Fourier
expansions, the associated modular-form relations, and the projective
Calabi-Yau threefold they cut out.

The exact engine (q-series with rational integer coefficients, sparse
polynomials over the rationals) never touches floating point.  The numeric
engine evaluates the same objects by lattice summation with explicit tail
bounds, so every analytic claim is checked by two independent routes.
"""

__version__ = "0.1.0"
