"""Higher-order digital nets and sequences over prime fields.

Construction of interlaced generalized-Niederreiter generating matrices,
exact digital point generation extensible in both the point count and the
dimension, order-alpha net certification through dual-net analysis, exact
Walsh-coefficient analysis of the Sobolev reproducing kernel, and
worst-case-error measurement of the resulting quadrature rules.
"""

__version__ = "0.1.0"
