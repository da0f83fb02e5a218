"""Complex conjugation in Q(w_b), which only the tests read."""

from fractions import Fraction

from hodnet.cyclotomic import Cyclotomic


def conjugate(z: Cyclotomic) -> Cyclotomic:
    """w -> w**-1 on the power-basis coordinates of z."""
    full = [Fraction(0)] * z.base
    for i, a in enumerate(z.coeffs):
        full[-i % z.base] += a
    return Cyclotomic._from_length_b(z.base, full)
