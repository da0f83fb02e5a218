"""Exact arithmetic in the cyclotomic field Q(w) for w = exp(2*pi*i/b), b prime.

Values are stored as rational coordinate vectors in the power basis
1, w, ..., w**(b-2); the relation 1 + w + ... + w**(b-1) = 0 reduces any
length-b representation to this canonical form.  For b = 2 the field
degenerates to the plain rationals (w = -1).

This representation makes "exactly zero" a decidable predicate, which the
Walsh-coefficient sparsity checks rely on.  The production route builds
values from coordinates and reads ``is_zero`` and ``to_complex``; the
constructors ``zero`` and ``root`` and the ring operations serve the
per-pair Walsh oracles in :mod:`hodnet.walsh`, and ``__eq__`` their
comparisons in the tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import UsageError
from .gf import is_prime


class Cyclotomic:
    """An element of Q(w_b), immutable."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: int, coeffs) -> None:
        if not is_prime(base):
            raise UsageError(f"cyclotomic base must be prime, got {base}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != base - 1:
            raise UsageError(
                f"expected {base - 1} power-basis coordinates, got {len(cs)}"
            )
        self.base = base
        self.coeffs = cs

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, base: int) -> "Cyclotomic":
        return cls(base, (Fraction(0),) * (base - 1))

    @classmethod
    def root(cls, base: int, exponent: int) -> "Cyclotomic":
        """The root of unity w**exponent."""
        e = exponent % base
        if e == base - 1:
            return cls(base, (Fraction(-1),) * (base - 1))
        cs = [Fraction(0)] * (base - 1)
        cs[e] = Fraction(1)
        return cls(base, cs)

    @classmethod
    def _from_length_b(cls, base: int, full) -> "Cyclotomic":
        # Reduce modulo 1 + w + ... + w**(b-1) = 0 by subtracting the last
        # coordinate from every coordinate.
        last = full[base - 1]
        return cls(base, tuple(full[i] - last for i in range(base - 1)))

    # -- arithmetic --------------------------------------------------------

    def _compat(self, other: "Cyclotomic") -> None:
        if not isinstance(other, Cyclotomic) or other.base != self.base:
            raise UsageError("cyclotomic operands must share the same base")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compat(other)
        return Cyclotomic(
            self.base, tuple(a + c for a, c in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.base, tuple(a * other for a in self.coeffs))
        self._compat(other)
        b = self.base
        full = [Fraction(0)] * b
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, c in enumerate(other.coeffs):
                if c == 0:
                    continue
                full[(i + j) % b] += a * c
        return Cyclotomic._from_length_b(b, full)

    __rmul__ = __mul__

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def to_complex(self) -> complex:
        b = self.base
        acc = complex(0.0)
        for i, a in enumerate(self.coeffs):
            if a != 0:
                acc += float(a) * cmath.exp(2j * cmath.pi * i / b)
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and other.base == self.base
            and other.coeffs == self.coeffs
        )
