"""Exact arithmetic in prime fields F_b and for polynomials over F_b.

Field elements are plain Python ints in ``[0, b)``; a :class:`PrimeField`
instance validates the modulus and the elements and inverts them.
Polynomials are immutable coefficient tuples, lowest degree first, with the
zero polynomial represented by the empty tuple.

The module also provides base-b digit expansion, the canonical enumeration
of monic irreducible polynomials, and the reciprocal-series coefficients
that seed the sequence construction in :mod:`hodnet.matrices`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import UsageError

# Construction and certification in this package are desk-scale; large prime
# bases only make the exact scans slower without exercising new code paths.
MAX_BASE = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """A prime modulus ``base``, with element validation and inverses.

    Elements are ints in ``[0, base)``; both methods validate their inputs
    and raise :class:`UsageError` on out-of-range values.
    """

    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        if not isinstance(base, int) or not is_prime(base):
            raise UsageError(f"base must be a prime integer, got {base!r}")
        if base > MAX_BASE:
            raise UsageError(f"base {base} exceeds the supported maximum {MAX_BASE}")
        self.base = base

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.base:
            raise UsageError(f"{a!r} is not an element of F_{self.base}")
        return a

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        if self.check(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.base}")
        return pow(a, self.base - 2, self.base)


def digits_of(k: int, base: int, count: int | None = None) -> list[int]:
    """Base-b digits of ``k``, least significant first.

    With ``count`` the list is padded or truncated to exactly that length.
    """
    if k < 0:
        raise UsageError("digit expansion requires a nonnegative integer")
    out: list[int] = []
    while k:
        k, d = divmod(k, base)
        out.append(d)
    if count is not None:
        if len(out) < count:
            out.extend([0] * (count - len(out)))
        else:
            out = out[:count]
    return out


class Poly:
    """Immutable polynomial over F_b, coefficients lowest degree first.

    The coefficient tuple never carries a trailing zero; the zero polynomial
    is the empty tuple and has degree -1.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base: int, coeffs: Iterable[int]) -> None:
        field = PrimeField(base)
        cs = [field.check(c % base if isinstance(c, int) else c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.base = base
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, base: int) -> "Poly":
        return cls(base, ())

    @classmethod
    def one(cls, base: int) -> "Poly":
        return cls(base, (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.base)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, c in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * c) % self.base
        return Poly(self.base, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise UsageError("negative polynomial powers are not defined")
        result = Poly.one(self.base)
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_compatible(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = PrimeField(self.base)
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        inv_lead = field.inv(other.coeffs[-1])
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            factor = (rem[i + other.degree] * inv_lead) % self.base
            if factor:
                q[i] = factor
                for j, c in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - factor * c) % self.base
        return Poly(self.base, q), Poly(self.base, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def _check_compatible(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.base != self.base:
            raise UsageError("polynomials must share the same base")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and other.base == self.base
            and other.coeffs == self.coeffs
        )


def _is_irreducible(p: Poly) -> bool:
    # Trial division by every monic polynomial of degree 1 .. deg(p)//2 is
    # exhaustive and fast at the degrees this package ever needs.
    if p.degree < 1:
        return False
    base = p.base
    for d in range(1, p.degree // 2 + 1):
        for v in range(base**d):
            divisor = Poly(base, digits_of(v, base, d) + [1])
            if (p % divisor).is_zero():
                return False
    return True


def monic_irreducibles(base: int, count: int) -> list[Poly]:
    """The first ``count`` monic irreducible polynomials over F_b.

    Ordered by degree, ties broken by the coefficient vector read as a base-b
    integer, so the output is canonical and reproducible.
    """
    PrimeField(base)
    if count < 1:
        raise UsageError("count must be at least 1")
    found: list[Poly] = []
    degree = 1
    while len(found) < count:
        for v in range(base**degree):
            candidate = Poly(base, digits_of(v, base, degree) + [1])
            if _is_irreducible(candidate):
                found.append(candidate)
                if len(found) == count:
                    break
        degree += 1
    return found


def _series_inverse(dcoeffs: Sequence[int], base: int, nterms: int) -> list[int]:
    # Reciprocal of a power series with unit constant term, to nterms terms.
    inv = [0] * nterms
    if nterms:
        inv[0] = 1
    for t in range(1, nterms):
        acc = 0
        for j in range(1, min(t, len(dcoeffs) - 1) + 1):
            acc += dcoeffs[j] * inv[t - j]
        inv[t] = (-acc) % base
    return inv


def laurent_coeffs(p: Poly, power: int, shift: int, length: int) -> list[int]:
    """Expansion coefficients of x**(e-shift-1) / p(x)**power in powers of 1/x.

    ``e`` is the degree of ``p``.  The return value lists the coefficients of
    x**-1, x**-2, ..., x**-length, computed by exact long division of power
    series over F_b.  Requires ``p`` monic, ``power >= 1`` and
    ``0 <= shift < e``.
    """
    if not p.is_monic():
        raise UsageError("series expansion requires a monic polynomial")
    e = p.degree
    if power < 1:
        raise UsageError("power must be at least 1")
    if not 0 <= shift < e:
        raise UsageError(f"shift must lie in [0, {e}), got {shift}")
    if length < 1:
        return []
    base = p.base
    denom = p**power
    big_e = denom.degree
    deg_n = e - shift - 1
    # In u = 1/x the quotient is u**(big_e - deg_n) / d(u) with
    # d(u) = sum_j denom[big_e - j] u**j and d(0) = 1 (denom is monic).
    offset = big_e - deg_n
    d_u = [denom.coeffs[big_e - j] for j in range(big_e + 1)]
    inv = _series_inverse(d_u, base, max(length - offset + 1, 0))
    out = [0] * length
    for l in range(1, length + 1):
        if l >= offset:
            out[l - 1] = inv[l - offset]
    return out
