"""The prime field F_b and the monic irreducible polynomials over it.

Field elements are plain Python ints in ``[0, b)``, and a polynomial over
F_b is a tuple of coefficients, lowest degree first.  Every polynomial the
package builds is monic, so its tuple ends in 1 and its degree is the tuple
length minus one.

:func:`check_base` returns a valid base (a prime at most ``MAX_BASE``) and
raises :class:`UsageError` on any other; :func:`digits_of` expands integers
in base b; :func:`monic_irreducibles` lists the canonical irreducibles, as
coefficient tuples, that seed the sequence construction in
:mod:`hodnet.matrices`.
"""

from __future__ import annotations

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


def check_base(base: int) -> int:
    """``base`` itself if it is a prime integer at most ``MAX_BASE``."""
    if not isinstance(base, int) or not is_prime(base):
        raise UsageError(f"base must be a prime integer, got {base!r}")
    if base > MAX_BASE:
        raise UsageError(f"base {base} exceeds the supported maximum {MAX_BASE}")
    return base


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


def _divides(q: tuple[int, ...], p: tuple[int, ...], base: int) -> bool:
    # Long division of p by the monic q over F_b; q | p iff no remainder.
    rem = list(p)
    e = len(q) - 1
    for top in range(len(rem) - 1, e - 1, -1):
        c = rem[top]
        if c:
            for j in range(e + 1):
                rem[top - e + j] = (rem[top - e + j] - c * q[j]) % base
    return not any(rem[:e])


def monic_irreducibles(base: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` monic irreducible polynomials over F_b.

    Each is a coefficient tuple, lowest degree first.  They are ordered by
    degree, ties broken by the coefficient vector read as a base-b integer,
    so the output is canonical and reproducible.  A reducible candidate of
    degree n has an irreducible factor of degree at most n/2, and every such
    factor is already in the list when the candidate comes up.
    """
    check_base(base)
    if count < 1:
        raise UsageError("count must be at least 1")
    found: list[tuple[int, ...]] = []
    degree = 1
    while True:
        divisors = [q for q in found if 2 * (len(q) - 1) <= degree]
        for v in range(base**degree):
            candidate = (*digits_of(v, base, degree), 1)
            if not any(_divides(q, candidate, base) for q in divisors):
                found.append(candidate)
                if len(found) == count:
                    return found
        degree += 1
