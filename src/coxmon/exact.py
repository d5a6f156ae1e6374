"""Exact arithmetic in the fields Q(2 cos(pi/N)).

Every finite edge label m that occurs in a Coxeter graph contributes the
real number 2 cos(pi/m) to the entries of the reflection representation.
All those numbers live in Q(theta) with theta = 2 cos(pi/N), N the lcm of
the finite labels, because 2 cos(k pi / N) = p_k(theta) where p_k is the
integer polynomial p_k(x) = 2 T_k(x/2) (Chebyshev):

    p_0 = 2,  p_1 = x,  p_{k+1} = x p_k - p_{k-1}.

A scalar is a polynomial in theta with rational coefficients, reduced mod
the minimal polynomial Psi_N of theta, of degree d = phi(2N)/2 (N >= 2).
Every scalar the library builds is an algebraic integer in Z[theta]: Psi_N
is monic with integer coefficients and 2 cos(pi/m) = p_{N/m}(theta), so the
coefficients are plain ints, and reduction mod Psi_N keeps them ints.  A
``Fraction`` appears only where a caller passes a non-integral rational.
Psi_N is built exactly from the cyclotomic polynomial Phi_2N of
z = e^(i pi/N): Phi_2N(z) = z^d Psi_N(z + 1/z) (Watkins-Zeitlin 1993), and
z^k + z^-k = p_k(z + 1/z), so the upper half of the coefficients of Phi_2N
gives Psi_N in the basis p_k.  No numerics, nothing left to certify.

Zero testing is exact (reduced coefficients all zero).  The *sign* of a
nonzero scalar is read off integer enclosures at doubling precision p: a
cached table per (N, p) holds integers lo_k <= 2^p theta^k <= hi_k (k < d),
built once with interval arithmetic (mpmath.iv) and converted exactly from
the endpoints' mantissas and exponents.  Scaled to integer coefficients c_k,
the scalar times 2^p lies between two integer sums of c_k lo_k and c_k hi_k;
when both sums have one sign, that is the sign.  The exact zero test
guarantees termination.  mpmath is loaded on the first sign that needs
these enclosures (a zero or rational scalar never does), so the permutation
backend of spherical graphs never imports it.

Polynomials here are tuples of coefficients, lowest degree first, trimmed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction


# -- plain polynomial helpers (coefficient tuples, low degree first) ------


def poly_trim(c):
    c = tuple(c)
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return poly_trim(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def poly_sub(a, b):
    return poly_add(a, tuple(-x for x in b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod_monic(a, b):
    """Divide by a *monic* polynomial; works over Z and over Q.

    >>> poly_divmod_monic((-2, 0, 1), (1, 1))   # (x^2-2) / (x+1)
    ((-1, 1), (-1,))
    """
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        if c:
            q[k] = c
            for j, y in enumerate(b):
                a[k + j] -= c * y
    return poly_trim(q), poly_trim(a)


@functools.cache
def chebyshev_like(k: int):
    """p_k = 2 T_k(x/2) as an integer tuple; p_k(2 cos t) = 2 cos(k t).

    >>> chebyshev_like(2)
    (-2, 0, 1)
    >>> chebyshev_like(3)
    (0, -3, 0, 1)
    """
    if k == 0:
        return (2,)
    if k == 1:
        return (0, 1)
    return poly_sub(poly_mul((0, 1), chebyshev_like(k - 1)), chebyshev_like(k - 2))


def totient(n: int) -> int:
    out, p, m = n, 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@functools.cache
def cyclotomic(n: int):
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d of n.

    >>> cyclotomic(1)
    (-1, 1)
    >>> cyclotomic(6)
    (1, -1, 1)
    """
    out = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            out, _ = poly_divmod_monic(out, cyclotomic(d))
    return out


@functools.cache
def minimal_polynomial(N: int):
    """Monic integer minimal polynomial of 2 cos(pi/N), low degree first.

    >>> minimal_polynomial(1)
    (2, 1)
    >>> minimal_polynomial(4)
    (-2, 0, 1)
    >>> minimal_polynomial(5)
    (-1, -1, 1)
    """
    if N < 1:
        raise ValueError("modulus must be >= 1")
    if N == 1:
        return (2, 1)  # 2 cos(pi) = -2; Phi_2 = z + 1 has odd degree
    phi = cyclotomic(2 * N)
    d = len(phi) // 2
    psi = (phi[d],)
    for k in range(1, d + 1):
        psi = poly_add(psi, tuple(phi[d + k] * c for c in chebyshev_like(k)))
    return psi


# -- the field ------------------------------------------------------------


class CosField(namedtuple("CosField", "modulus psi")):
    """Q(2 cos(pi/N)) presented as Q[x] / Psi_N: the modulus N and the
    integer coefficient tuple of Psi_N."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.psi) - 1

    def scalar(self, coeffs) -> "ExactScalar":
        c = tuple(map(_rational, coeffs))
        if len(c) >= len(self.psi):
            _, c = poly_divmod_monic(c, self.psi)
        c = c + (0,) * (self.degree - len(c))
        return ExactScalar(self, c)

    @property
    def zero(self) -> "ExactScalar":
        return self.scalar(())

    @property
    def one(self) -> "ExactScalar":
        return self.scalar((1,))

    @property
    def generator(self) -> "ExactScalar":
        """theta = 2 cos(pi/N)."""
        return self.scalar((0, 1))

    def two_cos(self, m) -> "ExactScalar":
        """2 cos(pi/m) for a label m: finite m must divide the modulus;
        m = 2 gives 0; the infinite label gives 2 (= 2 cos 0)."""
        if isinstance(m, float) and math.isinf(m):
            return self.scalar((2,))
        if m == 2:
            return self.zero
        if m < 2 or self.modulus % m:
            raise ValueError(f"label {m} does not divide modulus {self.modulus}")
        return self.scalar(chebyshev_like(self.modulus // m))


def _rational(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


@functools.cache
def field_for_modulus(N: int) -> CosField:
    return CosField(N, minimal_polynomial(N))


def _floor_shift(man: int, exp: int) -> int:
    """floor(man * 2^exp), exactly."""
    return man << exp if exp >= 0 else man >> -exp


@functools.cache
def _power_bounds(N: int, p: int) -> tuple:
    """Integers (lo_k, hi_k) with lo_k <= 2^p theta^k <= hi_k for k < d.

    The powers are enclosed by mpmath.iv with d + 32 guard bits (theta^k <
    2^k), and each endpoint (sign, mantissa, exponent) converts exactly:
    never through a float or the 53-bit ``mp`` context.  mpmath is imported
    here, on the first sign that needs an enclosure."""
    from mpmath import iv

    d = field_for_modulus(N).degree
    old = iv.prec
    try:
        iv.prec = p + d + 32
        theta = 2 * iv.cos(iv.pi / N)
        power = iv.mpf(1)
        out = []
        for _ in range(d):
            (sa, ma, ea, _), (sb, mb, eb, _) = power._mpi_
            lo = _floor_shift(-ma if sa else ma, ea + p)
            hi = -_floor_shift(mb if sb else -mb, eb + p)
            out.append((lo, hi))
            power = power * theta
    finally:
        iv.prec = old
    return tuple(out)


class ExactScalar(namedtuple("ExactScalar", "field coeffs")):
    """An element of a CosField: its fixed-length coefficient tuple (ints,
    or Fractions where a caller passed non-integral rationals).  Scalars
    are not ordered by their fields; ``sign`` compares with zero."""

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = None

    def _check(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar((other,))
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return ExactScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return ExactScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        prod = poly_mul(self.coeffs, o.coeffs)
        if len(prod) >= len(self.field.psi):
            _, prod = poly_divmod_monic(prod, self.field.psi)
        prod = prod + (0,) * (self.field.degree - len(prod))
        return ExactScalar(self.field, prod)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def sign(self) -> int:
        """-1, 0 or +1; exact zero test first, then integer enclosures."""
        nonzero = [c for c in self.coeffs if c]
        if not nonzero:
            return 0
        if len(nonzero) == 1 and self.coeffs[0]:
            return 1 if self.coeffs[0] > 0 else -1  # rational fast path
        coeffs = self.coeffs
        if any(type(c) is not int for c in nonzero):
            den = math.lcm(*(c.denominator for c in nonzero))
            coeffs = [int(c * den) for c in coeffs]
        N = self.field.modulus
        p = 64
        while p <= (1 << 16):
            lo = hi = 0
            for c, (a, b) in zip(coeffs, _power_bounds(N, p)):
                if c > 0:
                    lo += c * a
                    hi += c * b
                elif c:
                    lo += c * b
                    hi += c * a
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            p *= 2
        raise RuntimeError("sign undecided at maximum precision (nonzero scalar)")

    def __repr__(self):
        return f"ExactScalar(N={self.field.modulus}, {list(self.coeffs)})"
