"""Exact arithmetic in the rings Z[2 cos(pi/N)].

Every finite edge label m that occurs in a Coxeter graph contributes the
real number 2 cos(pi/m) to the entries of the reflection representation.
All those numbers live in Q(theta) with theta = 2 cos(pi/N), N the lcm of
the finite labels, because 2 cos(k pi / N) = p_k(theta) where p_k is the
integer polynomial p_k(x) = 2 T_k(x/2) (Chebyshev):

    p_0 = 2,  p_1 = x,  p_{k+1} = x p_k - p_{k-1}.

A scalar is a polynomial in theta with integer coefficients, reduced mod
the minimal polynomial Psi_N of theta, of degree d = phi(2N)/2 (N >= 2).
Every entry of the reflection representation lies in Z[theta]: Psi_N is
monic over Z and 2 cos(pi/m) = p_{N/m}(theta), so reduction mod Psi_N keeps
the coefficients plain ints.  Other coefficients are refused.
A sum of products, such as an entry of a matrix product, is summed as
unreduced integer polynomials and reduced once (``CosField.dot``), so it
costs one reduction and one scalar, not one per product.
Psi_N is built exactly from the cyclotomic polynomial Phi_2N of
z = e^(i pi/N): Phi_2N(z) = z^d Psi_N(z + 1/z) (Watkins-Zeitlin 1993), and
z^k + z^-k = p_k(z + 1/z), so the upper half of the coefficients of Phi_2N
gives Psi_N in the basis p_k.  No numerics, nothing left to certify.

Zero testing is exact (reduced coefficients all zero).  The *sign* of a
nonzero scalar is read off integer enclosures at doubling precision p: a
cached table per (N, p) holds integers lo_k <= 2^p theta^k <= hi_k (k < d),
the powers of an integer bracket of theta rounded outward.  With the
coefficients c_k, the scalar times 2^p lies between the integer sums of
c_k lo_k and c_k hi_k; when both sums have one sign, that is the sign.
The exact zero test guarantees termination.  The bracket is found by
integer Newton steps on Psi_N from above theta, then checked exactly.
Psi_N has the real roots 2 cos(k pi/N), k odd and prime to N: theta (k = 1)
and others <= 2 cos(3 pi/N).  For N >= 4 and x = pi/N, L = 2 - (pi_hi/N)^2
with pi_hi = 3.14159266 > pi lies between: 2 cos x >= 2 - x^2 > L, and
2 cos 3x <= 2 - 9x^2 + 27x^4/4 < L as x <= pi/4.  So L < a < b with
Psi_N(a) < 0 < Psi_N(b) brackets theta.  Newton stays above theta, where a
real-rooted polynomial is increasing and convex; integer steps rounded
toward the start keep it there.

Polynomials here are tuples of coefficients, lowest degree first, trimmed.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple


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
    """Z[2 cos(pi/N)] as Z[x] / Psi_N, its scalars with integer coefficients:
    the modulus N and the integer coefficient tuple of Psi_N."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.psi) - 1

    def scalar(self, coeffs) -> "ExactScalar":
        try:
            c = tuple(map(operator.index, coeffs))
        except TypeError:
            raise TypeError("scalar coefficients must be integers") from None
        if len(c) >= len(self.psi):
            _, c = poly_divmod_monic(c, self.psi)
        c = c + (0,) * (self.degree - len(c))
        return ExactScalar(self, c)

    def dot(self, pairs) -> "ExactScalar":
        """The sum of x * y over pairs of coefficient tuples, as a scalar.

        The products are summed as unreduced polynomials, and the sum is
        reduced mod Psi_N once: from the top, each coefficient c of x^k,
        k >= d, is removed by subtracting c x^(k-d) Psi_N."""
        psi = self.psi
        d = len(psi) - 1
        acc = [0] * (2 * d - 1)
        for x, y in pairs:
            i = 0
            for xi in x:
                if xi:
                    k = i
                    for yj in y:
                        acc[k] += xi * yj
                        k += 1
                i += 1
        for top in range(2 * d - 2, d - 1, -1):
            c = acc[top]
            if c:
                k = top - d
                for p in psi[:d]:  # the x^top term itself is dropped below
                    acc[k] -= c * p
                    k += 1
        return ExactScalar(self, tuple(acc[:d]))

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


@functools.cache
def field_for_modulus(N: int) -> CosField:
    return CosField(N, minimal_polynomial(N))


def _scaled_value(poly, x: int, q: int) -> int:
    """2^(q deg) poly(x / 2^q), exactly (homogeneous Horner)."""
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * x + c * scale
        scale <<= q
    return acc


@functools.cache
def _power_bounds(N: int, p: int) -> tuple:
    """Integers (lo_k, hi_k) with lo_k <= 2^p theta^k <= hi_k for k < d.

    The bracket is (x - 1) / 2^q < theta < x / 2^q with q = p + 2d + 32:
    that of theta^k is under 4^k units of 2^-q wide.  Newton starts at 2,
    or for p > 64 at the upper bound of theta at precision p // 2."""
    psi = minimal_polynomial(N)
    d = len(psi) - 1
    q = p + 2 * d + 32
    out, lo, hi = [(1 << p, 1 << p)], 1 << q, 1 << q
    if d > 1:
        x = _power_bounds(N, p // 2)[1][1] << (q - p // 2) if p > 64 else 2 << q
        dpsi = [k * c for k, c in enumerate(psi)][1:]
        while (step := _scaled_value(psi, x, q) // _scaled_value(dpsi, x, q)) > 0:
            x -= step
        # L < (x - 1) / 2^q with both sides times 10^16 N^2 2^q, then the signs
        if not ((2 * 10 ** 16 * N * N - 314159266 ** 2) << q < (x - 1) * 10 ** 16 * N * N
                and _scaled_value(psi, x - 1, q) < 0 < _scaled_value(psi, x, q)):
            raise RuntimeError(f"theta = 2 cos(pi/{N}) not isolated at {q} bits")
    for _ in range(d - 1):
        lo, hi = lo * (x - 1) >> q, -(-hi * x >> q)
        out.append((lo >> (q - p), -(-hi >> (q - p))))
    return tuple(out)


class ExactScalar(namedtuple("ExactScalar", "field coeffs")):
    """An element of a CosField: its fixed-length tuple of int coefficients.
    Scalars are not ordered by their fields; ``sign`` compares with zero."""

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = None

    # coefficient tuples are built from lists: a tuple built from a
    # generator is over-allocated and then shrunk by realloc, outside the
    # tuple free lists, which raises the peak memory of long scans

    def _check(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("scalars from different fields")
            return other
        return self.field.scalar((other,)) if isinstance(other, int) else NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return ExactScalar(self.field, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.field, tuple([-a for a in self.coeffs]))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return ExactScalar(self.field, tuple([a - b for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self.field.dot(((self.coeffs, o.coeffs),))

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
            return 1 if self.coeffs[0] > 0 else -1  # a constant
        N = self.field.modulus
        p = 64
        while p <= (1 << 16):
            lo = hi = 0
            for c, (a, b) in zip(self.coeffs, _power_bounds(N, p)):
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
