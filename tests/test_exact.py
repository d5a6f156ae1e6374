import doctest
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import iv

import coxmon.exact
from coxmon import INFINITY
from coxmon.exact import (
    _power_bounds,
    chebyshev_like,
    cyclotomic,
    field_for_modulus,
    minimal_polynomial,
    poly_add,
    poly_divmod_monic,
    poly_mul,
)


def totient(n: int) -> int:
    """Euler's phi, counted directly."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_doctests():
    results = doctest.testmod(coxmon.exact)
    assert results.failed == 0 and results.attempted > 0
    # the examples of the cached functions are found through their wrappers
    found = {t.name for t in doctest.DocTestFinder().find(coxmon.exact) if t.examples}
    assert {"coxmon.exact.cyclotomic", "coxmon.exact.minimal_polynomial"} <= found


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 61):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        assert prod == (-1,) + (0,) * (n - 1) + (1,), n
        assert len(cyclotomic(n)) - 1 == totient(n), n


def test_minimal_polynomial_divides_chebyshev():
    # 2 cos(pi/N) is a root of p_N + 2, since p_N(2 cos t) = 2 cos(N t)
    for N in range(1, 121):
        rem = poly_divmod_monic(poly_add(chebyshev_like(N), (2,)), minimal_polynomial(N))[1]
        assert rem == (), N


# minimal polynomials of 2 cos(pi/N) for small N, from the classical tables
KNOWN_PSI = {
    1: (2, 1),  # 2 cos(pi) = -2
    2: (0, 1),
    3: (-1, 1),
    4: (-2, 0, 1),  # sqrt 2
    5: (-1, -1, 1),  # golden ratio
    6: (-3, 0, 1),  # sqrt 3
    12: (1, 0, -4, 0, 1),  # sqrt(2 + sqrt 3): x^4 - 4x^2 + 1
}


def test_minimal_polynomials_match_tables():
    for N, psi in KNOWN_PSI.items():
        assert minimal_polynomial(N) == psi, N


def test_minimal_polynomial_degrees():
    for N in range(1, 40):
        psi = minimal_polynomial(N)
        want = 1 if N == 1 else totient(2 * N) // 2
        assert len(psi) - 1 == want, N
        assert psi[-1] == 1  # monic


def test_minimal_polynomial_has_the_right_root():
    # numerically: Psi_N(2 cos(pi/N)) = 0 to high precision, and Psi_N does
    # not vanish at 2 cos(pi/N') for other N' <= N (it is *the* minimal one)
    with mpmath.workprec(200):
        for N in (5, 7, 9, 12, 15, 30):
            psi = minimal_polynomial(N)
            theta = 2 * mpmath.cos(mpmath.pi / N)
            val = mpmath.polyval(list(reversed(psi)), theta)
            assert abs(val) < mpmath.mpf(2) ** -120, N


def test_chebyshev_angle_doubling():
    # p_k(2 cos t) = 2 cos(k t); test via p_j(p_k) = p_{jk} as polynomials
    def compose(outer, inner):
        acc = (Fraction(0),)
        power = (Fraction(1),)
        for c in outer:
            acc = tuple(
                Fraction(a) + Fraction(c) * Fraction(p)
                for a, p in zip(
                    acc + (Fraction(0),) * max(0, len(power) - len(acc)),
                    power + (Fraction(0),) * max(0, len(acc) - len(power)),
                )
            )
            power = poly_mul(power, inner)
        return tuple(acc)

    lhs = compose(chebyshev_like(3), chebyshev_like(4))
    rhs = chebyshev_like(12)
    assert [Fraction(c) for c in rhs] == list(lhs)


def test_field_construction():
    f = field_for_modulus(12)
    assert f.degree == 4
    assert f.zero.is_zero()
    assert not f.one.is_zero()
    assert f.two_cos(2).is_zero()
    assert f.two_cos(INFINITY) == f.scalar((2,))
    with pytest.raises(ValueError):
        f.two_cos(5)  # 5 does not divide 12


def test_reduction_modulo_psi():
    f = field_for_modulus(7)
    assert f.scalar(minimal_polynomial(7)).is_zero()
    # theta^degree reduces to lower-degree coefficients
    theta = f.generator
    power = f.one
    for _ in range(10):
        power = power * theta
    assert len(power.coeffs) == f.degree


def test_golden_ratio_identity():
    # 2 cos(pi/5) satisfies x^2 = x + 1
    f = field_for_modulus(5)
    x = f.two_cos(5)
    assert (x * x - x - f.one).is_zero()
    assert x.sign() == 1


def test_product_to_sum_identity():
    # 2cos(a) 2cos(b) = 2cos(a+b) + 2cos(a-b) with a = b = pi/12
    f = field_for_modulus(12)
    x = f.two_cos(12)
    assert (x * x - f.two_cos(6) - f.scalar((2,))).is_zero()


def test_two_cos_is_increasing_in_the_label():
    f = field_for_modulus(60)
    labels = [2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60, INFINITY]
    values = [f.two_cos(m) for m in labels]
    for small, large in zip(values, values[1:]):
        assert (large - small).sign() == 1


def test_sign_of_a_tiny_difference():
    # 2 cos(pi/60) = 1.99725906... sits just below 1.99726; the sign test
    # must refine past the first interval evaluation to see that (the
    # difference is taken times 100000, to keep integer coefficients)
    f = field_for_modulus(60)
    x = 100000 * f.two_cos(60) - 199726
    assert x.sign() == -1
    assert (-x).sign() == 1


def _numeric(x):
    """Independent numeric evaluation of an exact scalar."""
    with mpmath.workprec(200):
        theta = 2 * mpmath.cos(mpmath.pi / x.field.modulus)
        return mpmath.polyval([mpmath.mpf(c) for c in reversed(x.coeffs)], theta)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def scalars(draw, modulus=12):
    # small rationals times the lcm of their denominators: integer
    # coefficients, with the signs those rationals give
    f = field_for_modulus(modulus)
    coeffs = draw(st.lists(small_fracs, min_size=0, max_size=f.degree))
    den = math.lcm(*(c.denominator for c in coeffs))
    return f.scalar([int(c * den) for c in coeffs])


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == a.field.zero


@given(scalars())
def test_sign_against_numeric(a):
    num = _numeric(a)
    if a.is_zero():
        assert abs(num) < mpmath.mpf(2) ** -100
        assert a.sign() == 0
    else:
        assert abs(num) > mpmath.mpf(2) ** -100
        assert a.sign() == (1 if num > 0 else -1)


@given(scalars(), scalars())
def test_arithmetic_against_numeric(a, b):
    with mpmath.workprec(200):
        eps = mpmath.mpf(2) ** -80
        assert abs(_numeric(a + b) - (_numeric(a) + _numeric(b))) < eps
        assert abs(_numeric(a * b) - (_numeric(a) * _numeric(b))) < eps


# -- sign enclosures ------------------------------------------------------


def _run_python(code):
    """Run ``python -c code`` in a fresh process that imports this tree."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_power_bounds_are_built_on_demand():
    # importing the package fills no enclosure table
    code = "import coxmon.exact as e; print(e._power_bounds.cache_info().currsize)"
    out = _run_python("import coxmon; " + code)
    assert (out.returncode, out.stdout.strip()) == (0, "0")


def test_power_bounds_enclose_the_powers():
    # lo_k <= 2^p theta^k <= hi_k against mpmath values 3000 bits wider
    # than p, with the endpoints at most one apart; N = 4 has the smallest
    # isolation gap, and p = 8192 starts Newton from p = 4096, 2048, ...
    cases = [(N, p) for N in (4, 5, 6, 7, 12, 30, 60, 120) for p in (64, 128, 1024)]
    for N, p in cases + [(7, 2048), (7, 8192)]:
        with mpmath.workprec(3000 + p):
            theta = 2 * mpmath.cos(mpmath.pi / N)
            bounds = _power_bounds(N, p)
            assert len(bounds) == field_for_modulus(N).degree
            for k, (lo, hi) in enumerate(bounds):
                assert type(lo) is int and type(hi) is int
                assert lo <= mpmath.ldexp(theta ** k, p) <= hi, (N, p, k)
                assert 0 <= hi - lo <= 1, (N, p, k)


def test_power_bounds_refuse_an_unchecked_bracket(monkeypatch):
    # each end of the exact check refuses a bracket that misses theta
    # (N = 5: theta = 1.618..., L = 1.605...; N = 12: L = 1.931...)
    real = coxmon.exact._scaled_value
    with monkeypatch.context() as m:  # Newton from 1.61, below theta, stops
        m.setattr(coxmon.exact, "_power_bounds", lambda N, p: ((0, 0), (0, (161 << p) // 100)))
        with pytest.raises(RuntimeError, match="not isolated"):
            _power_bounds.__wrapped__(5, 128)
    with monkeypatch.context() as m:  # Psi_5' inflated: Newton stays at 2
        m.setattr(coxmon.exact, "_scaled_value",
                  lambda c, x, q: real(c, x, q) << 2 * q if len(c) == 2 else real(c, x, q))
        with pytest.raises(RuntimeError, match="not isolated"):
            _power_bounds.__wrapped__(5, 64)
    with monkeypatch.context() as m:  # a largest root (1.618...) below L
        m.setattr(coxmon.exact, "minimal_polynomial", lambda N: (-1, -1, 1))
        with pytest.raises(RuntimeError, match="not isolated"):
            _power_bounds.__wrapped__(12, 64)


def _interval_sign(x):
    """Second route: Horner evaluation in mpmath intervals at doubling
    precision, straight from the integer coefficients."""
    if x.is_zero():
        return 0
    old = iv.prec
    try:
        for prec in (64 << k for k in range(11)):
            iv.prec = prec
            theta = 2 * iv.cos(iv.pi / x.field.modulus)
            acc = iv.mpf(0)
            for c in reversed(x.coeffs):
                acc = acc * theta + c
            if acc > 0:
                return 1
            if acc < 0:
                return -1
    finally:
        iv.prec = old
    raise RuntimeError("interval route undecided")


@given(st.sampled_from((5, 7, 12, 30, 60)).flatmap(scalars))
def test_sign_matches_the_interval_route(a):
    assert a.sign() == _interval_sign(a)


def _near_zero_differences():
    """2 cos(pi/m) minus its best rational approximations a/b, both signs,
    taken times b: from 40 digits on, the differences lie far below b 2^-64
    and force the sign test past its first precision."""
    out = []
    for N, m in ((60, 60), (30, 30), (12, 12), (7, 7), (60, 20)):
        f = field_for_modulus(N)
        with mpmath.workprec(400):
            value = 2 * mpmath.cos(mpmath.pi / m)
            for digits in (6, 20, 40, 60):
                q = Fraction(mpmath.nstr(value, digits + 10)).limit_denominator(10 ** digits)
                d = q.denominator * f.two_cos(m) - q.numerator
                if digits >= 40:
                    assert abs(_numeric(d)) < mpmath.mpf(2) ** -64 * q.denominator
                out += [d, -d]
    return out


def test_sign_of_near_zero_differences():
    for y in _near_zero_differences():
        assert y.sign() == _interval_sign(y) != 0, y


def test_signs_and_cli_run_without_mpmath(tmp_path):
    # with mpmath blocked before coxmon is imported, a non-spherical check
    # that reads non-rational signs decides as usual, with no traceback,
    # and the near-zero signs agree with the interval route
    cases = _near_zero_differences()
    graph = tmp_path / "g.graph"
    graph.write_text("edge 1 2 5\nedge 2 3 inf\n")
    code = f"""
import contextlib, io, json, sys
sys.modules["mpmath"] = None
from coxmon.cli import main
from coxmon.exact import field_for_modulus
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["check-partition", {str(graph)!r}, "1,3/2", "--bound", "10", "--json"])
print(code, json.loads(out.getvalue())["verdict"]["outcome"])
cases = {[(y.field.modulus, y.coeffs) for y in cases]!r}
print([field_for_modulus(N).scalar(c).sign() for N, c in cases])
"""
    proc = _run_python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split("\n")[:2] == [
        "2 unknown", str([_interval_sign(y) for y in cases])]


def test_integer_coefficients_are_ints():
    f = field_for_modulus(12)
    assert [type(c) for c in f.scalar((2, 3, True)).coeffs] == [int] * 4
    x = f.two_cos(12) * f.two_cos(4) + f.generator
    assert all(type(c) is int for c in x.coeffs)
    # scalars lie in Z[theta]: anything but an integer is refused, as a
    # coefficient and as an operand, even a rational that is integral
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, "1"):
        with pytest.raises(TypeError, match="coefficients must be integers"):
            f.scalar((bad,))
        for op in (lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x,
                   lambda: x * bad, lambda: bad * x):
            with pytest.raises(TypeError):
                op()


def test_a_tuple_on_the_left_of_a_scalar_is_refused():
    # a scalar is a tuple record, so (1,) + x asks x's __radd__ first;
    # returning NotImplemented there would let tuple concatenation take x,
    # and __rsub__ must not negate x - (1,), which names the operands the
    # wrong way round
    f = field_for_modulus(12)
    x = f.generator
    for op, sign in ((lambda: (1,) + x, "+"), (lambda: () + x, "+"),
                     (lambda: (1,) - x, "-")):
        with pytest.raises(TypeError, match=f"for {re.escape(sign)}: 'tuple' and 'ExactScalar'"):
            op()
    assert 0 + x == x
    assert 3 - x == f.scalar((3, -1))
    assert sum([x, x, x]) == 3 * x
