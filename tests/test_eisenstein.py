"""Eisenstein series in X = q^{-s} and the limit-formula chain."""

import random
from fractions import Fraction

import pytest

from hb.eisenstein import (QX, LogDeltaAffine, ZeroCoefficient, _pdivmod,
                           _trim,
                           eisenstein_at, eisenstein_diagonal,
                           eisenstein_fourier, eisenstein_truncated_sum,
                           identity_check_thm56, log_delta_fourier)
from hb.fields import get_field
from hb.poly import Poly, parse_poly

F2 = get_field(2)


def test_identity_point_value():
    # [PAPER] E_2(I, s=2) = 64/15 at q = 2
    assert eisenstein_at((0, 0), 2, 2) == Fraction(64, 15)


def _poly_at(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def _assert_rational_coefficients(f):
    assert isinstance(f, QX)
    assert f.den[-1] == 1                       # monic denominator
    assert all(isinstance(c, Fraction) for c in f.num + f.den)


def test_diagonal_rational_function_poles():
    f = eisenstein_diagonal((0, 0), 2)
    _assert_rational_coefficients(f)
    # poles only at X^2 = 1 and (2X)^2 = 1, i.e. s = 0 and s = 1; the
    # reduced numerator does not cancel any of them
    for root in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
        assert _poly_at(f.den, Fraction(root)) == 0
        assert _poly_at(f.num, Fraction(root)) != 0
    assert len(f.den) == 5                      # no other pole


def test_s0_that_is_not_an_integer():
    # 2*s0 = 3 is integral, so the value is exact: E_2(I, 3/2) = 48/7
    assert eisenstein_at((0, 0), 2, Fraction(3, 2)) == Fraction(48, 7)
    with pytest.raises(ValueError):
        eisenstein_at((0, 0), 2, Fraction(5, 4))


# (0, 2300): X^2300 in the denominator, a long run of zero coefficients
@pytest.mark.parametrize("nvec", [(0, 0), (1, -1), (2, 0), (1, -2, 0),
                                  (-1, 0, 2), (0, 0, 0), (0, 2300)])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("s0", [2, 3])
def test_rational_function_agrees_with_point_value(nvec, q, s0):
    f = eisenstein_diagonal(nvec, q)
    assert f(Fraction(q) ** -s0) == eisenstein_at(nvec, q, s0)


def test_qx_arithmetic():
    x = QX.monomial(1)
    assert QX.monomial(-2) * QX.monomial(2) == 1
    assert (1 - x * x) / (1 - x) == 1 + x
    assert (x + Fraction(1, 2)) - Fraction(1, 2) == x
    assert 2 / (2 * x) == QX.monomial(-1)
    assert -x + x == 0 and QX(()) == 0
    f = QX((2, 4), (6, 0, 2))                   # (2 + 4X)/(6 + 2X^2)
    assert (f.num, f.den) == ((1, 2), (3, 0, 1))
    assert f(Fraction(1, 2)) == Fraction(2, Fraction(13, 4))
    assert str(f) == "(2*X**1 + 1)/(X**2 + 3)"
    assert str(QX((0, -1, Fraction(-1, 2)))) == "-1/2*X**2 - X**1"
    with pytest.raises(ZeroDivisionError):
        x / 0


def _product(a, b):
    """a b by the full convolution."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _euclid_normal_form(num, den):
    """(num, den) of num/den in lowest terms, den monic, by Euclid on the
    whole polynomials."""
    num, den = (_trim([Fraction(x) for x in p]) for p in (num, den))
    g, b = den, num
    while b:
        g, b = b, _pdivmod(g, b)[1]
    g = tuple(x * den[-1] / g[-1] for x in g)
    return _pdivmod(num, g)[0], _pdivmod(den, g)[0]


def test_qx_normal_form_is_euclids():
    # num = X^i a c and den = X^j b c, with runs of zero coefficients in
    # a, b and the common factor c: the common X^min(i, j) taken out
    # before Euclid gives plain Euclid's normal form
    rng = random.Random(2300)

    def sparse(lo, hi):
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                * (rng.random() < 0.4) for _ in range(rng.randint(lo, hi))]
    tried = 0
    while tried < 200:
        c = sparse(1, 4)
        num = [0] * rng.randint(0, 30) + sparse(0, 12)
        den = [0] * rng.randint(0, 30) + sparse(1, 12)
        num, den = _product(num, c), _product(den, c)
        if not any(den):
            continue
        tried += 1
        f = QX(num, den)
        assert (f.num, f.den) == _euclid_normal_form(num, den)


def test_value_is_invariant_under_diagonal_scaling():
    # multiplying y by T^k scales |det|^s; the normalized form keeps
    # the same value at integer s for shifted exponent vectors
    v1 = eisenstein_at((1, -1), 2, 3)
    v2 = eisenstein_at((-1, 1), 2, 3)
    assert v1 == v2


def test_truncated_sum_within_tail():
    for nvec, q, s0, N in (((0, 0), 2, 2, 4), ((1, -2), 3, 2, 6),
                           ((0, 0, 0), 2, 3, 3), ((-1, 0, 2), 2, 2, 5)):
        ts = eisenstein_truncated_sum(nvec, q, s0, N)
        v = eisenstein_at(nvec, q, s0)
        assert abs(v - ts.value) <= ts.tail_bound


def test_truncated_sum_tail_shrinks():
    t1 = eisenstein_truncated_sum((0, 0), 2, 2, 2)
    t2 = eisenstein_truncated_sum((0, 0), 2, 2, 8)
    assert t2.tail_bound < t1.tail_bound


def test_truncated_sum_rejects_divergent_point():
    with pytest.raises(ValueError):
        eisenstein_truncated_sum((0, 0), 2, 1, 4)


def test_fourier_nonzero_coefficient_is_rational_in_x():
    one = Poly.one(F2)
    c = eisenstein_fourier((one,), (2,), 2, 2)
    _assert_rational_coefficients(c)
    assert c != 0


def test_fourier_vanishes_for_small_m():
    t2 = parse_poly(F2, "T^2")
    assert eisenstein_fourier((t2,), (2,), 2, 2) == 0


def test_fourier_zero_coefficient_is_tagged():
    z = Poly.zero(F2)
    c = eisenstein_fourier((z,), (2,), 2, 2)
    assert isinstance(c, ZeroCoefficient)
    assert c.recursive.rank == 1
    _assert_rational_coefficients(c.explicit)


def test_log_delta_symbol_elimination():
    z = Poly.zero(F2)
    hi = log_delta_fourier((z,), (1,), 2, 2)
    lo = log_delta_fourier((z,), (2,), 2, 2)
    assert isinstance(hi, LogDeltaAffine) and isinstance(lo, LogDeltaAffine)
    # the symbol coefficient is shared, so differences are explicit
    assert hi.sym_coeff == lo.sym_coeff


def test_identity_chain_small_grid():
    items = identity_check_thm56(qs=(2,), rs=(2,), amax=1, nmax=3)
    assert items and all(i.ok for i in items)
