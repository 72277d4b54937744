"""Truncated Laurent series: window semantics and arithmetic."""

import pytest

from hb.fields import FF, get_field
from hb.laurent import Laurent, PrecisionError

F2 = get_field(2)
F4 = FF(2, 2)


def test_exact_ord_and_absvalue():
    x = Laurent.pi_power(F2, -3)
    assert x.ord() == -3


def test_uncertified_zero_raises():
    a = Laurent(F2, 0, [1, 1], 2)
    b = Laurent(F2, 0, [1, 1], 2)
    d = a - b
    assert not d.is_certified_zero()
    with pytest.raises(PrecisionError):
        d.ord()


def test_add_window_is_min():
    a = Laurent(F2, 0, [1, 0, 1], 3)
    b = Laurent(F2, 1, [1], 2)
    c = a + b
    assert c.prec == 2
    assert c.coeff(0) == 1 and c.coeff(1) == 1


def test_mul_inverse_round_trip():
    x = Laurent.from_pairs(F4, [(-2, 1), (0, 2), (1, 3)])
    inv = x.inverse(30)
    prod = x * inv
    assert prod.ord() == 0
    for k in range(1, 20):
        assert prod.coeff(k) == 0


def test_q_power_is_frobenius_on_series():
    x = Laurent.from_pairs(F4, [(1, 2), (3, 3)])
    y = x.q_power(1)
    # (sum c_k pi^k)^q = sum c_k^q pi^{qk} in characteristic p = q
    assert y.ord() == 2
    assert y.coeff(2) == F4.mul(2, 2)
    assert y.coeff(6) == F4.mul(3, 3)
    assert y.coeff(3) == 0 and y.coeff(4) == 0


def test_scale_and_shift():
    x = Laurent.from_pairs(F4, [(0, 1), (2, 2)])
    assert x.scale(3).coeff(2) == F4.mul(3, 2)
    assert x.shift(5).ord() == 5


def test_division():
    x = Laurent.pi_power(F2, 4)
    y = Laurent.pi_power(F2, 1)
    assert (x * y.inverse()).ord() == 3


def test_exact_inverse_needs_a_width():
    # an exact monomial inverts exactly; any other exact series has an
    # infinite inverse, which no default width may cut short silently
    x = Laurent.from_pairs(F2, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match="width"):
        x.inverse()
    assert x.inverse(5).prec == 5
    assert Laurent.pi_power(F2, 2).inverse().is_exact()
