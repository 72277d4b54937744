"""Polynomials over F_q and exact rational functions."""

import itertools
import math

import pytest

from hb.algebra import divisor_degrees
from hb.fields import get_field
from hb.poly import (Poly, RatF, factor_monic, is_irreducible, parse_poly,
                     poly_gcd, vec_content)

F2 = get_field(2)
F3 = get_field(3)


def test_parse_round_trip():
    for s in ("0", "1", "T", "T+1", "T^2+T+1", "T^3+T^2+2"):
        field = F3 if "2" in s.split("+")[-1] else F2
        p = parse_poly(field, s)
        assert parse_poly(field, str(p)) == p


def test_division_with_remainder():
    a = parse_poly(F3, "T^4+2*T^2+1")
    b = parse_poly(F3, "T^2+1")
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.deg < b.deg or r.is_zero()


def monic_irreducibles(field, max_deg):
    """All monic irreducibles of degree <= max_deg, by degree."""
    monics = (Poly(field, cs + (1,)) for d in range(1, max_deg + 1)
              for cs in itertools.product(range(field.q), repeat=d))
    return [f for f in monics if is_irreducible(f)]


def test_irreducibles_count():
    # [TRIVIAL] number of monic irreducibles of degree d over F_q:
    # d=1: q, d=2: (q^2-q)/2, d=3: (q^3-q)/3
    for q, field in ((2, F2), (3, F3)):
        by_deg = {}
        for p in monic_irreducibles(field, 3):
            by_deg.setdefault(int(p.deg), []).append(p)
        assert len(by_deg[1]) == q
        assert len(by_deg[2]) == (q * q - q) // 2
        assert len(by_deg[3]) == (q ** 3 - q) // 3


def test_factor_monic_reassembles():
    n = parse_poly(F2, "T^2+T") * parse_poly(F2, "T^2+T+1")
    prod = Poly.one(F2)
    for p, m in factor_monic(n):
        assert is_irreducible(p)
        for _ in range(m):
            prod = prod * p
    assert prod == n


def test_monic_divisor_count():
    n = parse_poly(F2, "T") * parse_poly(F2, "T") * parse_poly(F2, "T+1")
    # [TRIVIAL] tau(T^2 (T+1)) = 3 * 2
    assert sum(divisor_degrees((n,)).values()) == 6


def test_gcd_and_content():
    a = parse_poly(F2, "T^2+T")
    b = parse_poly(F2, "T^2+1")   # (T+1)^2 over F_2
    assert str(poly_gcd(a, b)) == "T+1"
    assert vec_content((a, Poly.zero(F2))) == a


def test_ratf_field_ops():
    x = RatF.pi_power(F2, 2)          # 1/T^2
    y = RatF(parse_poly(F2, "T+1"))
    assert (x * y) / y == x
    assert x + y - y == x
    assert (x / x) == RatF.one(F2)


def test_ratf_ord_and_absvalue():
    assert RatF.pi_power(F3, 5).ord_inf() == 5
    assert RatF(parse_poly(F3, "T^2+1")).ord_inf() == -2
    assert RatF.zero(F3).ord_inf() == math.inf


def test_pi_coeffs_geometric_series():
    # 1/(T-1) = pi + pi^2 + pi^3 + ... in F_2((pi))
    x = RatF.one(F2) / RatF(parse_poly(F2, "T+1"))
    assert x.pi_coeffs(0, 5) == [0, 1, 1, 1, 1]


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatF(Poly.one(F2), Poly.zero(F2))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_shared_constants_survive_arithmetic(q):
    # zero() and one() hand out one instance per field; arithmetic that
    # reads them, or returns one of them as its result, leaves it as it was
    F = get_field(q)
    assert Poly.zero(F) is Poly.zero(F) and Poly.one(F) is Poly.one(F)
    assert RatF.zero(F) is RatF.zero(F) and RatF.one(F) is RatF.one(F)

    def state():
        return (Poly.zero(F).coeffs, Poly.one(F).coeffs,
                RatF.zero(F).num.coeffs, RatF.zero(F).den.coeffs,
                RatF.one(F).num.coeffs, RatF.one(F).den.coeffs)
    assert state() == ((), (1,), (), (1,), (1,), (1,))
    p0, p1, r0, r1 = Poly.zero(F), Poly.one(F), RatF.zero(F), RatF.one(F)
    x = parse_poly(F, "T^2+T+1")
    rx = RatF(x, parse_poly(F, "T+1"))
    for y in (p0 + x, x + p0, p1 + x, p0 - x, p1 - x, -p0, -p1, p1 * x,
              p0 * x, x // p1, x % p1, p1.pow(3), p1.scale(F.neg(1)),
              p1.shift(2), p0.shift(2), p1.monic()):
        assert isinstance(y, Poly)
    for y in (r0 + rx, rx + r0, r1 + rx, r0 - rx, rx - r0, r1 - rx, -r0,
              -r1, r1 * rx, rx * r1, r0 * rx, r1 / rx, rx / r1,
              RatF(p1, x), RatF(x, p1), RatF(p0, x)):
        assert isinstance(y, RatF)
    assert state() == ((), (1,), (), (1,), (1,), (1,))
