"""Polynomials over F_q and exact rational functions."""

import itertools
import math
import sys

import pytest

from hb.algebra import divisor_degrees
from hb.building import ratf_trunc_below
from hb.fields import FF, get_field
from hb.poly import (Poly, RatF, _monics, factor_degrees, is_irreducible,
                     parse_poly, poly_gcd, printable, vec_content)

F2 = get_field(2)
F3 = get_field(3)


def power(f, k):
    """f^k by repeated multiplication."""
    return math.prod([f] * k, start=Poly.one(f.field))


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


def _degrees_by_products(field, top):
    """{coefficients: sorted [(deg p, mult)]} for every monic of degree
    1..top, by multiplying out.  A monic that no product of the
    irreducibles before it reached is irreducible; it then multiplies,
    to every power that fits, each product of the ones before it."""
    by_deg = [{} for _ in range(top + 1)]
    by_deg[0][(1,)] = ()
    for d in range(1, top + 1):
        for g in _monics(field, d):
            if g.coeffs in by_deg[d]:
                continue
            earlier = [(k, list(by_deg[k].items())) for k in range(top - d + 1)]
            for k, items in earlier:
                for coeffs, degrees in items:
                    power = Poly(field, coeffs)
                    for m in range(1, (top - k) // d + 1):
                        power = power * g
                        by_deg[k + m * d][power.coeffs] = \
                            tuple(sorted(degrees + ((d, m),)))
    return {c: list(v) for level in by_deg[1:] for c, v in level.items()}


# q = 4 stops at degree 7: its 65,536 monics of degree 8 add about 15 s
@pytest.mark.parametrize("q, top", [(2, 8), (3, 8), (4, 7)])
def test_factor_degrees_on_every_small_monic(q, top):
    # squarefree decomposition and distinct-degree factorization against
    # the factorizations listed by multiplying out irreducibles
    field = get_field(q)
    want = _degrees_by_products(field, top)
    assert len(want) == sum(q ** d for d in range(1, top + 1))
    for coeffs, degrees in want.items():
        f = Poly(field, coeffs)
        assert factor_degrees(f) == degrees, f
        if len(coeffs) <= 6:
            assert is_irreducible(f) == (degrees == [(len(coeffs) - 1, 1)])
    f = Poly(field, (1, 0, 1, 1))
    assert factor_degrees(f.scale(q - 1)) == factor_degrees(f)


@pytest.mark.parametrize("q, factors, degrees", [
    (2, [("T^37+T+1", 1)], [(18, 1), (19, 1)]),
    (2, [("T^127+T+1", 1)], [(127, 1)]),
    (2, [("T^400+T+1", 1)], [(7, 1), (86, 1), (132, 1), (175, 1)]),
    # p-th powers: the derivative vanishes on the part they make up
    (2, [("T^3+T+1", 4), ("T^2+T+1", 3), ("T", 2)], [(1, 2), (2, 3), (3, 4)]),
    (3, [("T^2+1", 3), ("T+1", 6), ("T^3+2*T+1", 1)], [(1, 6), (2, 3), (3, 1)]),
])
def test_factor_degrees_of_long_and_repeated_factors(q, factors, degrees):
    field = get_field(q)
    f = Poly.one(field)
    for text, k in factors:
        f = f * power(parse_poly(field, text), k)
    assert factor_degrees(f) == degrees


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
    # zero(), one() and pi_power() hand out one instance per field (and
    # exponent); arithmetic that reads them, or returns one of them as its
    # result, leaves it as it was
    F = get_field(q)
    assert Poly.zero(F) is Poly.zero(F) and Poly.one(F) is Poly.one(F)
    assert RatF.zero(F) is RatF.zero(F) and RatF.one(F) is RatF.one(F)
    exps = (-2, 0, 1, 3)
    assert all(RatF.pi_power(F, k) is RatF.pi_power(F, k) for k in exps)

    def state():
        return (Poly.zero(F).coeffs, Poly.one(F).coeffs,
                RatF.zero(F).num.coeffs, RatF.zero(F).den.coeffs,
                RatF.one(F).num.coeffs, RatF.one(F).den.coeffs,
                tuple((RatF.pi_power(F, k).num.coeffs,
                       RatF.pi_power(F, k).den.coeffs) for k in exps))
    pi_state = (((0, 0, 1), (1,)), ((1,), (1,)), ((1,), (0, 1)),
                ((1,), (0, 0, 0, 1)))
    assert state() == ((), (1,), (), (1,), (1,), (1,), pi_state)
    p0, p1, r0, r1 = Poly.zero(F), Poly.one(F), RatF.zero(F), RatF.one(F)
    x = parse_poly(F, "T^2+T+1")
    rx = RatF(x, parse_poly(F, "T+1"))
    for y in (p0 + x, x + p0, p1 + x, p0 - x, p1 - x, -p0, -p1, p1 * x,
              p0 * x, x // p1, x % p1, power(p1, 3), p1.scale(F.neg(1)),
              p1.shift(2), p0.shift(2), p1.monic()):
        assert isinstance(y, Poly)
    for y in (r0 + rx, rx + r0, r1 + rx, r0 - rx, rx - r0, r1 - rx, -r0,
              -r1, r1 * rx, rx * r1, r0 * rx, r1 / rx, rx / r1,
              RatF(p1, x), RatF(x, p1), RatF(p0, x)):
        assert isinstance(y, RatF)
    pis = [RatF.pi_power(F, k) for k in exps]
    for a in pis:
        for b in pis + [r0, r1, rx]:
            for y in (a + b, b + a, a - b, b - a, a * b, b * a, -a, b / a,
                      ratf_trunc_below(a, 1), ratf_trunc_below(a + b, 0)):
                assert isinstance(y, RatF)
    assert state() == ((), (1,), (), (1,), (1,), (1,), pi_state)
    # a field built again equals the shared one and hashes equal, so the
    # memos keyed by fields serve it too
    G = FF(F.p, F.n)
    assert G == F and hash(G) == hash(F)
    assert RatF.pi_power(G, 3) == RatF.pi_power(F, 3)
    assert hash(RatF.pi_power(G, 3)) == hash(RatF.pi_power(F, 3))


def test_printable_follows_the_digit_limit():
    # 2^2127 has 641 digits: printable at the default limit of 4300, not
    # at 640; the bound is cached per limit, so a change between two
    # calls is honoured
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert printable(2, 2127) and printable(2, 2126)
        sys.set_int_max_str_digits(640)
        assert not printable(2, 2127) and printable(2, 2126)
        sys.set_int_max_str_digits(4300)
        assert printable(2, 2127)
    finally:
        sys.set_int_max_str_digits(limit)
