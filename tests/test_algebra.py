"""Cyclotomic rationals, the additive character, and divisor sums."""

import itertools
from fractions import Fraction

import pytest

import hb.algebra
from hb.algebra import (CycRat, PoleError, divisor_degrees, psi0, psi_sum,
                        sigma)
from hb.fields import get_field
from hb.poly import Poly, is_irreducible, parse_poly, vec_content

F2 = get_field(2)
F3 = get_field(3)


def test_psi0_character_sum_vanishes():
    # [TRIVIAL] sum over F_p of psi_0 is zero for p = 2, 3, 5
    for p in (2, 3, 5):
        total = CycRat.zero(p, p)
        for x in range(p):
            total = total + psi0(p, x)
        assert total.is_zero()


def test_psi0_is_multiplicative_in_the_exponent():
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                assert psi0(p, a) * psi0(p, b) == psi0(p, a + b)


def test_cycrat_denominator_normalization():
    x = CycRat.from_rational(2, 2, Fraction(6, 4))
    assert x.den == 2 and x.num == (3,)
    with pytest.raises(ValueError):
        CycRat.from_rational(2, 2, Fraction(1, 3))


def test_from_rational_shares_instances():
    # from_rational memoizes: equal rationals give one immutable CycRat,
    # which arithmetic that reads it leaves as it was
    x = CycRat.from_rational(3, 9, Fraction(-5, 3))
    assert CycRat.from_rational(3, 9, Fraction(-10, 6)) is x
    assert CycRat.from_rational(3, 3, Fraction(-5, 3)) is not x
    assert (x.num, x.den) == ((-15, 0), 9)
    for y in (x + x, x * x, -x, x - 1, 1 - x, x * Fraction(1, 3),
              x + psi0(3, 1, 9)):
        assert isinstance(y, CycRat)
    assert (x.num, x.den) == ((-15, 0), 9)
    assert CycRat.from_rational(3, 9, 2) is CycRat.from_rational(3, 9, Fraction(2))


def test_cycrat_equality_across_denominators():
    # regression: values equal as rationals must compare equal even
    # when stored over different q-power denominators
    a = CycRat(3, 3, (3, 6), 3)
    b = CycRat(3, 3, (9, 18), 9)
    assert a == b
    assert CycRat.from_rational(2, 2, Fraction(1, 2)) != \
        CycRat.from_rational(2, 2, Fraction(1, 4))


def test_cycrat_zeta_relation():
    # 1 + zeta + zeta^2 = 0 for p = 3
    p = 3
    total = psi0(p, 0) + psi0(p, 1) + psi0(p, 2)
    assert total.is_zero()
    assert (psi0(p, 1) * psi0(p, 2)).rational() == 1


def test_psi_sum_rotates_buckets_with_no_product(monkeypatch):
    # zeta^t b is b's coordinates shifted by t: one CycRat is built, none
    # is multiplied, and psi0 is not called; rational and CycRat buckets
    # mix, over denominators q^0..q^2 at p = 5 (q = 25, Tr codes 0..4)
    want = CycRat.zero(5, 25)
    terms = []
    for t, c in enumerate((Fraction(3, 25), CycRat(5, 25, (1, -2, 0, 4), 625),
                           2, Fraction(-7, 5), CycRat(5, 25, (0, 0, 1, 1)))):
        want = want + psi0(5, t, 25) * c
        terms.append((c, next(a for a in range(25)
                              if get_field(25).traces()[a] == t)))

    def untouchable(*args):
        raise AssertionError("psi_sum must rotate, not multiply")
    monkeypatch.setattr(CycRat, "__mul__", untouchable)
    monkeypatch.setattr(CycRat, "__rmul__", untouchable)
    monkeypatch.setattr(hb.algebra, "psi0", untouchable)
    assert psi_sum(terms, get_field(25)) == want


def test_psi_sum_refuses_a_rational_outside_z_1_q():
    with pytest.raises(ValueError, match="not supported by powers of 2"):
        psi_sum([(Fraction(1, 6), 0)], F2)
    # 1/2 lies in Z[1/4]: it is stored over 4
    value = psi_sum([(Fraction(1, 2), 0)], get_field(4))
    assert (value.num, value.den) == ((2,), 4)


def test_sigma_values():
    t = parse_poly(F2, "T")
    # [TRIVIAL] sigma(s, T) = 1 + 2^s
    assert sigma(1, (t,)) == 3
    assert sigma(2, (t,)) == 5
    # [DERIVED] sigma(1, T^2+T) = 1 + 2 + 2 + 4 = 9 over F_2
    assert sigma(1, (parse_poly(F2, "T^2+T"),)) == 9
    assert sigma(0, (Poly.one(F2),)) == 1


def test_sigma_at_zero_vector():
    z = (Poly.zero(F2),)
    assert sigma(1, z) == Fraction(1, 1 - 4)
    with pytest.raises(PoleError):
        sigma(-1, z)


def test_sigma_restricted_drops_multiples():
    t = parse_poly(F2, "T")
    a = parse_poly(F2, "T^2+T")
    # divisors of T^2+T: 1, T, T+1, T^2+T; those not divisible by T
    # contribute 1 + 2^s
    assert sigma(1, (a,), t) == 3
    assert sigma(1, (parse_poly(F2, "T+1"),), t) == 3


def test_sigma_restricted_at_zero():
    t = parse_poly(F3, "T")
    z = (Poly.zero(F3),)
    assert sigma(1, z, t) == (1 - 3) * sigma(1, z)


def _brute_divisor_degrees(avec, level=None):
    """Count, by degree, every monic c of degree <= the largest entry
    degree that divides each entry and is not divisible by the level."""
    field = avec[0].field
    top = max(int(a.deg) for a in avec if not a.is_zero())
    counts = {}
    for d in range(top + 1):
        for cs in itertools.product(range(field.q), repeat=d):
            c = Poly(field, cs + (1,))
            if all(c.divides(a) for a in avec) \
                    and not (level is not None and level.divides(c)):
                counts[d] = counts.get(d, 0) + 1
    return counts


@pytest.mark.parametrize("q", [2, 3, 4])
def test_divisor_degrees_match_brute_force(q):
    field = get_field(q)
    P = lambda text: parse_poly(field, text)
    zero = Poly.zero(field)
    vectors = [(P("1"),), (P("T^3"),), (P("T^3+T^2"),),
               (P("T^2+T"), P("T^3+T")), (zero, P("T^4+T^2")),
               (P("T^2") * P("T+1") * P("T+1"), zero, P("T^3+T^2"))]
    # levels that divide some contents, one that divides none (no
    # content has an irreducible factor of degree 3), and each content
    nondivisor = next(_irreducibles_of_degree(field, 3))
    for avec in vectors:
        content = vec_content(avec)
        for level in (None, P("T"), P("T+1"), nondivisor, content):
            got = divisor_degrees(avec, level)
            assert got == _brute_divisor_degrees(avec, level), (avec, level)
    for level in (None, P("T")):
        assert divisor_degrees((zero, zero), level) is None
    # the level equal to the content removes the content alone
    assert divisor_degrees((P("T^2+T"),), P("T^2+T")) == {0: 1, 1: 2}
    assert divisor_degrees((P("1"),), P("1")) == {}
    with pytest.raises(ValueError):
        divisor_degrees((P("T"),), zero)


def _irreducibles_of_degree(field, d):
    for cs in itertools.product(range(field.q), repeat=d):
        f = Poly(field, cs + (1,))
        if is_irreducible(f):
            yield f
