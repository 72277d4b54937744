"""Property tests of the exact arithmetic: the FF field axioms, the FF
sequence kernel against schoolbook loops, Poly division
and xgcd, the RatF field laws and the RatF fast paths (units, T-power
operands, pi-expansions read off T-power values) against the general route, the
CycRat ring laws, the trace-bucketed character sum psi_sum and the
divisor-sum series_eval each against a per-term sum, the soundness of Laurent precision windows against exact
RatF expansions, and the Laurent constructor against its earlier
version."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hb.poly
from hb.algebra import CycRat, psi0, psi_sum
import hb.building
from hb.building import clear_denominators, ratf_trunc_below
from hb.discriminant import p_delta_coefficient, series_eval
from hb.fields import FF, get_field
from hb.fourier import table_support
from hb.laurent import Laurent, PrecisionError
from hb.poly import (Poly, RatF, parse_poly, poly_gcd, poly_xgcd,
                     ratf_from_pairs, vec_content)
from series_reference import series_eval_by_table

QS = (2, 3, 4, 5, 7, 8, 9)
MAX_DEG = 4


@st.composite
def polys(draw, field, max_deg=MAX_DEG, nonzero=False):
    cs = draw(st.lists(st.integers(0, field.q - 1), max_size=max_deg + 1))
    p = Poly(field, cs)
    if nonzero and p.is_zero():
        p = Poly.const(field, draw(st.integers(1, field.q - 1)))
    return p


@st.composite
def ratfs(draw, field, nonzero=False):
    return RatF(draw(polys(field, nonzero=nonzero)),
                draw(polys(field, nonzero=True)))


fields = st.sampled_from(QS).map(get_field)


@st.composite
def poly_pairs(draw):
    F = draw(fields)
    return draw(polys(F)), draw(polys(F, nonzero=True))


@st.composite
def ratf_triples(draw):
    F = draw(fields)
    return draw(ratfs(F)), draw(ratfs(F)), draw(ratfs(F, nonzero=True))


@st.composite
def element_triples(draw):
    F = draw(fields)
    x, y, z = (draw(st.integers(0, F.q - 1)) for _ in range(3))
    return F, x, y, z


@given(element_triples())
def test_field_axioms(args):
    F, x, y, z = args
    add, mul = F.add, F.mul
    assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, 0) == x and mul(x, 1) == x and mul(x, 0) == 0
    assert add(x, F.neg(x)) == 0
    assert F.sub(x, y) == add(x, F.neg(y))
    if x:
        assert mul(x, F.inv(x)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(x)


@st.composite
def sequences(draw):
    F = draw(fields)
    seq = st.lists(st.integers(0, F.q - 1), max_size=8)
    den = [draw(st.integers(1, F.q - 1))] + draw(seq)
    return (F, draw(seq), draw(seq), den, draw(st.integers(0, 4)),
            draw(st.none() | st.integers(-1, 12)))


def schoolbook(F, a, b, shift):
    """a + x^shift * b and a * b, one field operation at a time."""
    total = list(a) + [0] * max(0, shift + len(b) - len(a))
    for i, c in enumerate(b):
        total[shift + i] = F.add(total[shift + i], c)
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return total, prod


@given(sequences())
def test_kernel_matches_schoolbook(args):
    F, a, b, den, shift, n = args
    total, prod = schoolbook(F, a, b, shift)
    cut = len(total) if n is None else max(n, 0)
    assert F.add_at(a, b, shift, n) == total[:cut]
    cut = len(prod) if n is None else max(n, 0)
    assert F.conv(a, b, n) == prod[:cut]
    m = 10 if n is None else max(n, 0)
    quo = F.series_div(a, den, m)
    assert len(quo) == m
    assert (F.conv(quo, den, m) + [0] * m)[:m] == (list(a) + [0] * m)[:m]


# the oracle's extension fields F_{q^r} besides those in QS
LONG_QS = QS + (16, 27, 49)


@st.composite
def long_sequences(draw, F):
    """Operands long enough to cross PACK_MIN and NEWTON_MIN.  Half of
    them are all q - 1, whose F_p-digits are all p - 1, so that every
    slot of the packed product holds its largest possible sum."""
    rng = draw(st.randoms(use_true_random=False))
    top = draw(st.booleans())

    def seq(length):
        return [F.q - 1 if top else rng.randrange(F.q) for _ in range(length)]
    a, b = seq(draw(st.integers(0, 400))), seq(draw(st.integers(0, 400)))
    den = [draw(st.integers(1, F.q - 1))] + seq(draw(st.integers(0, 200)))
    return a, b, den, draw(st.none() | st.integers(-1, 800))


@pytest.mark.parametrize("q", LONG_QS)
@settings(max_examples=12)
@given(data=st.data())
def test_packed_kernel_matches_schoolbook(q, data):
    F = get_field(q)
    a, b, den, n = data.draw(long_sequences(F))
    _, prod = schoolbook(F, a, b, 0)
    cut = len(prod) if n is None else max(n, 0)
    assert F.conv(a, b, n) == prod[:cut]
    m = min(len(a) + 40, 200) if n is None else max(min(n, 200), 0)
    quo = F.series_div(a, den, m)
    assert len(quo) == m
    _, back = schoolbook(F, quo, den[:m], 0)
    assert (back + [0] * m)[:m] == (list(a) + [0] * m)[:m]


@given(poly_pairs())
def test_divmod_identity(ab):
    a, b = ab
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.deg < b.deg


@given(poly_pairs())
def test_xgcd_bezout(ab):
    a, b = ab
    g, s, t = poly_xgcd(a, b)
    assert s * a + t * b == g
    assert g.is_monic() and g.divides(a) and g.divides(b)


@given(ratf_triples())
def test_ratf_field_laws(xyz):
    x, y, z = xyz
    F = x.field
    zero, one = RatF.zero(F), RatF.one(F)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)
    assert z * (one / z) == one
    assert (x / z) * z == x


def general_reduction(num, den):
    """num/den in lowest terms with a monic denominator, by Euclid."""
    if num.is_zero():
        return num, Poly.one(num.field)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    c = num.field.inv(den.lead())
    return num.scale(c), den.scale(c)


@st.composite
def over_monomials(draw):
    """(num, c*T^k) with num nonzero and often divisible by a power of T."""
    F = draw(fields)
    zeros = draw(st.integers(0, 7))
    num = draw(polys(F, nonzero=True)).shift(zeros)
    k = draw(st.integers(0, 6))
    c = draw(st.integers(1, F.q - 1))
    return num, Poly.monomial(F, k, c)


@given(over_monomials())
def test_monomial_denominator_matches_euclid(nd):
    num, den = nd
    x = RatF(num, den)
    assert (x.num, x.den) == general_reduction(num, den)


def test_monomial_denominator_skips_euclid(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)
    monkeypatch.setattr(hb.poly, "poly_gcd", counting_gcd)
    for q in QS:
        F = get_field(q)
        for k in range(7):
            for c in range(1, q):
                RatF(Poly(F, (0, 0, 1, c)), Poly.monomial(F, k, c))
    assert calls == []
    RatF(Poly.one(F), Poly(F, (1, 1)))       # a general denominator
    assert len(calls) == 1


@st.composite
def poly_vectors(draw):
    F = draw(fields)
    return draw(st.lists(polys(F), min_size=1, max_size=5))


@given(poly_vectors())
def test_vec_content_is_the_full_gcd_fold(vec):
    g = Poly.zero(vec[0].field)
    for a in vec:
        g = poly_gcd(g, a)
    assert vec_content(vec) == g


def test_vec_content_stops_at_one(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)
    monkeypatch.setattr(hb.poly, "poly_gcd", counting_gcd)
    F = get_field(3)
    T = Poly.monomial(F, 1)
    assert vec_content((T, T + Poly.one(F), T, T)).is_one()
    assert calls == [(T, T + Poly.one(F))]   # no gcd(0, T), none after 1
    calls.clear()
    assert vec_content((Poly.zero(F), T.scale(2), Poly.zero(F))) == T
    assert calls == []


def general_add(x, y):
    return RatF(x.num * y.den + y.num * x.den, x.den * y.den)


def general_mul(x, y):
    return RatF(x.num * y.num, x.den * y.den)


@st.composite
def ratf_with_units(draw):
    F = draw(fields)
    return draw(ratfs(F)), RatF.zero(F), RatF.one(F)


@given(ratf_with_units())
def test_zero_and_one_operands_match_general_path(args):
    x, zero, one = args
    assert x + zero == general_add(x, zero) and zero + x == general_add(zero, x)
    assert x - zero == general_add(x, -zero) and zero - x == general_add(zero, -x)
    assert x * one == general_mul(x, one) and one * x == general_mul(one, x)
    assert x * zero == general_mul(x, zero) and zero * x == general_mul(zero, x)


TPOW_QS = (2, 3, 4, 5)


@st.composite
def t_power_ratfs(draw, field):
    """num/T^k as the constructor reduces it, k = 0 included, numerators
    often with low-order zeros."""
    num = draw(polys(field)).shift(draw(st.integers(0, 3)))
    return RatF(num, Poly.monomial(field, draw(st.integers(0, 4))))


@st.composite
def t_power_operands(draw):
    """(x, y): x over a T-power; y over a T-power, a Laurent monomial
    c T^e / T^k, -x or x (so that x + y or x - y cancels to zero), -x
    plus a short numerator over x's denominator (so the top terms
    cancel), or over a general denominator."""
    F = get_field(draw(st.sampled_from(TPOW_QS)))
    x = draw(t_power_ratfs(F))
    kind = draw(st.sampled_from(("t-power", "monomial", "negation", "copy",
                                 "partial", "general")))
    if kind == "t-power":
        y = draw(t_power_ratfs(F))
    elif kind == "monomial":
        y = RatF(Poly.monomial(F, draw(st.integers(0, 3)),
                               draw(st.integers(1, F.q - 1))),
                 Poly.monomial(F, draw(st.integers(0, 3))))
    elif kind == "negation":
        y = RatF(x.num.scale(F.neg(1)), x.den)
    elif kind == "copy":
        y = RatF(x.num, x.den)
    elif kind == "partial":
        y = RatF(x.num.scale(F.neg(1)) + draw(polys(F, max_deg=1)), x.den)
    else:
        y = draw(ratfs(F))
    return x, y


def is_reduced(z):
    return z.den.is_monic() and (z.num.is_zero()
                                 or poly_gcd(z.num, z.den).is_one())


@given(t_power_operands())
def test_t_power_operands_match_general_path(xy):
    x, y = xy
    for a, b in ((x, y), (y, x)):
        cases = [(a + b, a.num * b.den + b.num * a.den, a.den * b.den),
                 (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
                 (a * b, a.num * b.num, a.den * b.den)]
        if not b.is_zero():
            cases.append((a / b, a.num * b.den, a.den * b.num))
        for z, num, den in cases:
            assert (z.num, z.den) == general_reduction(num, den)
            assert is_reduced(z)


def pi_coeffs_by_series_div(x, lo, hi):
    """The pi-expansion coefficients lo..hi-1 of x by long division of
    the reversed numerator and denominator."""
    if x.is_zero():
        return [0] * (hi - lo)
    v = int(x.ord_inf())
    need = hi - v
    if need <= 0:
        return [0] * (hi - lo)
    series = x.field.series_div(x.num.coeffs[::-1], x.den.coeffs[::-1], need)
    return series[lo - v:] if lo >= v else [0] * (v - lo) + series


def trunc_by_series_div(x, bound):
    """(num, den) of the terms c pi^e, e < bound, of x, summed as Polys
    over T^max(bound, 0) and reduced by Euclid."""
    F = x.field
    if x.is_zero():
        return x.num, x.den
    lo = int(x.ord_inf())
    cs = pi_coeffs_by_series_div(x, lo, bound) if lo < bound else []
    shift = max(bound, 0)
    num = Poly.zero(F)
    for i, c in enumerate(cs):
        num = num + Poly.monomial(F, shift - lo - i, c)
    return general_reduction(num, Poly.monomial(F, shift))


@given(st.sampled_from(TPOW_QS).flatmap(
           lambda q: t_power_ratfs(get_field(q))),
       st.integers(-6, 4), st.integers(0, 8), st.integers(-6, 6))
def test_t_power_expansion_matches_series_div(x, lo, width, bound):
    assert x.pi_coeffs(lo, lo + width) == pi_coeffs_by_series_div(
        x, lo, lo + width)
    assert x.pi_coeff(lo) == pi_coeffs_by_series_div(x, lo, lo + 1)[0]
    z = ratf_trunc_below(x, bound)
    assert (z.num, z.den) == trunc_by_series_div(x, bound)


def test_t_power_operands_skip_euclid(monkeypatch):
    # no gcd, and no Poly product (of denominators or otherwise): the
    # numerators meet in FF.conv or FF.add_at
    calls, products = [], []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    def counting_mul(a, b, _mul=Poly.__mul__):
        products.append((a, b))
        return _mul(a, b)

    def no_series_div(*args):
        raise AssertionError("a T-power value is read off, not divided")
    fields = [get_field(q) for q in TPOW_QS]     # built with Poly products
    monkeypatch.setattr(hb.poly, "poly_gcd", counting_gcd)
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(FF, "series_div", no_series_div)
    for F in fields:
        xs = [RatF(Poly(F, cs), Poly.monomial(F, k))
              for cs in ((1,), (0, 1), (1, 0, F.neg(1)), (0, 0, 1, 1))
              for k in range(4)]
        monomials = [x for x in xs if x.num.coeffs.count(0) == x.num.deg]
        for x in xs:
            for y in xs:
                x + y, x - y, x * y
            for y in monomials:
                x / y
            x.pi_coeffs(-3, 5), x.pi_coeff(2), ratf_trunc_below(x, 1)
    assert calls == [] and products == []
    RatF.one(F) / RatF(Poly(F, (1, 1)))      # a general denominator
    assert len(calls) == 1 and len(products) == 2


def clear_by_euclid(g):
    """(M, d) of clear_denominators with the lcm of the denominators
    formed by Euclid, whatever they are."""
    d = Poly.one(g[0][0].field)
    for row in g:
        for x in row:
            if not (d % x.den).is_zero():
                d = (d * x.den) // poly_gcd(d, x.den)
    return [tuple(x.num * (d // x.den) for x in row) for row in g], d


@st.composite
def t_power_matrices(draw):
    """1x1 to 3x3 matrices of num/T^k entries (zeros and k = 0 included),
    one entry sometimes over a general denominator."""
    F = get_field(draw(st.sampled_from(TPOW_QS)))
    n = draw(st.integers(1, 3))
    g = [[draw(t_power_ratfs(F)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        g[draw(st.integers(0, n - 1))][0] = draw(ratfs(F))
    return tuple(tuple(row) for row in g)


@given(t_power_matrices())
def test_clear_denominators_matches_euclid(g):
    M, d = clear_denominators(g)
    assert (M, d) == clear_by_euclid(g)
    assert d.is_monic()
    assert all(RatF(m, d) == x for mrow, row in zip(M, g)
               for m, x in zip(mrow, row))


def test_t_power_denominators_clear_without_euclid(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append("gcd")
        return poly_gcd(a, b)

    def counting_divmod(a, b, _divmod=Poly.__divmod__):
        calls.append("divmod")
        return _divmod(a, b)
    monkeypatch.setattr(hb.building, "poly_gcd", counting_gcd)
    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    for q in TPOW_QS:
        F = get_field(q)
        xs = [RatF(Poly(F, cs), Poly.monomial(F, k))
              for cs in ((), (1,), (0, 1), (1, 0, F.neg(1)))
              for k in range(4)]
        for i in range(0, len(xs) - 3, 2):
            M, d = clear_denominators(((xs[i], xs[i + 1]),
                                       (xs[i + 2], xs[i + 3])))
            assert d.is_monic() and d.coeffs.count(0) == d.deg
    assert calls == []
    # a general denominator still goes through Euclid
    clear_denominators(((RatF.one(F), RatF(Poly.one(F), Poly(F, (1, 1)))),))
    assert "gcd" in calls and "divmod" in calls


@st.composite
def cycrat_triples(draw):
    q = draw(st.sampled_from(QS))
    p = get_field(q).p
    coords = st.lists(st.integers(-20, 20), min_size=p - 1, max_size=p - 1)
    return tuple(CycRat(p, q, draw(coords), q ** draw(st.integers(0, 3)))
                 for _ in range(3))


@given(cycrat_triples())
def test_cycrat_ring_laws(xyz):
    x, y, z = xyz
    zero, one = CycRat.zero(x.p, x.q), CycRat.one(x.p, x.q)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and (x * zero).is_zero()
    assert (x + (-x)).is_zero() and x - y == x + (-y)


@st.composite
def psi_terms(draw):
    """A field of q in {2, 3, 4, 5, 7, 9, 25} and (c, x) pairs: c a
    Fraction or a CycRat over a q-power denominator, x an exact rational
    function.  p runs to 7, so the rotation and the reduction mod Phi_p
    see 1, 2, 4 and 6 coordinates."""
    F = get_field(draw(st.sampled_from((2, 3, 4, 5, 7, 9, 25))))
    p, q = F.p, F.q
    rationals = st.builds(lambda n, k: Fraction(n, q ** k),
                          st.integers(-20, 20), st.integers(0, 3))
    cycrats = st.builds(lambda cs, k: CycRat(p, q, cs, q ** k),
                        st.lists(st.integers(-20, 20), min_size=p - 1,
                                 max_size=p - 1), st.integers(0, 3))
    terms = draw(st.lists(st.tuples(st.one_of(rationals, cycrats), ratfs(F)),
                          max_size=12))
    return F, terms


@given(psi_terms())
def test_psi_sum_matches_per_term_sum(args):
    F, terms = args
    want = CycRat.zero(F.p, F.q)
    for c, x in terms:
        want = want + psi0(F.p, F.trace_to_prime(x.pi_coeff(1)), F.q) * c
    assert psi_sum(((c, x.pi_coeff(1)) for c, x in terms), F) == want


LEVELS = (None, "T", "T+1", "T^2+T+1")


@st.composite
def series_points(draw):
    """(field, y, r, level, x): q in {2, 3, 4}, r in {2, 3}, a level of
    LEVELS, exponents n_i in -1..3, and each x_i a pi-series
    sum c_k pi^k (k >= 1) or a sum with pi^k down to k = -2, of negative
    valuation when such a term is nonzero."""
    F = get_field(draw(st.sampled_from((2, 3, 4))))
    r = draw(st.sampled_from((2, 3)))
    text = draw(st.sampled_from(LEVELS))
    level = None if text is None else parse_poly(F, text)
    yexps = tuple(draw(st.lists(st.integers(-1, 3), min_size=r - 1,
                                max_size=r - 1)))
    lowest = draw(st.sampled_from((1, -2)))
    x = tuple(ratf_from_pairs(F, draw(st.lists(
                  st.tuples(st.integers(lowest, 4),
                            st.integers(0, F.q - 1)), max_size=4)))
              for _ in range(r - 1))
    return F, yexps, r, level, x


@given(series_points())
def test_series_eval_matches_per_term_sum(args):
    F, yexps, r, level, x = args
    want = CycRat.zero(F.p, F.q)
    for a in table_support(F, yexps):
        c = p_delta_coefficient(a, yexps, r, level)
        ax = RatF.zero(F)
        for ai, xi in zip(a, x):
            ax = ax + RatF(ai) * xi
        want = want + psi0(F.p, F.trace_to_prime(ax.pi_coeff(1)), F.q) * c
    assert want.rational() is not None
    assert series_eval(x, yexps, r, F, level) == want.rational()
    # and so does the table route that other tests take as the reference
    assert series_eval_by_table(x, yexps, r, F, level) == want.rational()


def window(x, prec):
    """The exact expansion of x cut to the precision window pi^prec."""
    F = x.field
    if x.is_zero():
        return Laurent.zero(F, prec)
    v = x.ord_inf()
    return Laurent(F, v, x.pi_coeffs(v, max(v, prec)), prec)


def assert_certified(z, exact):
    """Every coefficient z certifies is the exact one, from the lower of
    the two valuations up to z's precision bound."""
    assert z.prec is not None
    lo = z.val if z.coeffs else z.prec
    if not exact.is_zero():
        lo = min(lo, exact.ord_inf())
    assert exact.pi_coeffs(lo, z.prec) == [z.coeff(k) for k in range(lo, z.prec)]


precs = st.integers(-MAX_DEG, 3 * MAX_DEG)


@st.composite
def windowed_pairs(draw):
    F = draw(fields)
    return draw(ratfs(F)), draw(precs), draw(ratfs(F)), draw(precs)


@given(windowed_pairs())
def test_laurent_add_sub_are_sound(args):
    x, px, y, py = args
    assert_certified(window(x, px) + window(y, py), x + y)
    assert_certified(window(x, px) - window(y, py), x - y)


@given(windowed_pairs())
def test_laurent_mul_is_sound(args):
    x, px, y, py = args
    assert_certified(window(x, px) * window(y, py), x * y)


@given(windowed_pairs())
def test_laurent_inverse_is_sound(args):
    x, px, _, _ = args
    w = window(x, px)
    assume(not w.known_zero())
    assert_certified(w.inverse(), RatF.one(x.field) / x)


@st.composite
def cut_below_ord(draw):
    F = draw(fields)
    x = draw(ratfs(F, nonzero=True))
    return x, x.ord_inf() - draw(st.integers(0, MAX_DEG))


@given(cut_below_ord())
def test_laurent_inverse_of_uncertified_zero_raises(args):
    x, prec = args
    w = window(x, prec)
    assert w.known_zero()
    with pytest.raises(PrecisionError):
        w.inverse()


@st.composite
def powered(draw):
    F = draw(fields)
    x = draw(ratfs(F))
    e = draw(st.integers(0, 2 if F.p <= 3 else 1))
    return x, draw(precs), e


@given(powered())
def test_q_power_is_the_coefficientwise_pow(args):
    x, px, e = args
    F, k = x.field, x.field.p ** e
    w = window(x, px)
    y = w.q_power(e)
    spread = [0] * (k * len(w.coeffs))
    spread[::k] = [F.pow(c, k) for c in w.coeffs]
    assert y == Laurent(F, k * w.val, spread,
                        None if w.prec is None else k * w.prec)
    assert F.frobenius(e) == [F.pow(c, k) for c in F.elements()]


@given(powered())
def test_laurent_q_power_is_sound(args):
    x, px, e = args
    k = x.field.p ** e
    exact = RatF(x.num.pow(k), x.den.pow(k))
    assert_certified(window(x, px).q_power(e), exact)


def reference_laurent_init(val, coeffs, prec):
    """The Laurent constructor's normalization as it was written before
    the single-pass version: strip leading zeros one at a time, then cut
    at prec and strip trailing zeros.  Returns (val, coeffs, prec)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        val += 1
    if prec is None:
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    else:
        if val + len(coeffs) > prec:
            coeffs = coeffs[:max(prec - val, 0)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec
    if not coeffs and prec is None:
        val = 0
    return val, tuple(coeffs), prec


@st.composite
def raw_series(draw):
    """(field, val, coeffs, prec) with runs of leading and trailing zeros
    and prec None, below val, inside the coefficients or past them."""
    F = draw(fields)
    val = draw(st.integers(-6, 6))
    body = draw(st.lists(st.integers(0, F.q - 1), max_size=8))
    coeffs = ([0] * draw(st.integers(0, 4)) + body
              + [0] * draw(st.integers(0, 4)))
    if draw(st.booleans()):
        coeffs = tuple(coeffs)
    prec = draw(st.one_of(st.none(),
                          st.integers(val - 4, val + len(coeffs) + 4)))
    return F, val, coeffs, prec


@given(raw_series())
def test_laurent_init_matches_reference(args):
    F, val, coeffs, prec = args
    x = Laurent(F, val, coeffs, prec)
    assert (x.val, x.coeffs, x.prec) == reference_laurent_init(val, coeffs,
                                                               prec)
    assert type(x.coeffs) is tuple
    assert x.coeffs == () or (x.coeffs[0] and x.coeffs[-1])


def test_laurent_init_edge_cases():
    F = get_field(3)
    zero = Laurent(F, 5, [0, 0, 0])
    assert (zero.val, zero.coeffs, zero.prec) == (0, (), None)
    zero = Laurent(F, 5, [0, 0, 0], 9)
    assert (zero.val, zero.coeffs, zero.prec) == (9, (), 9)
    # prec is an absolute exponent: pi^3 and beyond are cut, even after
    # leading zeros move val up
    x = Laurent(F, -1, [0, 0, 1, 2, 1, 2], 3)
    assert (x.val, x.coeffs, x.prec) == (1, (1, 2), 3)
    x = Laurent(F, 0, [0, 0, 0, 1], 2)
    assert (x.val, x.coeffs, x.prec) == (2, (), 2)
