"""Property tests of the coefficient arithmetic: the FF sequence kernel
against schoolbook loops, Poly division and xgcd, the RatF field laws,
and the soundness of Laurent precision windows against exact RatF
expansions."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hb.fields import get_field
from hb.laurent import Laurent, PrecisionError
from hb.poly import Poly, RatF, poly_xgcd

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
def test_laurent_q_power_is_sound(args):
    x, px, e = args
    k = x.field.p ** e
    exact = RatF(x.num.pow(k), x.den.pow(k))
    assert_certified(window(x, px).q_power(e), exact)
