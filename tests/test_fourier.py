"""Fourier engine: m-values, grids, coefficient/expansion round trips."""

from fractions import Fraction

from hb.algebra import CycRat
from hb.fields import get_field
from hb.fourier import (FourierTable, PPoint, build_table, expand,
                        fourier_coefficient, mval, poly_key, polys_up_to,
                        table_support, u_grid)
from hb.poly import Poly, RatF, parse_poly

F2 = get_field(2)
F3 = get_field(3)


def test_mval_zero_vector_is_infinite():
    z = (Poly.zero(F2),)
    assert mval(z, (3,)) == float("inf")


def test_mval_drops_with_degree():
    t = parse_poly(F2, "T")
    one = Poly.one(F2)
    # [TRIVIAL] m(a, y) = min(n_i - deg a_i)
    assert mval((one,), (3,)) == 3
    assert mval((t,), (3,)) == 2
    assert mval((one, t), (3, 3)) == 2


def test_polys_up_to_counts():
    assert len(polys_up_to(F2, 2)) == 8      # 0 plus degrees 0..2
    assert len(polys_up_to(F3, 1)) == 9
    assert polys_up_to(F2, -1) == [Poly.zero(F2)]


def test_support_is_degree_window():
    sup = table_support(F2, (3,))
    keys = {poly_key(a) for a in sup}
    assert len(keys) == len(sup) == 4        # deg <= 1 over F_2
    assert poly_key((Poly.zero(F2),)) in keys


def test_equal_keys_share_one_tuple():
    # a-vectors built apart give one shared key tuple, so tables over
    # one support hold their keys once
    a = (parse_poly(F3, "T+2"), Poly.one(F3))
    b = (Poly(F3, [2, 1]), Poly(F3, [1]))
    assert a is not b and poly_key(a) is poly_key(b)
    assert poly_key(a) == ((2, 1), (1,))
    assert poly_key((Poly(F3, [1, 1]), Poly.one(F3))) != poly_key(a)


def test_u_grid_size():
    # representatives of (pi O / pi^m O): q^{m-1} of them
    assert len(list(u_grid(F2, 3, 1))) == 4
    assert len(list(u_grid(F3, 2, 1))) == 3
    assert len(list(u_grid(F2, 3, 2))) == 16


def test_round_trip_single_table():
    yexps = (2,)
    support = table_support(F2, yexps)
    entries = {}
    for i, a in enumerate(support):
        entries[poly_key(a)] = CycRat.from_rational(
            2, 2, Fraction(i - 3, 2 ** (i % 3)))
    tbl = FourierTable(F2, yexps, entries)
    h = lambda u, _y: expand(tbl, u)
    for avec in support:
        got = fourier_coefficient(h, avec, yexps, F2)
        assert got == entries[poly_key(avec)]


def test_round_trip_rank_three():
    yexps = (2, 2)
    support = table_support(F3, yexps)
    entries = {poly_key(a): CycRat.from_rational(3, 3, Fraction(j - 2, 3))
               for j, a in enumerate(support)}
    tbl = FourierTable(F3, yexps, entries)
    h = lambda u, _y: expand(tbl, u)
    for avec in support:
        assert fourier_coefficient(h, avec, yexps, F3) \
            == entries[poly_key(avec)]


def test_build_table_reproduces_band_limited_function():
    yexps = (3,)
    support = table_support(F2, yexps)
    entries = {poly_key(a): CycRat.from_rational(2, 2, Fraction(j, 2))
               for j, a in enumerate(support)}
    src = FourierTable(F2, yexps, entries)
    h = lambda u, _y: expand(src, u)
    rebuilt = build_table(h, yexps, F2)
    assert rebuilt.entries == entries


def test_out_of_support_coefficient_vanishes():
    yexps = (2,)
    entries = {poly_key(a): CycRat.one(2, 2)
               for a in table_support(F2, yexps)}
    tbl = FourierTable(F2, yexps, entries)
    h = lambda u, _y: expand(tbl, u)
    t = parse_poly(F2, "T")
    assert fourier_coefficient(h, (t,), yexps, F2).is_zero()


def test_ppoint_matrix_shape():
    x = RatF.pi_power(F2, 1)
    m = PPoint((x,), (2,)).matrix(F2)
    assert m[0][0] == RatF.one(F2)
    assert m[0][1] == x * RatF.pi_power(F2, -2)
    assert m[1][0].is_zero()
    assert m[1][1] == RatF.pi_power(F2, -2)
