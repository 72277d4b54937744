"""Lattice-sum oracle: truncated exponential lattices and valuations.

The frozen values here are [DERIVED]: produced by this oracle and
independently matched against the closed-form Fourier series (see the
acceptance cross-check); they are stored so regressions surface as
plain equality failures.
"""

import pytest

from hb.building import mat_from_exps
from hb.discriminant import eval_on_mirabolic
from hb.fields import embedding, get_field
from hb.fourier import PPoint
from hb.laurent import Laurent
from hb.oracle import (_Filtration, act, base_points, drinfeld_coeffs,
                       exp_coefficients, extension_field, p_delta_direct,
                       p_delta_on_p_point, p_theta_direct)
from hb.poly import RatF, parse_poly

F2 = get_field(2)


def test_base_points_are_units():
    z = base_points(2, 2)
    assert len(z) == 2
    assert z[1].ord() == 0


def test_exp_coefficients_are_normalized():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 80)
    a = exp_coefficients(z, 3, 3, prec=80)
    assert a[0] == Laurent.one(big)
    assert len(a) == 4


def test_exp_coefficients_rejects_huge_lattice():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 80)
    with pytest.raises(ValueError):
        exp_coefficients(z, 50, 2)


@pytest.mark.parametrize("yexp", [1, 3])
@pytest.mark.parametrize("q, r, D", [(2, 2, 0), (2, 2, 1), (2, 2, 2),
                                     (2, 2, 3), (3, 2, 1), (3, 2, 2),
                                     (2, 3, 1), (2, 3, 2)])
def test_closed_form_valuation_matches_listed_lattice(q, r, D, yexp):
    # the adapted basis's d - sum_{k>d} (q^{#{o_i >= k}} - 1) against
    # ord(w) + sum over the listed nonzero lambda of V_t of
    # (ord(w - lambda) - ord lambda), for every prefix V_t and later w_m.
    # At y = T^3 the first coordinate's leading term is x's, an F_q
    # multiple of the last coordinate's, so the basis z_i T^j is not
    # adapted and the greedy reduction has work to do.
    field = get_field(q)
    big = extension_field(q, r)
    embed = embedding(q, big.q)
    x = RatF.pi_power(field, 1) + RatF.pi_power(field, 2)
    g = PPoint((x,) + (RatF.zero(field),) * (r - 2),
               (yexp,) * (r - 1)).matrix(field)
    z = act(g, base_points(q, r), big, embed, 60)
    basis = [z[i] * Laurent.pi_power(big, -j)
             for i in range(r) for j in range(D + 1)]
    V = _Filtration(big, q, lambda x: x)
    scalars = [0] + V.scalars
    points = [Laurent.zero(big)]          # V_t, listed
    for t in range(len(basis)):
        for w in basis[t:]:
            brute = w.ord() + sum((w - lam).ord() - lam.ord()
                                  for lam in points[1:])
            assert V.product_ord(V.reduce(w).ord()) == brute
        V.add(V.reduce(basis[t]))
        points = [lam + basis[t].scale(c) for c in scalars for lam in points]


def test_drinfeld_coeffs_shape():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 120)
    dc = drinfeld_coeffs(z, 4, 2, prec=80)
    assert len(dc.g) == 2
    assert dc.g[1].ord() is not None


def test_delta_valuation_doubles_along_apartment():
    # [DERIVED] P1(Delta_2)(diag(T^k, 1)) = -(q-1) q^{k+1} at q = 2
    for k, want in ((0, -2), (1, -4), (2, -8)):
        assert p_delta_direct(mat_from_exps(F2, (k, 0)), 2, 2, D=5) == want


def test_p_point_values():
    # [DERIVED] cross-checked against the closed-form series
    zero = RatF.zero(F2)
    assert p_delta_on_p_point((zero,), (3,), 2, 2, D=5) == 5
    assert p_delta_on_p_point((zero,), (-1,), 2, 2, D=5) == -4
    pi = RatF.pi_power(F2, 1)
    assert p_delta_on_p_point((pi,), (2,), 2, 2, D=5) == -2


def test_theta_values():
    t = parse_poly(F2, "T")
    assert p_theta_direct(t, mat_from_exps(F2, (0, 0)), 2, 2, D=5) == 2
    assert p_theta_direct(t, mat_from_exps(F2, (1, 0)), 2, 2, D=5) == 4


def test_rank_guard():
    with pytest.raises(ValueError):
        p_delta_direct(mat_from_exps(F2, (0, 0, 0, 0)), 2, 4)


def test_rank_three_mirabolic_point_matches_series():
    # operands here are long enough for the packed conv and Newton
    # series_div paths of the coefficient kernel
    pi = RatF.pi_power(F2, 1)
    g = PPoint((pi, pi), (2, 2)).matrix(F2)
    assert eval_on_mirabolic(g, 3, F2) == -2
    assert p_delta_direct(g, 2, 3, D=4) == -2
