"""The table route to cochain values, kept as the reference for the
divisor sum of hb.discriminant.series_eval: every nonzero coefficient
P1*(a, y) over the support a in prod_i A_{<= n_i - 2}, each factored
for its divisor sum, and the value sum c psi(a.x) over them."""

from hb.algebra import psi_sum
from hb.discriminant import p_delta_coefficient
from hb.fourier import table_support


def coefficient_table(field, yexps, r, level):
    """The nonzero (P1*(a, y), a) pairs over the support at y =
    diag(T^{n_i})."""
    coeffs = ((p_delta_coefficient(a, yexps, r, level), a)
              for a in table_support(field, yexps))
    return tuple((c, a) for c, a in coeffs if c)


def series_eval_by_table(xvec, yexps, r, field, level=None):
    """sum c psi(a.x) over coefficient_table, (a.x)[pi^1] = sum_i sum_j
    a_ij x_i[pi^{j+1}] paired from the digits of x; the cyclotomic parts
    must cancel."""
    table = coefficient_table(field, tuple(yexps), r, level)
    digits = [x.pi_coeffs(1, n) for x, n in zip(xvec, yexps)]

    def pairing(avec):
        v = 0
        for a, d in zip(avec, digits):
            v = field.dot(a.coeffs, d, v)
        return v
    total = psi_sum(((c, pairing(a)) for c, a in table), field)
    rat = total.rational()
    assert rat is not None, f"non-rational cochain value {total}"
    return rat
