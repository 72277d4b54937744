"""Two references for the divisor sum of hb.discriminant.series_eval.

The table route takes every nonzero coefficient P1*(a, y) over the
support a in prod_i A_{<= n_i - 2}, each factored for its divisor sum,
and sums c psi(a.x) over them.  The enumeration route sums by divisor,
as series_eval does, but counts the d of each degree whose character
is trivial by listing them (q^k of degree k) instead of by rank."""

import itertools

from hb.algebra import psi_sum
from hb.discriminant import _series_plan, p_delta_coefficient
from hb.fourier import table_support


def _dot(field, a, b, acc=0):
    """acc + sum a_k b_k over two code sequences, cut to the shorter."""
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


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
            v = _dot(field, a.coeffs, d, v)
        return v
    total = psi_sum(((c, pairing(a)) for c, a in table), field)
    rat = total.rational()
    assert rat is not None, f"non-rational cochain value {total}"
    return rat


def _monic(field, k):
    """Coefficient tuples, constant term first, of the monic polynomials
    of degree k."""
    return (low + (1,) for low in itertools.product(range(field.q), repeat=k))


def series_eval_by_enumeration(xvec, yexps, r, field, level=None):
    """series_eval with each count of its divisor sum made by listing:
    the monic d of degree k, less the multiples n e, whose pairings with
    every nonzero window of the digits of x vanish."""
    base, scale, terms = _series_plan(field, tuple(yexps), r, level)
    digits = [x.pi_coeffs(1, n) for x, n in zip(xvec, yexps)]

    def trivial(ds, rows):
        return sum(1 for d in ds if not any(_dot(field, d, w) for w in rows))
    total = 0
    for k, deg_e, weight, size, count in terms:
        rows = [w for w in (ds[j:j + k + 1] for ds in digits
                            for j in range(len(ds) - k)) if any(w)]
        hits = count
        if rows:
            hits = trivial(_monic(field, k), rows)
            if deg_e >= 0:
                hits -= trivial((field.conv(level.coeffs, e)
                                 for e in _monic(field, deg_e)), rows)
        total += weight * (size * hits - count)
    return base + scale * total
