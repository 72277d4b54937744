"""Closed-form Fourier coefficients and values of P1(Delta_r) and
P1(Theta_n).

Both families share one coefficient shape,

    h*(a, y) = (q^r - 1)(q - 1) q^{r-1} |det y|^{-1} . S(r-1, a),

with S the divisor sum sigma for Delta and sigma_n for Theta_n; the
a = 0 value is the same expression with sigma(r-1, 0) = (1 - q^r)^{-1}
and sigma_n(r-1, 0) = (1 - |n|^{r-1}) sigma(r-1, 0).  Coefficients
vanish for a != 0 with m(a, y) <= 1.  Every function here that takes
`level` computes P1(Delta_r) for level None and P1(Theta_n) for the
monic level n.  The nonzero coefficients of one (field, y, r, level)
are built once into a memoized table, which every value at that y
reads, whatever its x.

Values are finite character sums over the coefficient support;
evaluation at an arbitrary group element goes through the Iwasawa
decomposition, with a bounded search for a Gamma_0(n) translate into
the mirabolic coset when the element lies over the flipped cell.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .algebra import psi_sum, sigma
from .building import (canonical_vertex, edge_from_rep, iwasawa_decompose,
                       mat_inv, mat_mul, mat_vec, p_coordinates,
                       reduce_y_transcript, vec_mat)
from .fourier import dot, mval, over_cap, polys_up_to, table_support
from .poly import Poly, RatF, poly_xgcd, vec_content

# no coefficient table is built over a support of more a-vectors
MAX_SUPPORT = 2 ** 10


class SupportError(ValueError):
    """A coefficient support of more than MAX_SUPPORT a-vectors."""


def p_delta_coefficient(avec, yexps, r, level=None):
    """P1(Delta_r)*(a, y), or P1(Theta_level)*(a, y), for y = diag(T^{n_i})."""
    q = avec[0].field.q
    if not all(a.is_zero() for a in avec) and mval(avec, yexps) <= 1:
        return Fraction(0)
    det_inv = Fraction(q) ** (-sum(yexps))
    return (q ** r - 1) * (q - 1) * q ** (r - 1) * det_inv \
        * sigma(r - 1, avec, level)


def check_support(q, yexps):
    """Refuse a support of q^(sum max(n_i - 1, 0)) a-vectors above
    MAX_SUPPORT, before any of it is built."""
    e = sum(max(n - 1, 0) for n in yexps)
    if over_cap(q, e, MAX_SUPPORT):
        raise SupportError(f"y = {tuple(yexps)} needs a coefficient support "
                           f"of q^{e} points, more than {MAX_SUPPORT}")


# room for every y that a sweep of the harmonicity checks meets (89 in
# 40 blocks of the benchmark), and at most 128 * MAX_SUPPORT pairs
@lru_cache(maxsize=128)
def coefficient_table(field, yexps, r, level):
    """The nonzero (P1*(a, y), a) pairs over the support at y =
    diag(T^{n_i}), yexps a tuple; one table per key.  A support above
    MAX_SUPPORT raises SupportError before any of it is built."""
    check_support(field.q, yexps)
    coeffs = ((p_delta_coefficient(a, yexps, r, level), a)
              for a in table_support(field, yexps))
    return tuple((c, a) for c, a in coeffs if c)


def series_eval(xvec, yexps, r, field, level=None):
    """The finite Fourier sum of P1(Delta_r) (level None) or
    P1(Theta_level) at (x, y).  The cyclotomic parts must cancel; a
    non-rational total signals a character-convention bug."""
    table = coefficient_table(field, tuple(yexps), r, level)
    total = psi_sum(((c, dot(a, xvec)) for c, a in table), field)
    rat = total.rational()
    if rat is None:
        raise ArithmeticError(f"non-rational cochain value {total}; "
                              "psi convention broken")
    return rat


def eval_on_mirabolic(p_mat, r, field, level=None):
    """Value at an explicit element of P(F_inf): reduce the lower-right
    block y = gamma diag(T^{n_i}) kappa and transport x across gamma."""
    x, y = p_coordinates(p_mat)
    if r == 2:
        yexps = (-int(y[0][0].ord_inf()),)
        return series_eval(x, yexps, r, field, level=level)
    gamma, yexps = reduce_y_transcript(y)
    x2 = vec_mat(x, gamma)
    return series_eval(x2, yexps, r, field, level=level)


# ----------------------------------------------------------------------
# full-edge evaluation of P1(Theta_n)

class WitnessError(RuntimeError):
    pass


def _unimodular_to_e1(cvec):
    """U in GL_r(A) with U c = e1, for c of unit content."""
    field = cvec[0].field
    r = len(cvec)
    c = list(cvec)
    U = [[Poly.one(field) if i == j else Poly.zero(field) for j in range(r)]
         for i in range(r)]
    for i in range(1, r):
        if c[i].is_zero():
            continue
        if c[0].is_zero():
            c[0], c[i] = c[i], c[0]
            U[0], U[i] = U[i], U[0]
            U[i] = [Poly.zero(field) - x for x in U[i]]  # keep det = 1
            continue
        g, s, t = poly_xgcd(c[0], c[i])
        a, b = c[0] // g, c[i] // g
        row0 = [s * x + t * y for x, y in zip(U[0], U[i])]
        rowi = [a * y - b * x for x, y in zip(U[0], U[i])]
        U[0], U[i] = row0, rowi
        c[0], c[i] = g, Poly.zero(field)
    if int(c[0].deg) != 0:
        raise ValueError("column content is not a unit")
    inv = field.inv(c[0].coeffs[0])
    U[0] = [x.scale(inv) for x in U[0]]
    return tuple(tuple(RatF(x) for x in row) for row in U)


def _in_p_cell_column(g_inv, cvec):
    """Does g^{-1} c have its strict minimal valuation in coordinate 1?"""
    w = mat_vec(g_inv, tuple(RatF(x) for x in cvec))
    if w[0].is_zero():
        return False
    o0 = w[0].ord_inf()
    return all(x.is_zero() or x.ord_inf() > o0 for x in w[1:])


def find_witnesses(n, g_inv, bound=None):
    """gamma in Gamma_0(n) with gamma g in P F^x I^1, as a one-element
    list [(gamma, c)], given g^{-1}.  gamma is found through the first
    column c = gamma^{-1} e1, which must satisfy c_i = n c_i' for i >= 2
    and have unit content; the membership test is the valuation criterion
    on g^{-1} c.  Deterministic degree-bounded enumeration."""
    field = g_inv[0][0].field
    r = len(g_inv)
    if bound is None:
        bound = int(n.deg) + 2
    dn = int(n.deg)
    seen_cols = set()
    for D in range(bound + 1):
        top = polys_up_to(field, D)
        rest = polys_up_to(field, D - dn)
        for parts in itertools.product(top, *([rest] * (r - 1))):
            c1 = parts[0]
            # effective degree of the candidate column; revisit nothing
            eff = max([int(c1.deg) if not c1.is_zero() else -1]
                      + [dn + int(x.deg) if not x.is_zero() else -1
                         for x in parts[1:]])
            if eff != D:
                continue
            cvec = (c1,) + tuple(n * x for x in parts[1:])
            if all(x.is_zero() for x in cvec):
                continue
            content = vec_content(cvec)
            if int(content.deg) != 0:
                continue
            # normalize away the scalar redundancy c ~ lambda c
            lead = next(x for x in cvec if not x.is_zero())
            key = tuple(x.scale(field.inv(lead.coeffs[-1])).coeffs for x in cvec)
            if key in seen_cols:
                continue
            seen_cols.add(key)
            if not _in_p_cell_column(g_inv, cvec):
                continue
            U = _unimodular_to_e1(cvec)
            delta = mat_inv(U)
            # safety: delta really is a Gamma_0(n) element with column c
            for i in range(r):
                assert delta[i][0] == RatF(cvec[i])
            return [(U, cvec)]
    raise WitnessError(f"no Gamma_0({n}) witness within degree bound {bound}")


def eval_theta_on_edge(n, g, bound=None, _cache=None):
    """P1(Theta_n)(g) for arbitrary invertible g over F_q(T).  The type-1
    edge of g gives the memo key, the Hermite basis that the Iwasawa
    decomposition reads and the g^{-1} that the witness search reads."""
    field = g[0][0].field
    r = len(g)
    edge = edge_from_rep(g, 1)
    if _cache is not None and edge.key in _cache:
        return _cache[edge.key]
    iw = iwasawa_decompose(g, edge.origin)
    if iw.w == "identity":
        val = eval_on_mirabolic(iw.p, r, field, level=n)
    else:
        gamma, _c = find_witnesses(n, edge.ginv, bound=bound)[0]
        gg = mat_mul(gamma, g)
        iw2 = iwasawa_decompose(gg, canonical_vertex(gg))
        if iw2.w != "identity":
            raise AssertionError("witness failed to reach the mirabolic cell")
        val = eval_on_mirabolic(iw2.p, r, field, level=n)
    if _cache is not None:
        _cache[edge.key] = val
    return val


def theta_evaluator(n, field, r, bound=None):
    """A memoized g -> P1(Theta_n)(g), suitable for the harmonicity checks."""
    cache = {}
    def h1(g):
        return eval_theta_on_edge(n, g, bound=bound, _cache=cache)
    return h1
