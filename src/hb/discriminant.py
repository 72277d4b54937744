"""Closed-form Fourier coefficients and values of P1(Delta_r) and
P1(Theta_n).

Both families share one coefficient shape,

    h*(a, y) = K(y) S(r-1, a),   K(y) = (q^r - 1)(q - 1) q^{r-1} |det y|^{-1},

with S the divisor sum sigma for Delta and sigma_n for Theta_n; the
a = 0 value is the same expression with sigma(r-1, 0) = (1 - q^r)^{-1}
and sigma_n(r-1, 0) = (1 - |n|^{r-1}) sigma(r-1, 0).  Coefficients
vanish for a != 0 with m(a, y) <= 1.  Every function here that takes
`level` computes P1(Delta_r) for level None and P1(Theta_n) for the
monic level n.

Values are the finite Fourier sums h(x, y) = sum_a h*(a, y) psi(a.x)
over the support a in S_y = prod_i A_{<= n_i - 2}, on which m(a, y) >= 2,
summed by divisor instead of by a.  With s = r - 1,

    sum_{a in S_y, a != 0} sigma_n(s, a) psi(a.x)
      = sum_{a != 0} sum_{d monic, d | a, n not | d} |d|^s psi(a.x)
      = sum_{d monic, n not | d} |d|^s (sum_{a in V_d} psi(a.x) - 1),

where V_d = prod_i d A_{<= n_i - 2 - deg d} are the a in S_y that d
divides, an F_q-space of q^{sum_i max(n_i - 1 - deg d, 0)} elements:
the two sums swap, and the a = 0 term left out of the inner sum is the
-1.  a -> psi(a.x) is a character of V_d, so its sum is |V_d| when it
is trivial on V_d and 0 otherwise.  It is trivial exactly when the
pi^1-coefficients of d T^j x_i vanish for every i and j <= n_i - 2 -
deg d (psi_0 o Tr is a nontrivial character, and the pi^1-coefficients
over b in A_{<= k} form an F_q-space); as T^j pi^{j+1} = pi, these are
the digits (d x_i)[pi^1..pi^{n_i - 1 - deg d}], each the F_q pairing
sum_t d_t x_i[pi^{j+t}] of d with a window of the digits
x_i[pi^1..pi^{n_i - 1}], which series_eval reads once per x.  A d with
V_d = 0 adds 1 - 1 = 0, so d runs over deg d <= max n_i - 2, and

    h(x, y) = K(y) [sigma_n(s, 0) + sum_{d monic, n not | d}
                    |d|^s (|V_d| [d x has those digits 0] - 1)],

an integer sum up to the one factor K(y).  No coefficient is
tabulated and no a is factored.

The d of one degree k are counted by rank, not listed.  With d_k = 1
fixed, each nonzero window w = (w_0, ..., w_k) of k + 1 consecutive
digits gives one F_q-linear equation sum_{t<k} d_t w_t = -w_k, so the
monic d of degree k with d x's digits 0 number q^(k - rank) of that
system, or 0 when it is inconsistent, that is when its echelon form
(fields.fq_echelon on the windows themselves) has a pivot in the last
column.  The d = n e that the level divides pair as sum_t d_t w_t =
sum_u e_u w'_u with w'_u = sum_s n_s w_{u+s}, so they are counted the
same way in the monic e of degree k - deg n.  The w' are the windows
of k - deg n + 1 consecutive terms of the sequences sum_s n_s
x_i[pi^{j+1+s}], formed once per x like the digits.  A value costs one
elimination per degree of d, and one more for its multiples where some
d of that degree is a hit.

Evaluation at an arbitrary group element goes through the Iwasawa
decomposition, whose mirabolic part p^{-1} = [[1, -x], [0, y^{-1}]] is
read off the Hermite basis with no inverse, and over the flipped cell,
g = s p flip kappa with kappa in I^1, through a Gamma_0(n) translate
of p flip read off a row-reduced basis of the lattice (p flip)^{-1}(A +
nA^{r-1}), where (p flip)^{-1} = flip^{-1} p^{-1} comes off the same
Hermite basis.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

# building is imported only by the functions that evaluate at a group element
from .algebra import sigma
from .fields import fq_echelon
from .fourier import mval
from .poly import Poly, RatF, max_digits, poly_xgcd, printable, vec_content

# series_eval reads at most this many digits of x, sum max(n_i - 1, 0):
# at 48, the slowest value took 0.07-0.08 s (q = 2, 3, 5, 9, r = 2..4,
# levels None, T, T^2+1, T^3+T+1, x with short, periodic and long digit
# periods, the median of five x; 2-core Intel Xeon, Python 3.11), about
# what the earlier cap of q^14 divisors allowed; at 56, 0.18 s
MAX_SERIES_DIGITS = 48
# value_exponent's room for a sum of coefficients: q^11 > 2^10 of them
SUM_TERMS = 11


class SupportError(ValueError):
    """A y that reads more than MAX_SERIES_DIGITS digits of x, or values
    too long to print."""


def _scale(q, yexps, r):
    """K(y) = (q^r - 1)(q - 1) q^{r-1} |det y|^{-1}, y = diag(T^{n_i})."""
    return (q ** r - 1) * (q - 1) * q ** (r - 1) \
        * Fraction(q) ** (-sum(yexps))


def p_delta_coefficient(avec, yexps, r, level=None):
    """P1(Delta_r)*(a, y), or P1(Theta_level)*(a, y), for y = diag(T^{n_i})."""
    q = avec[0].field.q
    if not all(a.is_zero() for a in avec) and mval(avec, yexps) <= 1:
        return Fraction(0)
    return _scale(q, yexps, r) * sigma(r - 1, avec, level)


def value_exponent(yexps, r, deg_a, level=None, terms=SUM_TERMS):
    """An e with q^e above the numerator and denominator of each P1*(a, y),
    deg a_i <= deg_a, and of each sum of q^terms of them: an integer
    times q^(r - 1 - sum n_i), below q^(2r - sum n_i) times a divisor sum
    below q^(r deg_a + 1), or q^((r - 1) deg n) at a = 0."""
    deg_n = 0 if level is None else int(level.deg)
    return abs(sum(yexps)) + r * (max(deg_a, 0) + deg_n + 2) + terms


def check_support(q, yexps, r, level=None):
    """Refuse a y whose divisor sum reads more than MAX_SERIES_DIGITS
    digits of x, sum max(n_i - 1, 0), or gives values not
    poly.printable: h(x, y) is a sum of P1*(a, y) over the q^digits a of
    the support."""
    support = sum(max(n - 1, 0) for n in yexps)
    if support > MAX_SERIES_DIGITS:
        raise SupportError(f"y = {tuple(yexps)} needs {support} digits of x, "
                           f"more than {MAX_SERIES_DIGITS}")
    if not printable(q, value_exponent(yexps, r, max(yexps) - 2, level,
                                       max(support, SUM_TERMS))):
        raise SupportError(f"y = {tuple(yexps)} gives values with powers of "
                           f"q of more than {max_digits()} digits")


# room for every y that a sweep of the harmonicity checks meets (89 in
# 40 blocks of the benchmark)
@lru_cache(maxsize=128)
def _series_plan(field, yexps, r, level):
    """(K(y) sigma_n(r-1, 0), K(y), terms) of series_eval at y =
    diag(T^{n_i}), yexps a tuple, after check_support: one term
    (k, k - deg n, |d|^{r-1}, |V_d|, count) per degree k of d: the degree
    of the monic e in the multiples d = n e of that degree (-1 for no
    level), and count the monic d of degree k that n does not divide."""
    q = field.q
    check_support(q, yexps, r, level)
    scale = _scale(q, yexps, r)
    terms = []
    for k in range(max(yexps) - 1):
        deg_e = -1 if level is None else k - int(level.deg)
        terms.append((k, deg_e, q ** ((r - 1) * k),
                      q ** sum(max(n - 1 - k, 0) for n in yexps),
                      q ** k - (q ** deg_e if deg_e >= 0 else 0)))
    return (scale * sigma(r - 1, (Poly.zero(field),), level), scale,
            tuple(terms))


def _monic_hits(field, digits, k):
    """How many monic d of degree k pair to 0 with every window
    ds[j..j+k] of the digit lists: q^(k - rank) of the windows, or 0
    when one row of their echelon form is 0 but for its last entry."""
    pivots, _ = fq_echelon(field, [w for ds in digits
                                   for j in range(len(ds) - k)
                                   if any(w := ds[j:j + k + 1])])
    return 0 if k in pivots else field.q ** (k - len(pivots))


def series_eval(xvec, yexps, r, field, level=None):
    """The Fourier sum of P1(Delta_r) (level None) or P1(Theta_level) at
    (x, y), as the divisor sum of the module docstring: for each degree
    k, the monic d of degree k whose pairings with the windows
    x_i[pi^{j+1}..pi^{j+k+1}] of the digits of x all vanish, counted by
    rank, less the d = n e that the level divides, counted in e on the
    windows of the digits paired with n.  Digits of x are read once; no
    a.x, no coefficient table and no d is formed.  More digits than
    MAX_SERIES_DIGITS or values too long to print raise SupportError
    first."""
    base, scale, terms = _series_plan(field, tuple(yexps), r, level)
    digits = [x.pi_coeffs(1, n) for x, n in zip(xvec, yexps)]
    if level is not None:   # sum_s n_s x_i[pi^{j+1+s}], j = 0, 1, ...
        multiples = [
            field.conv(ds, level.coeffs[::-1])[int(level.deg):len(ds)]
            for ds in digits]
    total = 0
    for k, deg_e, weight, size, count in terms:
        hits = _monic_hits(field, digits, k)
        if deg_e >= 0 and hits:     # the multiples are among the hits
            hits -= _monic_hits(field, multiples, deg_e)
        total += weight * (size * hits - count)
    return base + scale * total


def eval_on_mirabolic(p_mat, r, field, level=None):
    """Value at an explicit element p of P(F_inf): eval_on_p_inverse."""
    from .building import mat_inv
    return eval_on_p_inverse(mat_inv(p_mat), r, field, level)


def eval_on_p_inverse(p_inv, r, field, level=None):
    """Value at the element p = [[1, x y], [0, y]] of P(F_inf) given
    p^{-1} = [[1, -x], [0, y^{-1}]]: x and y^{-1} are read off it, the
    columns of y^{-1} reduce to y = gamma diag(T^{n_i}) kappa
    (reduce_y_transcript), and x is transported across gamma."""
    from .building import reduce_y_transcript, vec_mat
    x = tuple(-c for c in p_inv[0][1:])
    y_inv = tuple(row[1:] for row in p_inv[1:])
    if r == 2:
        return series_eval(x, (int(y_inv[0][0].ord_inf()),), r, field,
                           level=level)
    gamma, yexps = reduce_y_transcript(y_inv)
    return series_eval(vec_mat(x, gamma), yexps, r, field, level=level)


# ----------------------------------------------------------------------
# full-edge evaluation of P1(Theta_n)

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
    from .building import mat_vec
    w = mat_vec(g_inv, tuple(RatF(x) for x in cvec))
    if w[0].is_zero():
        return False
    o0 = w[0].ord_inf()
    return all(x.is_zero() or x.ord_inf() > o0 for x in w[1:])


def _lower_term_fills(degs, lead, q):
    """Coefficient lists of a_j = lead_j T^(M - degs[j]) + lower terms:
    M rising from the least it can be and, at each M, the lower terms by
    their number of nonzero coefficients."""
    for M in itertools.count(max(d for d, c in zip(degs, lead) if c)):
        slots = [(j, e) for j, d in enumerate(degs) for e in range(M - d)]
        for weight in range(len(slots) + 1):
            for chosen in itertools.combinations(slots, weight):
                for vals in itertools.product(range(1, q), repeat=weight):
                    a = [[0] * max(M - d, 0) + [c] for d, c in zip(degs, lead)]
                    for (j, e), v in zip(chosen, vals):
                        a[j][e] = v
                    yield a


def find_witnesses(n, g_inv):
    """gamma in Gamma_0(n) with gamma g in P F^x I^1, as a one-element
    list [(gamma, c)], given g^{-1}: c = gamma^{-1} e1 = (x_1, n x_2, ...,
    n x_r) needs unit content and g^{-1} c of strict minimal valuation
    in coordinate 1.  With P = d g^{-1} diag(1, n, ..., n) over A and
    W = U P^T row reduced, (P x)^T = a W for x^T = a U, of degree
    M = max_j (deg a_j + deg W_j) and leading vector sum lc(a_j) lc(W_j)
    over the j that reach M.  So P x has its degree in coordinate 1
    alone exactly when, up to a scalar, a_j = l_j T^(M - deg W_j) plus
    lower terms with l = e1 lc(W)^{-1}: the search over these, for the
    first c of unit content, is complete and needs no bound."""
    from .building import clear_denominators, fq_mat_inv, mat_vec, weak_popov
    field = g_inv[0][0].field
    level = RatF(n)
    P, _d = clear_denominators(tuple(
        tuple(x * level if j else x for j, x in enumerate(row))
        for row in g_inv))
    W, U = weak_popov(tuple(zip(*P)))
    degs = [max(int(p.deg) for p in row if not p.is_zero()) for row in W]
    lead = fq_mat_inv(field, [[p.coeff(d) for p in row]
                              for d, row in zip(degs, W)])[0]
    zero = Poly.zero(field)
    for a in _lower_term_fills(degs, lead, field.q):
        a = [Poly(field, cs) for cs in a]
        x = [sum((aj * row[k] for aj, row in zip(a, U)), zero)
             for k in range(len(U))]
        cvec = (x[0],) + tuple(n * xk for xk in x[1:])
        if int(vec_content(cvec).deg) == 0:
            break
    if not _in_p_cell_column(g_inv, cvec):
        raise AssertionError("reduced-basis witness fails the P-cell test")
    gamma = _unimodular_to_e1(cvec)
    # safety: gamma^{-1} really is a Gamma_0(n) element with column c,
    # read as gamma c = e1 (gamma^{-1} e1 = c) with no inversion
    assert mat_vec(gamma, tuple(RatF(c) for c in cvec)) == \
        (RatF.one(field),) + (RatF.zero(field),) * (len(cvec) - 1)
    return [(gamma, cvec)]


# `bound` is ignored; perfbench/tracer.py still passes it
def eval_theta_on_edge(n, g, bound=None, _cache=None):
    """P1(Theta_n)(g) for arbitrary invertible g over F_q(T).  The memo
    key names the type-1 edge of g by its origin and kernel line
    (type_one_key), with no terminus and no edge built; the origin's
    Hermite basis H and the product H g go on to the Iwasawa
    decomposition of a miss, with no inverse of g.  A miss in the
    flipped cell has g = s p flip kappa with kappa in I^1, so a witness
    for p flip serves g too: the search takes (p flip)^{-1} = flip^{-1}
    p^{-1}, a permutation of the rows of the decomposition's p^{-1},
    and no inverse of g is computed."""
    from .building import (canonical_vertex, flip_matrix, iwasawa_decompose,
                           mat_mul, type_one_key)
    field = g[0][0].field
    r = len(g)
    key, origin, Hg = type_one_key(g)
    if _cache is not None and key in _cache:
        return _cache[key]
    iw = iwasawa_decompose(g, origin, Hg)
    if iw.w == "identity":
        val = eval_on_p_inverse(iw.p_inv, r, field, level=n)
    else:
        flip_inv = tuple(zip(*flip_matrix(field, r)))
        gamma, _c = find_witnesses(n, mat_mul(flip_inv, iw.p_inv))[0]
        gg = mat_mul(gamma, g)
        iw2 = iwasawa_decompose(gg, canonical_vertex(gg))
        if iw2.w != "identity":
            raise AssertionError("witness failed to reach the mirabolic cell")
        val = eval_on_p_inverse(iw2.p_inv, r, field, level=n)
    if _cache is not None:
        _cache[key] = val
    return val


# `bound` is ignored; perfbench/workloads.py still passes it
def theta_evaluator(n, field, r, bound=None):
    """A memoized g -> P1(Theta_n)(g), suitable for the harmonicity checks."""
    cache = {}
    def h1(g):
        return eval_theta_on_edge(n, g, _cache=cache)
    return h1
