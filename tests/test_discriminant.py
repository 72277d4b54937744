"""Closed-form coefficients and values of the discriminant cochains."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hb.algebra import psi_sum
from hb.building import (canonical_vertex, clear_denominators, flip_matrix,
                         iwasawa_decompose, m_matrix, mat_from_exps,
                         mat_identity, mat_inv, mat_is_integral, mat_mul,
                         reduce_y_transcript, vec_mat, w_matrix, weak_popov,
                         weyl_edge_value)
from hb.discriminant import (_in_p_cell_column, _unimodular_to_e1,
                             eval_on_mirabolic,
                             eval_on_p_inverse, eval_theta_on_edge,
                             find_witnesses, p_delta_coefficient, series_eval,
                             theta_evaluator)
from hb.fields import get_field
from hb.fourier import PPoint, dot, polys_up_to
from hb.poly import Poly, RatF, parse_poly, vec_content
from series_reference import coefficient_table, series_eval_by_enumeration

F2 = get_field(2)
F3 = get_field(3)


def test_identity_edge_value():
    # [PAPER] P1(Delta_r) at the standard edge is -(q-1)
    for q, field in ((2, F2), (3, F3)):
        for r in (2, 3, 4):
            x0 = (RatF.zero(field),) * (r - 1)
            assert series_eval(x0, (1,) * (r - 1), r, field) == -(q - 1)


def test_weyl_chamber_formula():
    # [PAPER] -(q-1) q^{(r-1)(k_1+1) - (k_2+..+k_r)}
    assert weyl_edge_value(2, (0, 0)) == -2
    assert weyl_edge_value(2, (3, 0)) == -16
    assert weyl_edge_value(3, (2, 1, 0)) == -2 * 3 ** 5
    assert weyl_edge_value(2, (2, 1, 1, 0)) == -(2 ** 7)


def test_weyl_matches_series():
    for q, field in ((2, F2), (3, F3)):
        for kt in ((0, 0), (1, 0), (2, 0), (2, 1, 0), (3, 2, 0)):
            r = len(kt)
            yexps = tuple(k - kt[0] for k in kt[1:])
            x0 = (RatF.zero(field),) * (r - 1)
            assert series_eval(x0, yexps, r, field) == weyl_edge_value(q, kt)


def test_delta_coefficients_frozen():
    one = Poly.one(F2)
    t = parse_poly(F2, "T")
    zero = Poly.zero(F2)
    # [PAPER] anchor coefficients of P1(Delta_2) at q = 2
    assert p_delta_coefficient((one,), (2,), 2) == Fraction(3, 2)
    assert p_delta_coefficient((zero,), (2,), 2) == Fraction(-1, 2)
    # [DERIVED] a = T, y = T^3: C (q^{m-1} - 1) |det y|^{-1} sigma(1, T)
    got = p_delta_coefficient((t,), (3,), 2)
    C = Fraction((4 - 1) * (4 - 2), 2 - 1)
    assert got == C * (2 - 1) * Fraction(1, 8) * 3 == Fraction(9, 4)


def test_coefficient_vanishes_for_small_m():
    t2 = parse_poly(F2, "T^2")
    assert p_delta_coefficient((t2,), (2,), 2) == 0


def test_theta_coefficient_subtracts_level():
    t = parse_poly(F2, "T")
    one = Poly.one(F2)
    # level-T coefficient at a = 1 equals the Delta coefficient (T
    # cannot divide a unit divisor)
    assert p_delta_coefficient((one,), (2,), 2, level=t) \
        == p_delta_coefficient((one,), (2,), 2)


def test_series_at_nonzero_x_is_rational():
    x = RatF.pi_power(F2, 1)
    v = series_eval((x,), (2,), 2, F2)
    # [DERIVED] frozen: P1(Delta_2)(pi, T^2-lattice) = -2
    assert v == -2


def _series_eval_reference(xvec, yexps, r, field, level=None):
    """series_eval by the table route: every nonzero coefficient over the
    support, each a.x formed in F_q(T) by fourier.dot, and only its pi^1
    digit read."""
    table = coefficient_table(field, tuple(yexps), r, level)
    total = psi_sum(((c, dot(a, xvec).pi_coeff(1)) for c, a in table),
                    field)
    return total.rational()


# a support of at most q^e a-vectors, q^e <= 256, for the reference
SUPPORT_EXPONENT = {2: 8, 3: 5, 4: 4, 5: 3}


@st.composite
def _series_args(draw):
    """q in {2, 3, 4, 5} (4: the pairing runs through non-prime field
    tables), r in {2, 3, 4}, level None, T, T+1 or T^2+1 (whose degree-2
    multiples the divisor sum leaves out), y with n_i from -1 up and a
    support of at most 256 a-vectors, and each x_i num/den with deg num
    <= 6 and den monic of degree 0..3: general denominators, and polar
    parts where deg num exceeds deg den."""
    field = get_field(draw(st.sampled_from((2, 3, 4, 5))))
    r = draw(st.sampled_from((2, 3, 4)))
    text = draw(st.sampled_from((None, "T", "T+1", "T^2+1")))
    level = None if text is None else parse_poly(field, text)
    room = SUPPORT_EXPONENT[field.q]
    yexps = []
    for _ in range(r - 1):
        n = draw(st.integers(-1, room + 1))
        room -= max(n - 1, 0)
        yexps.append(n)
    codes = st.integers(0, field.q - 1)
    xvec = []
    for _ in range(r - 1):
        num = draw(st.lists(codes, max_size=7))
        den = draw(st.lists(codes, max_size=3)) + [1]
        xvec.append(RatF(Poly(field, num), Poly(field, den)))
    return tuple(xvec), tuple(yexps), r, field, level


@settings(max_examples=120, deadline=None)
@given(_series_args())
def test_series_eval_matches_the_dot_route(args):
    # the divisor sum gives the value of summing every coefficient times
    # psi(a.x), with every a.x formed exactly
    assert series_eval(*args) == _series_eval_reference(*args)


# the largest n_i drawn at each q: q^(n - 1) divisors of degree below
# n - 1, past the earlier cap of 2^14 at both
DEEP_Y = {2: 16, 3: 10}


def _deep_series_args(count, seed=31):
    """count seeded (x, y, r, field, level): q in {2, 3}, r in {2, 3},
    level None or of degree 1 to 3, y with one n_i at DEEP_Y[q] and the
    other from -1 to DEEP_Y[q], and each x_i num/den with deg num <= 6
    and den = T^j times a monic of degree 0..3 prime to T, j <= 3: most
    denominators are general, and their digits do not end."""
    rng = random.Random(seed)
    for _ in range(count):
        field = get_field(rng.choice((2, 3)))
        r = rng.choice((2, 3))
        text = rng.choice((None, "T", "T+1", "T^2+1", "T^2+T+1", "T^3+T+1"))
        level = None if text is None else parse_poly(field, text)
        top = DEEP_Y[field.q]
        yexps = [rng.randint(-1, top) for _ in range(r - 1)]
        yexps[rng.randrange(r - 1)] = top
        xvec = []
        for _ in range(r - 1):
            num = [rng.randrange(field.q) for _ in range(rng.randint(0, 7))]
            den = [rng.randrange(1, field.q)] \
                + [rng.randrange(field.q) for _ in range(rng.randint(0, 2))]
            den = [0] * rng.randint(0, 3) + den[:rng.randint(0, 3)] + [1]
            xvec.append(RatF(Poly(field, num), Poly(field, den)))
        yield tuple(xvec), tuple(yexps), r, field, level


@pytest.mark.parametrize("args", _deep_series_args(24))
def test_series_eval_counts_by_rank_past_the_old_cap(args):
    # each count q^(k - rank), or 0, is the number of monic d (and of
    # multiples n e) that listing them finds
    assert series_eval(*args) == series_eval_by_enumeration(*args)


def test_the_readme_value_past_the_old_cap():
    # `hb delta eval --q 2 --r 3 --y 16,16 --x 1/T^3,T/T^2+1`, annotated
    # 1273 in the README, by listing the 2^15 - 1 monic d of degree
    # below 15
    x = (RatF(Poly.one(F2), parse_poly(F2, "T^3")),
         RatF(parse_poly(F2, "T"), parse_poly(F2, "T^2+1")))
    assert series_eval_by_enumeration(x, (16, 16), 3, F2) == 1273


def test_eval_on_mirabolic_agrees_with_series():
    x = RatF.pi_power(F3, 1)
    g = PPoint((x,), (2,)).matrix(F3)
    assert eval_on_mirabolic(g, 2, F3) == series_eval((x,), (2,), 2, F3)


def _eval_on_mirabolic_reference(p_mat, r, field, level=None):
    """eval_on_mirabolic by its earlier route: y is the lower-right block
    of p, x comes from x y by a Gauss-Jordan inverse of y, and y = gamma
    diag(T^{n_i}) kappa from row-reducing y, gamma = U^{-1}."""
    y = tuple(row[1:] for row in p_mat[1:])
    x = vec_mat(p_mat[0][1:], mat_inv(y))
    if r == 2:
        return series_eval(x, (-int(y[0][0].ord_inf()),), r, field,
                           level=level)
    M, d = clear_denominators(y)
    W, U = weak_popov(M)
    gamma = mat_inv(tuple(tuple(RatF(p) for p in row) for row in U))
    yexps = tuple(max(int(p.deg) for p in row if not p.is_zero()) - int(d.deg)
                  for row in W)
    return series_eval(vec_mat(x, gamma), yexps, r, field, level=level)


def _det(A):
    """Determinant by expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    total = RatF.zero(A[0][0].field)
    for j, a in enumerate(A[0]):
        minor = _det(tuple(row[:j] + row[j + 1:] for row in A[1:]))
        total = total + a * minor if j % 2 == 0 else total - a * minor
    return total


@st.composite
def _mirabolic_args(draw):
    """(p, y, r, field, level): p = [[1, x y], [0, y]] with q in {2, 3},
    r in {2, 3, 4}, level None, T or T+1; each x_i num/den with deg num
    <= 5 and den monic of degree 0..3; y = gamma D kappa full, with gamma
    in GL(A) and kappa in GL(O), each a product of a permutation, unit
    lower and upper triangular factors (polynomial entries of degree <= 2
    in T, resp. in pi) and a constant diagonal, and D = diag(T^{n_i})."""
    field = get_field(draw(st.sampled_from((2, 3))))
    r = draw(st.sampled_from((2, 3, 4)))
    text = draw(st.sampled_from((None, "T", "T+1")))
    level = None if text is None else parse_poly(field, text)
    m = r - 1
    codes = st.integers(0, field.q - 1)
    units = st.integers(1, field.q - 1)

    def entry(var):      # a polynomial of degree <= 2 in T or in pi
        cs = draw(st.lists(codes, max_size=3))
        return sum((RatF(Poly.const(field, c)) * RatF.pi_power(field, var * e)
                    for e, c in enumerate(cs) if c), RatF.zero(field))

    def factor(var):
        perm = draw(st.permutations(range(m)))
        diag = [draw(units) for _ in range(m)]
        lower = tuple(tuple(entry(var) if j < i else RatF.one(field) if j == i
                            else RatF.zero(field) for j in range(m))
                      for i in range(m))
        upper = tuple(tuple(entry(var) if j > i else
                            RatF(Poly.const(field, diag[i])) if j == i
                            else RatF.zero(field) for j in range(m))
                      for i in range(m))
        P = tuple(tuple(RatF.one(field) if j == perm[i] else RatF.zero(field)
                        for j in range(m)) for i in range(m))
        return mat_mul(P, mat_mul(lower, upper))
    top = 4 if r <= 3 else 2
    D = mat_from_exps(field, [draw(st.integers(-1, top)) for _ in range(m)])
    y = mat_mul(factor(-1), mat_mul(D, factor(1)))
    x = []
    for _ in range(m):
        num = draw(st.lists(codes, max_size=6))
        den = draw(st.lists(codes, max_size=3)) + [1]
        x.append(RatF(Poly(field, num), Poly(field, den)))
    one, zero = RatF.one(field), RatF.zero(field)
    p = ((one,) + vec_mat(x, y),) + tuple((zero,) + row for row in y)
    return p, y, r, field, level


@settings(max_examples=60, deadline=None)
@given(_mirabolic_args())
def test_eval_on_mirabolic_matches_the_inverse_route(args):
    # x and y^{-1} read off p^{-1}, with y^{-1} column-reduced, give the
    # value of the earlier route through x y and y; and the column
    # reduction is a factorization y = gamma diag(T^{n_i}) kappa
    p, y, r, field, level = args
    assert eval_on_mirabolic(p, r, field, level) == \
        _eval_on_mirabolic_reference(p, r, field, level)
    gamma, yexps = reduce_y_transcript(mat_inv(y))
    assert all(x.den.is_one() for row in gamma for x in row)
    det = _det(gamma)
    assert det.den.is_one() and int(det.num.deg) == 0
    kappa_inv = mat_mul(mat_mul(mat_inv(y), gamma), mat_from_exps(field, yexps))
    assert mat_is_integral(kappa_inv)
    assert int(_det(kappa_inv).ord_inf()) == 0     # rank r - 1 mod pi


def test_theta_evaluator_handles_flipped_cell():
    n = parse_poly(F2, "T")
    h1 = theta_evaluator(n, F2, 2)
    g = flip_matrix(F2, 2)
    v1 = h1(g)
    v2 = h1(g)   # memoized path returns the same value
    assert v1 == v2
    assert isinstance(v1, Fraction) or isinstance(v1, int)


def test_theta_evaluator_deeper_vertex():
    n = parse_poly(F2, "T")
    h1 = theta_evaluator(n, F2, 2)
    g = mat_mul(mat_from_exps(F2, (1, 0)), flip_matrix(F2, 2))
    assert h1(g) == h1(g)


# Theta_n values over both Iwasawa cells: (q, r, level, exps, flip, shear,
# product, value).  g = u(x) D P with D = diag(T^exps) for flip 0,
# flip D for flip 1 and D flip for flip 2; u(x) = I + x E_12 with x the
# shear-th of 0, pi, pi^2, pi + pi^2; P = I for (), W_s for (s,) and
# M_s(u) for (s, u).  Values as computed before the Iwasawa factor was
# read off the Hermite basis.
GOLDEN_THETA = [
    (2, 2, "T", (0, 0), 0, 1, (2, (0,)), 1),
    (2, 2, "T", (1, 1), 0, 3, (1, ()), 1),
    (2, 2, "T", (1, 1), 1, 0, (2, (1,)), 1),
    (2, 2, "T", (1, 1), 1, 2, (1,), 1),
    (2, 2, "T", (1, 0), 2, 0, (2, (1,)), 2),
    (2, 2, "T", (0, 1), 2, 1, (1, ()), -1),
    (2, 2, "T", (0, 1), 2, 3, (1,), -1),
    (2, 2, "T", (1, 1), 1, 3, (2,), -1),
    (2, 2, "T+1", (0, 1), 0, 1, (1,), -1),
    (2, 2, "T+1", (0, 1), 0, 3, (2, (0,)), -1),
    (2, 2, "T+1", (1, 1), 1, 0, (2,), -1),
    (2, 2, "T+1", (0, 0), 1, 2, (1,), 1),
    (2, 2, "T+1", (1, 1), 2, 0, (2, (0,)), -2),
    (2, 2, "T+1", (1, 0), 2, 1, (1,), 2),
    (2, 2, "T+1", (0, 1), 2, 3, (2, (0,)), -1),
    (2, 2, "T+1", (1, 0), 1, 3, (1,), -1),
    (2, 3, "T", (1, 1, 1), 0, 1, (3,), 12),
    (2, 3, "T", (1, 0, 0), 0, 3, (3, (0, 0)), 12),
    (2, 3, "T", (1, 0, 0), 1, 0, (3, (0, 0)), -2),
    (2, 3, "T", (0, 0, 1), 1, 2, (2, (1,)), 5),
    (2, 3, "T", (0, 1, 1), 2, 0, (), -4),
    (2, 3, "T", (0, 1, 0), 2, 1, (3, (0, 0)), -2),
    (2, 3, "T", (0, 1, 1), 2, 3, (3, (0, 1)), -1),
    (2, 3, "T", (1, 0, 0), 1, 3, (1, ()), -2),
    (2, 3, "T+1", (0, 1, 1), 0, 1, (), 3),
    (2, 3, "T+1", (1, 0, 0), 0, 3, (1,), -16),
    (2, 3, "T+1", (1, 1, 1), 1, 0, (2, (0,)), -4),
    (2, 3, "T+1", (1, 1, 1), 1, 2, (2, (0,)), -4),
    (2, 3, "T+1", (1, 1, 0), 2, 0, (), -4),
    (2, 3, "T+1", (0, 0, 1), 2, 1, (3, (1, 0)), -2),
    (2, 3, "T+1", (0, 0, 1), 2, 3, (3, (1, 1)), -2),
    (2, 3, "T+1", (1, 1, 0), 1, 3, (2, (1,)), 6),
    (3, 2, "T", (1, 1), 0, 1, (), 12),
    (3, 2, "T", (1, 1), 0, 3, (), 12),
    (3, 2, "T", (0, 1), 1, 0, (1, ()), -36),
    (3, 2, "T", (0, 0), 1, 2, (2, (2,)), 4),
    (3, 2, "T", (0, 0), 2, 0, (), -4),
    (3, 2, "T", (1, 0), 2, 1, (2,), -12),
    (3, 2, "T", (0, 0), 2, 3, (1,), 4),
    (3, 2, "T", (0, 0), 1, 3, (2, (0,)), -12),
    (3, 2, "T+1", (1, 0), 0, 1, (2, (2,)), 12),
    (3, 2, "T+1", (0, 1), 0, 3, (2, (0,)), -4),
    (3, 2, "T+1", (0, 0), 1, 0, (), -4),
    (3, 2, "T+1", (0, 0), 1, 2, (1,), 4),
    (3, 2, "T+1", (0, 1), 2, 0, (1, ()), -4),
    (3, 2, "T+1", (0, 0), 2, 1, (2,), -4),
    (3, 2, "T+1", (1, 1), 2, 3, (2,), -4),
    (3, 2, "T+1", (0, 1), 1, 3, (2, (2,)), 12),
    (3, 3, "T", (1, 1, 0), 0, 1, (1, ()), 48),
    (3, 3, "T", (1, 1, 0), 0, 3, (3, (1, 0)), 48),
    (3, 3, "T", (0, 0, 1), 1, 0, (3, (0, 0)), -12),
    (3, 3, "T", (0, 0, 1), 1, 2, (3, (1, 1)), -12),
    (3, 3, "T", (1, 0, 1), 2, 0, (3, (0, 1)), -108),
    (3, 3, "T", (0, 1, 0), 2, 1, (3, (1, 2)), -12),
    (3, 3, "T", (0, 0, 1), 2, 3, (3, (0, 0)), -12),
    (3, 3, "T", (1, 1, 1), 1, 3, (2, (2,)), 16),
    (3, 3, "T+1", (1, 1, 1), 0, 1, (3, (1, 2)), 16),
    (3, 3, "T+1", (0, 1, 0), 0, 3, (3, (2, 2)), 40),
    (3, 3, "T+1", (1, 0, 0), 1, 0, (1, ()), -12),
    (3, 3, "T+1", (1, 1, 0), 1, 2, (3, (2, 0)), 48),
    (3, 3, "T+1", (0, 1, 1), 2, 0, (2, (1,)), -4),
    (3, 3, "T+1", (1, 1, 1), 2, 1, (2, (2,)), 16),
    (3, 3, "T+1", (1, 0, 0), 2, 3, (2, (1,)), 144),
    (3, 3, "T+1", (1, 1, 1), 1, 3, (3, (0, 2)), -36),
]


def _golden_rep(field, r, exps, flip, shear, product):
    g = mat_from_exps(field, exps)
    if flip == 1:
        g = mat_mul(flip_matrix(field, r), g)
    elif flip == 2:
        g = mat_mul(g, flip_matrix(field, r))
    pi = RatF.pi_power(field, 1)
    x = (RatF.zero(field), pi, pi * pi, pi + pi * pi)[shear]
    u = [list(row) for row in mat_identity(field, r)]
    u[0][1] = x
    g = mat_mul(tuple(tuple(row) for row in u), g)
    if len(product) == 1:
        g = mat_mul(g, w_matrix(field, r, product[0]))
    elif product:
        g = mat_mul(g, m_matrix(field, r, *product))
    return g


def test_theta_values_pinned_across_both_cells():
    evaluators = {}
    for q, r, level, exps, flip, shear, product, value in GOLDEN_THETA:
        field = get_field(q)
        key = (q, r, level)
        if key not in evaluators:
            evaluators[key] = theta_evaluator(parse_poly(field, level), field, r)
        g = _golden_rep(field, r, exps, flip, shear, product)
        assert evaluators[key](g) == value, (q, r, level, exps, flip, shear, product)
    assert {row[4] for row in GOLDEN_THETA} == {0, 1, 2}


# ----------------------------------------------------------------------
# Gamma_0(n) witnesses

def _enumerated_witness(n, g_inv, bound):
    """The degree-ordered enumeration that find_witnesses replaced, kept
    as a reference: the first column c = (c_1, n c_2, ..., n c_r) of
    unit content with g^{-1} c in the P cell, by degree up to `bound`;
    None if there is none."""
    field = g_inv[0][0].field
    r = len(g_inv)
    dn = int(n.deg)
    for D in range(bound + 1):
        top = polys_up_to(field, D)
        rest = polys_up_to(field, D - dn)
        for parts in itertools.product(top, *([rest] * (r - 1))):
            cvec = (parts[0],) + tuple(n * x for x in parts[1:])
            degs = [int(x.deg) for x in cvec if not x.is_zero()]
            # each column once, at its own degree
            if not degs or max(degs) != D:
                continue
            if int(vec_content(cvec).deg) == 0 \
                    and _in_p_cell_column(g_inv, cvec):
                return cvec
    return None


LEVELS = {2: ("T", "T+1", "T^2+T+1"), 3: ("T", "T+1", "T^2+1")}


def _flipped_rep(field, r, k):
    """u diag(T^k, 1, ..., 1) flip, u = I + T^k E_21."""
    u = [list(row) for row in mat_identity(field, r)]
    u[1][0] = RatF.pi_power(field, -k)
    g = mat_mul(mat_from_exps(field, (k,) + (0,) * (r - 1)),
                flip_matrix(field, r))
    return mat_mul(tuple(tuple(row) for row in u), g)


def _in_gamma0(gamma, n):
    """gamma in GL_r(A) with its first column below the diagonal in nA."""
    polynomial = all(x.den.is_one() for row in gamma for x in row)
    unimodular = all(x.den.is_one() for row in mat_inv(gamma) for x in row)
    return polynomial and unimodular \
        and all((x.num % n).is_zero() for x in (row[0] for row in gamma[1:]))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
@settings(max_examples=25)
@given(data=st.data())
def test_witness_reaches_the_mirabolic_cell(q, r, data):
    # shallow reps over the flipped cell: gamma is in Gamma_0(n), gamma g
    # is in the identity cell, and the value there is the value at the
    # enumeration's witness
    field = get_field(q)
    n = parse_poly(field, data.draw(st.sampled_from(LEVELS[q])))
    exps = data.draw(st.tuples(*[st.integers(0, 1)] * r))
    g = mat_from_exps(field, exps)
    g = mat_mul(g, flip_matrix(field, r)) if data.draw(st.booleans()) \
        else mat_mul(flip_matrix(field, r), g)
    u = [list(row) for row in mat_identity(field, r)]
    u[0][1] = RatF.pi_power(field, data.draw(st.integers(0, 2)))
    g = mat_mul(tuple(tuple(row) for row in u), g)
    assume(iwasawa_decompose(g, canonical_vertex(g)).w == "flip")
    g_inv = mat_inv(g)
    gamma, cvec = find_witnesses(n, g_inv)[0]
    assert _in_gamma0(gamma, n)
    assert tuple(row[0] for row in mat_inv(gamma)) == \
        tuple(RatF(c) for c in cvec)
    gg = mat_mul(gamma, g)
    iw = iwasawa_decompose(gg, canonical_vertex(gg))
    assert iw.w == "identity"
    value = eval_on_p_inverse(iw.p_inv, r, field, level=n)
    ref = _enumerated_witness(n, g_inv, int(n.deg) + 2)
    assert ref is not None
    gg = mat_mul(_unimodular_to_e1(ref), g)
    iw = iwasawa_decompose(gg, canonical_vertex(gg))
    assert iw.w == "identity"
    assert eval_on_p_inverse(iw.p_inv, r, field, level=n) == value
    assert eval_theta_on_edge(n, g) == value


@pytest.mark.parametrize("column, det", [(("0", "1"), 1),
                                         (("0", "T+1", "T"), 1),
                                         (("0", "0", "2"), 2)])
def test_unimodular_to_e1_swaps_up_a_zero_first_entry(column, det):
    # c_1 = 0: the next nonzero entry is swapped to the top and the row
    # it leaves negated, so that det U is 1 over the unit content; U c =
    # e1 and U^-1 has polynomial entries
    c = tuple(parse_poly(F3, text) for text in column)
    U = _unimodular_to_e1(c)
    zero, one = RatF.zero(F3), RatF.one(F3)
    assert [sum((x * RatF(y) for x, y in zip(row, c)), zero) for row in U] \
        == [one] + [zero] * (len(c) - 1)
    assert all(x.den.is_one() for row in mat_inv(U) for x in row)
    leibniz = zero
    for perm in itertools.permutations(range(len(c))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = RatF(Poly.const(F3, F3.from_int((-1) ** inversions)))
        for i, j in enumerate(perm):
            term = term * U[i][j]
        leibniz = leibniz + term
    assert leibniz == RatF(Poly.const(F3, det))


@pytest.mark.parametrize("column", [("T", "T^2"), ("0", "T+1")])
def test_unimodular_to_e1_refuses_content_that_is_not_a_unit(column):
    with pytest.raises(ValueError, match="column content is not a unit"):
        _unimodular_to_e1(tuple(parse_poly(F3, text) for text in column))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [4, 6])
def test_witness_degree_follows_the_depth(q, k):
    # u diag(T^k, 1, 1) flip at n = T needs a witness column of degree k,
    # so the witness degree grows with the depth of g in the building
    field = get_field(q)
    g = _flipped_rep(field, 3, k)
    gamma, cvec = find_witnesses(parse_poly(field, "T"), mat_inv(g))[0]
    assert max(int(c.deg) for c in cvec if not c.is_zero()) == k
    gg = mat_mul(gamma, g)
    assert iwasawa_decompose(gg, canonical_vertex(gg)).w == "identity"
