"""Lattice-sum oracle: truncated exponential lattices and valuations.

The frozen values here are [DERIVED]: produced by this oracle and
independently matched against the closed-form Fourier series (see the
acceptance cross-check); they are stored so regressions surface as
plain equality failures.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hb.oracle
from hb.building import mat_from_exps, mat_inv, mat_mul
from hb.discriminant import eval_on_mirabolic
from hb.fields import embedding, get_field
from hb.fourier import PPoint
from hb.laurent import Laurent, PrecisionError
from hb.oracle import (MIN_WINDOW, StabilizationError, _Filtration,
                       _first_window, _solve_g, _window_step, act,
                       base_points, drinfeld_coeffs, exp_coefficients,
                       extension_field, p_delta_direct, p_theta_direct,
                       reduce_basis)
from hb.poly import Poly, RatF, parse_poly, ratf_from_pairs

F2 = get_field(2)


def test_base_points_are_units():
    z = base_points(2, 2)
    assert len(z) == 2
    assert z[1].ord() == 0


def test_exp_coefficients_are_normalized():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 80)
    prev, a = exp_coefficients(z, 3, 3, 80)
    for coeffs in (prev, a):
        assert coeffs[0] == Laurent.one(big)
        assert len(coeffs) == 4
        assert all(not c.is_exact() for c in coeffs[1:])


def _fork_points(q, r):
    """z for one diagonal point and one mirabolic point with x != 0, on
    the reduced basis that the oracle passes to exp_coefficients."""
    field = get_field(q)
    big = extension_field(q, r)
    embed = embedding(q, big.q)
    pi = RatF.pi_power(field, 1)
    mirabolic = PPoint((pi,) + (RatF.zero(field),) * (r - 2),
                       (2,) * (r - 1)).matrix(field)
    for g in (mat_from_exps(field, (1,) + (0,) * (r - 1)), mirabolic):
        z = act(g, base_points(q, r), big, embed, 120)
        yield reduce_basis(z, q)


def _ball_size(z, D):
    """The number of basis vectors z_i T^j, j <= D + ord z_i - max ord,
    in the ball of depth D."""
    top = max(x.ord() for x in z)
    return sum(max(D + x.ord() - top + 1, 0) for x in z)


def _fields(coeffs):
    return [(a.val, a.coeffs, a.prec) for a in coeffs]


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_fork_gives_the_shallower_depth_exactly(q, r):
    # the depth D - 1 list of the depth-D call, whose recursion shares its
    # first D steps with depth D and then forks, is the depth D - 1 list
    # of the depth-(D - 1) call, where that depth takes the unforked path
    for z in _fork_points(q, r):
        for D in range(1, 5):
            prev, _ = exp_coefficients(z, D, r + 1, 160)
            _, same = exp_coefficients(z, D - 1, r + 1, 160)
            assert _fields(prev) == _fields(same)


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_fewer_coefficients_are_a_prefix(q, r):
    # a_k reads only a_{k-1} and a_k of the step before, so asking for
    # a_0..a_r (all that the solve for g_1..g_r reads) gives exactly the
    # first r + 1 coefficients of a longer run, at both depths
    for z in _fork_points(q, r):
        for D in range(1, 5):
            short = exp_coefficients(z, D, r, 160)
            long = exp_coefficients(z, D, r + 1, 160)
            for s, l in zip(short, long):
                assert len(s) == r + 1
                assert _fields(s) == _fields(l[:r + 1])


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("D", [2, 3, 4])
def test_fork_raises_the_same_precision_error(q, r, D):
    # on a reduced basis no step of the recursion loses its leading
    # digit, so exp_coefficients returns even when the z_i are known to
    # two coefficients; the precision lost in the steps both depths share
    # surfaces in g_r, whose leading digits cancel at these orders (s = 2),
    # and the depth D - 1 list of the depth-D call raises exactly what
    # the depth-(D - 1) call raises
    field = get_field(q)
    big = extension_field(q, r)
    exps = (2, 0) if r == 2 else (2, 1, 0)
    z = act(mat_from_exps(field, exps), base_points(q, r), big,
            embedding(q, big.q), 40)
    z = tuple(Laurent(big, x.val, x.coeffs[:2], x.val + 2)
              for x in reduce_basis(z, q))
    messages = []
    for depth, which in ((D, 0), (D - 1, 1)):
        a = exp_coefficients(z, depth, r, 40)[which]
        with pytest.raises(PrecisionError) as err:
            _solve_g(a, r)[r - 1].ord()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_unreduced_basis_is_refused(q, r):
    # act's basis at the mirabolic point x = pi, y = T^2 has F_q-dependent
    # leading coefficients: without the reduction, the product formula
    # would pin the carried evaluations at wrong valuations
    field = get_field(q)
    big = extension_field(q, r)
    pi = RatF.pi_power(field, 1)
    g = PPoint((pi,) + (RatF.zero(field),) * (r - 2),
               (2,) * (r - 1)).matrix(field)
    z = act(g, base_points(q, r), big, embedding(q, big.q), 60)
    assert reduce_basis(z, q) != z
    for call in (lambda: exp_coefficients(z, 2, r, 40),
                 lambda: drinfeld_coeffs(z, 2, r, 40)):
        with pytest.raises(ValueError, match="not reduced"):
            call()


def test_shallower_depth_is_padded_with_exact_zeros():
    # a_k = 0 exactly past the ball's basis count: at diag(T, 1), ords
    # (-1, 0), depth 1 holds T^0 z_1, T^1 z_1 and z_0 and depth 0 holds z_1
    z = next(_fork_points(2, 2))
    assert [_ball_size(z, D) for D in (-1, 0, 1)] == [0, 1, 3]
    prev, a = exp_coefficients(z, 1, 4, 80)
    assert [c.is_certified_zero() for c in prev] == [False] * 2 + [True] * 3
    assert [c.is_certified_zero() for c in a] == [False] * 4 + [True]
    prev, _ = exp_coefficients(z, 0, 2, 80)
    assert prev == [Laurent.one(prev[0].field)] + [Laurent.zero(
        prev[0].field)] * 2


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("which", [0, 1, 2, 3])
def test_ball_never_exceeds_the_uniform_count(q, r, which):
    # the computed a_k (inexact) number one more than the ball's basis
    # count, which is at most the r(D + 1) of deg a_i <= D, and equal to
    # it only when every z_i has the same order
    z = reduce_basis(_point(q, r, which, 120), q)
    for D in range(0, 4):
        for depth, coeffs in ((D - 1, 0), (D, 1)):
            got = exp_coefficients(z, D, r * (D + 1) + 1, 80)[coeffs]
            size = sum(not c.is_certified_zero() for c in got) - 1
            assert size == _ball_size(z, depth) <= r * (depth + 1)
            if len({x.ord() for x in z}) > 1 and depth >= 0:
                assert size < r * (depth + 1)


def _coordinate_matrix(z, q):
    """The rows of F_q((pi))-coordinates of exact z_i in F_{q^r}((pi)),
    as RatF, under the F_q-linear isomorphism F_{q^r} -> F_q^r of the
    trace form against eps^0..eps^{r-1}."""
    r = len(z)
    field = get_field(q)
    big = extension_field(q, r)
    small = {b: a for a, b in enumerate(embedding(q, big.q))}
    eps = big.multiplicative_generator()

    def trace(x):
        acc = 0
        for j in range(r):
            acc = big.add(acc, big.pow(x, q ** j))
        return small[acc]
    return tuple(tuple(
        ratf_from_pairs(field, [(x.val + n, trace(big.mul(c, big.pow(eps, k))))
                                for n, c in enumerate(x.coeffs)])
        for k in range(r)) for x in z)


def _exact_mirabolic(q, r, xs, yexps):
    """z for the mirabolic point (x, y), exact: its last row is T^y e_r."""
    field = get_field(q)
    big = extension_field(q, r)
    x = tuple(ratf_from_pairs(field, terms) for terms in xs)
    z = act(PPoint(x, yexps).matrix(field), base_points(q, r), big,
            embedding(q, big.q), 40)
    assert all(c.is_exact() for c in z)
    return z


@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), st.data())
def test_reduction_keeps_the_lattice_and_frees_the_leading_terms(qr, data):
    q, r = qr
    terms = st.lists(st.tuples(st.integers(-1, 3), st.integers(1, q - 1)),
                     max_size=3)
    xs = [data.draw(terms) for _ in range(r - 1)]
    yexps = tuple(data.draw(st.integers(-1, 4)) for _ in range(r - 1))
    z = _exact_mirabolic(q, r, xs, yexps)
    red = reduce_basis(z, q)
    # the leading coefficients are F_q-independent: no nonzero F_q
    # combination of them vanishes (all q^r - 1 of them listed)
    big = z[0].field
    scalars = embedding(q, big.q)
    for cs in itertools.product(scalars, repeat=r):
        if any(cs):
            total = 0
            for c, x in zip(cs, red):
                total = big.add(total, big.mul(c, x.coeffs[0]))
            assert total != 0
    # red = U z with U in GL_r(A): U and U^{-1} have polynomial entries
    M, Mred = _coordinate_matrix(z, q), _coordinate_matrix(red, q)
    for U in (mat_mul(Mred, mat_inv(M)), mat_mul(M, mat_inv(Mred))):
        assert all(u.den.is_one() for row in U for u in row)


@given(st.integers(-1, 3), st.integers(-1, 3),
       st.lists(st.integers(-2, 3), max_size=3, unique=True))
def test_oracle_matches_series_on_upper_triangular(k1, k2, xexps):
    # P1(Delta_2) at [[T^k1, x], [0, T^k2]] from lattice sums on a
    # reduced basis, against the closed-form series at the same point
    # scaled into the mirabolic
    x = ratf_from_pairs(F2, [(e, 1) for e in xexps])
    g = ((RatF.pi_power(F2, -k1), x), (RatF.zero(F2), RatF.pi_power(F2, -k2)))
    scale = RatF.one(F2) / g[0][0]
    gm = tuple(tuple(v * scale for v in row) for row in g)
    assert p_delta_direct(g, 2, 2, D=5) == eval_on_mirabolic(gm, 2, F2)


def test_depth_one_at_the_identity_and_off_it():
    assert p_delta_direct(mat_from_exps(F2, (0, 0)), 2, 2, D=1) == -2
    with pytest.raises(StabilizationError, match="increase --deg-bound"):
        p_delta_direct(mat_from_exps(F2, (1, 0)), 2, 2, D=1)


def test_exp_coefficients_rejects_huge_lattice():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 80)
    with pytest.raises(ValueError):
        exp_coefficients(z, 50, 2, 80)


@pytest.mark.parametrize("yexp", [1, 3])
@pytest.mark.parametrize("q, r, D", [(2, 2, 0), (2, 2, 1), (2, 2, 2),
                                     (2, 2, 3), (3, 2, 1), (3, 2, 2),
                                     (2, 3, 1), (2, 3, 2)])
def test_closed_form_valuation_matches_listed_lattice(q, r, D, yexp):
    # the orders' d - sum_{k>d} (q^{#{o_i >= k}} - 1) at d = ord w against
    # ord(w) + sum over the listed nonzero lambda of V_t of
    # (ord(w - lambda) - ord lambda), for every prefix V_t and later w_m
    # of the basis z_i T^j of a reduced basis.  At y = T^3 act's first
    # coordinate has x's leading term, an F_q multiple of the last
    # coordinate's, so only the reduction makes the basis adapted.
    field = get_field(q)
    big = extension_field(q, r)
    embed = embedding(q, big.q)
    x = RatF.pi_power(field, 1) + RatF.pi_power(field, 2)
    g = PPoint((x,) + (RatF.zero(field),) * (r - 2),
               (yexp,) * (r - 1)).matrix(field)
    z = reduce_basis(act(g, base_points(q, r), big, embed, 60), q)
    basis = [z[i] * Laurent.pi_power(big, -j)
             for i in range(r) for j in range(D + 1)]
    V = _Filtration(q)
    scalars = embedding(q, big.q)
    points = [Laurent.zero(big)]          # V_t, listed
    for t in range(len(basis)):
        for w in basis[t:]:
            brute = w.ord() + sum((w - lam).ord() - lam.ord()
                                  for lam in points[1:])
            assert V.product_ord(w.ord()) == brute
        V.add(basis[t].ord())
        points = [lam + basis[t].scale(c) for c in scalars for lam in points]


def _chain_cap(x, width):
    """The window that exp_coefficients kept by Laurent slicing before
    the windowed step: width coefficients from the valuation."""
    if x.known_zero():
        return x
    bound = x.ord() + width
    if x.prec is not None:
        bound = min(bound, x.prec)
    return Laurent(x.field, x.val, x.coeffs[:max(bound - x.val, 0)], bound)


def _chain_reanchor(x, t):
    """x with its valuation pinned to t, as exp_coefficients did it
    before the windowed step."""
    if x.prec is not None and t >= x.prec:
        raise PrecisionError("window ends below the valuation")
    drop = t - x.val
    if drop < 0:
        raise AssertionError("computed valuation below the product bound")
    coeffs = x.coeffs[drop:]
    if not coeffs or coeffs[0] == 0:
        raise AssertionError("leading coefficient lost at the anchor")
    return Laurent(x.field, t, coeffs, x.prec)


def _outcome(fn):
    try:
        got = fn()
    except (PrecisionError, AssertionError) as err:
        return type(err)
    return got.val, got.coeffs, got.prec


@st.composite
def _series(draw, big, nonzero=False):
    """A Laurent series over big: a short window of codes at a small
    valuation, exact or known to a precision near its end."""
    val = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(0, big.q - 1), min_size=int(nonzero),
                           max_size=14))
    if nonzero:
        coeffs[0] = draw(st.integers(1, big.q - 1))
    prec = draw(st.one_of(st.none(), st.integers(val - 2, val + 18)))
    if nonzero and prec is not None:
        prec = max(prec, val + 1)
    return Laurent(big, val, coeffs, prec)


_QR = [(2, 2), (2, 3), (3, 2), (3, 3)]


@settings(max_examples=400)
@given(st.sampled_from(_QR), st.data())
def test_window_step_matches_the_operator_chain(qr, data):
    # a carried evaluation: x - x^q rho, pinned at t and capped, against
    # the chain of Laurent operators it replaces
    q, r = qr
    big = extension_field(q, r)
    e = big.n // r
    x = data.draw(_series(big))
    rho = data.draw(_series(big, nonzero=True))
    width = data.draw(st.integers(1, 12))
    t = x.val + data.draw(st.integers(-3, 8))
    want = _outcome(lambda: _chain_cap(
        _chain_reanchor(x - x.q_power(e) * rho, t), width))
    got = _outcome(lambda: _window_step(x, x, -rho, e, width, t))
    assert got == want


@settings(max_examples=400)
@given(st.sampled_from(_QR), st.data())
def test_window_step_matches_the_chain_for_a_k(qr, data):
    # an a_k update: a_k - a_{k-1}^q rho at its own valuation, capped
    q, r = qr
    big = extension_field(q, r)
    e = big.n // r
    x, y = data.draw(_series(big)), data.draw(_series(big))
    rho = data.draw(st.one_of(_series(big), _series(big, nonzero=True)))
    width = data.draw(st.integers(1, 12))
    want = _outcome(lambda: _chain_cap(x - y.q_power(e) * rho, width))
    got = _outcome(lambda: _window_step(x, y, -rho, e, width))
    assert got == want


def _defined_product_ord(orders, q, d):
    """d - sum_{k > d} (q^{#{i : ord u_i >= k}} - 1), summed term by
    term: product_ord as _Filtration defined it before its table."""
    top = max(orders, default=d)
    return d - sum(q ** sum(o >= k for o in orders) - 1
                   for k in range(d + 1, top + 1))


def _add_orders(V, orders, r):
    """Add each order o while fewer than r of it are in: an adapted
    basis has at most r vectors of one order."""
    for o in orders:
        if V.orders.count(o) < r:
            V.add(o)


def _check_product_ord(V, q):
    lo, hi = min(V.orders, default=0), max(V.orders, default=0)
    for d in range(lo - 3, hi + 4):
        assert V.product_ord(d) == _defined_product_ord(V.orders, q, d)


@given(st.sampled_from(_QR), st.data())
def test_product_ord_table_matches_its_definition(qr, data):
    # below, inside, at and above the orders; then on both twins of a
    # copy, each extended on its own as exp_coefficients forks
    q, r = qr
    orders = st.lists(st.integers(-3, 5), max_size=7)
    V = _Filtration(q)
    _add_orders(V, data.draw(orders), r)
    _check_product_ord(V, q)
    twin = V.copy()
    _add_orders(V, data.draw(orders), r)
    _check_product_ord(V, q)
    _add_orders(twin, data.draw(orders), r)
    _check_product_ord(twin, q)
    _check_product_ord(V, q)


def test_drinfeld_coeffs_shape():
    big = extension_field(2, 2)
    embed = embedding(2, big.q)
    z = act(mat_from_exps(F2, (0, 0)), base_points(2, 2), big, embed, 120)
    prev, g = drinfeld_coeffs(z, 4, 2, 80)
    for gs in (prev, g):
        assert isinstance(gs, tuple)
        assert len(gs) == 2                  # g_1, g_2 = Delta
        assert all(not c.is_exact() for c in gs)
        assert gs[1].ord() is not None
    assert prev[1].ord() == g[1].ord()       # stabilized at depths 3, 4


def test_delta_valuation_doubles_along_apartment():
    # [DERIVED] P1(Delta_2)(diag(T^k, 1)) = -(q-1) q^{k+1} at q = 2
    for k, want in ((0, -2), (1, -4), (2, -8)):
        assert p_delta_direct(mat_from_exps(F2, (k, 0)), 2, 2, D=5) == want


def test_p_point_values():
    # [DERIVED] cross-checked against the closed-form series
    def at(x, y):
        return p_delta_direct(PPoint((x,), (y,)).matrix(F2), 2, 2, D=5)
    zero = RatF.zero(F2)
    assert at(zero, 3) == 5
    assert at(zero, -1) == -4
    assert at(RatF.pi_power(F2, 1), 2) == -2


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


def _workload_edge(q, fam, k, xterms):
    """diag(T^k, 1), or the mirabolic point with y = T^k and x the sum
    of c pi^d over xterms (x = 0 for P0)."""
    field = get_field(q)
    if fam == "diag":
        return mat_from_exps(field, (k, 0))
    x = RatF.zero(field)
    for d, c in xterms:
        x = x + RatF.pi_power(field, d) * RatF(Poly.const(field, c))
    return PPoint((x,), (k,)).matrix(field)


# [DERIVED] on edges shaped like the oracle workload's, where most
# lattices certify at a narrow window: (q, D, family, k, x terms, value)
WORKLOAD_DELTA = [
    (2, 4, "diag", 0, (), -2), (2, 4, "diag", 3, (), -16),
    (2, 4, "P", 1, ((1, 1),), -1), (2, 4, "P", 3, ((1, 1), (2, 1)), -1),
    (2, 4, "P0", -1, (), -4), (2, 4, "P0", 3, (), 5),
    (2, 5, "diag", 1, (), -4), (2, 5, "P", 2, ((1, 1),), -2),
    (2, 5, "P", 3, ((2, 1),), -4), (2, 5, "P0", 2, (), 1),
    (2, 6, "diag", 2, (), -8), (2, 6, "P0", -1, (), -4),
    (2, 7, "diag", 0, (), -2),
    (3, 3, "diag", 0, (), -6), (3, 3, "diag", 2, (), -54),
    (3, 3, "P", 1, ((1, 1),), -2), (3, 3, "P", 2, ((1, 2), (2, 1)), -6),
    (3, 3, "P0", -1, (), -18), (3, 3, "P0", 2, (), 10),
    (3, 4, "diag", 1, (), -18), (3, 4, "P", 2, ((1, 1),), -6),
]

# (level, family, k, x terms, value) at q = 2, D = 4
WORKLOAD_THETA = [
    ("T", "diag", 0, (), 2), ("T", "diag", 1, (), 4),
    ("T", "P", 2, ((1, 1),), -1), ("T", "P", 3, ((1, 1), (2, 1)), 1),
    ("T", "P0", 3, (), 4),
    ("T+1", "diag", 0, (), 2), ("T+1", "diag", 1, (), 4),
    ("T+1", "P", 2, ((1, 1),), -1), ("T+1", "P", 3, ((1, 1), (2, 1)), -2),
    ("T+1", "P0", 3, (), 4),
    ("T^2+T+1", "diag", 0, (), 6), ("T^2+T+1", "diag", 1, (), 12),
    ("T^2+T+1", "P", 2, ((1, 1),), 0),
    ("T^2+T+1", "P", 3, ((1, 1), (2, 1)), 0),
    ("T^2+T+1", "P0", 3, (), 6),
]


@pytest.mark.parametrize("q, D, fam, k, xterms, want", WORKLOAD_DELTA)
def test_workload_delta_values_pinned(q, D, fam, k, xterms, want):
    assert p_delta_direct(_workload_edge(q, fam, k, xterms), q, 2, D=D) \
        == want


@pytest.mark.parametrize("level, fam, k, xterms, want", WORKLOAD_THETA)
def test_workload_theta_values_pinned(level, fam, k, xterms, want):
    n = parse_poly(F2, level)
    assert p_theta_direct(n, _workload_edge(2, fam, k, xterms), 2, 2,
                          D=4) == want


@lru_cache(maxsize=None)
def _point(q, r, which, pr):
    """z at act precision pr for diag(T, 1, ...) (which = 0), or for the
    mirabolic point with x_1 = pi + pi^2 and y = T^which I."""
    field = get_field(q)
    big = extension_field(q, r)
    embed = embedding(q, big.q)
    pi = RatF.pi_power(field, 1)
    if which == 0:
        g = mat_from_exps(field, (1,) + (0,) * (r - 1))
    else:
        g = PPoint((pi + RatF.pi_power(field, 2),)
                   + (RatF.zero(field),) * (r - 2),
                   (which,) * (r - 1)).matrix(field)
    return act(g, base_points(q, r), big, embed, pr)


@lru_cache(maxsize=None)
def _default_ords(q, r, which, D):
    prev, g = drinfeld_coeffs(reduce_basis(_point(q, r, which, 200), q), D, r,
                              160)
    return prev[r - 1].ord(), g[r - 1].ord()


@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.integers(0, 3),
       st.integers(1, 4), st.integers(1, 40))
def test_narrow_window_certifies_or_raises(qr, which, D, window):
    # a window that returns a value returns the true ord g_r at both
    # depths: a narrow window may only fail, never mislead
    q, r = qr
    want = _default_ords(q, r, which, D)
    try:
        z = reduce_basis(_point(q, r, which, window + 40), q)
    except PrecisionError:
        return
    # on a reduced basis the recursion returns at any window: a window
    # too narrow shows only where g_r cancels
    prev, g = drinfeld_coeffs(z, D, r, window)
    try:
        got = prev[r - 1].ord(), g[r - 1].ord()
    except PrecisionError:
        return
    assert got == want


# (q, r, reduced order profile s, leading digits that cancel in g_r):
# every profile the cross-check and the oracle benchmark meet
CANCELLED = [
    (2, 2, (0, 0), 0), (2, 2, (0, 1), 0), (2, 2, (0, 2), 4),
    (2, 2, (0, 3), 12), (2, 2, (0, 4), 28), (2, 2, (0, 5), 60),
    (2, 2, (0, 6), 124), (2, 2, (0, 7), 252), (2, 2, (0, 8), 508),
    (3, 2, (0, 0), 0), (3, 2, (0, 1), 0), (3, 2, (0, 2), 18),
    (3, 2, (0, 3), 72),
    (2, 3, (0, 0, 0), 0), (2, 3, (0, 0, 1), 0), (2, 3, (0, 1, 1), 0),
    (2, 3, (0, 1, 2), 8), (2, 3, (0, 2, 2), 16),
    (3, 3, (0, 0, 0), 0), (3, 3, (0, 0, 1), 0), (3, 3, (0, 1, 1), 0),
    (3, 3, (0, 1, 2), 54),
]


def _cancelled_digits(a, r):
    """ord g_r minus the least order of the terms _solve_g sums for it,
    among those with a known leading digit."""
    big = a[0].field
    e = big.n // r
    q = big.p ** e
    gs = _solve_g(a, r)
    tq = Laurent.from_pairs(big, [(-q ** r, 1), (-1, big.neg(1))])
    terms = [a[r] * tq] + [gs[i - 1] * a[r - i].q_power(e * i)
                           for i in range(1, r)]
    return gs[r - 1].ord() - min(t.ord() for t in terms if not t.known_zero())


# profiles outside those, where the law under-predicts: (q, r, s,
# measured cancelled digits, the law's count); no workload lattice has
# one of these, and a count too low costs a window doubling, not a value
UNDER_PLANNED = [
    (2, 3, (0, 0, 3), 32, 24), (2, 3, (0, 2, 3), 40, 32),
    (2, 3, (0, 3, 3), 80, 48), (3, 3, (0, 2, 2), 162, 108),
    (2, 4, (0, 1, 2, 3), 80, 64),
]


def _profile_basis(q, r, s, window):
    """The reduced basis of diag(T^{s_r - s_1}, ..., 1), whose reduced
    orders are -s_r + s_i, at `window` coefficients."""
    field = get_field(q)
    big = extension_field(q, r)
    z = act(mat_from_exps(field, tuple(s[-1] - x for x in s)),
            base_points(q, r), big, embedding(q, big.q), window + 40)
    z = reduce_basis(z, q)
    assert sorted(x.ord() - min(y.ord() for y in z) for x in z) == list(s)
    return z


@pytest.mark.parametrize("q, r, s, digits", CANCELLED)
def test_cancelled_digits_follow_the_order_profile(q, r, s, digits):
    # the law q^r sum max(q^(s_i - 1) - 1, 0) that _first_window plans
    # with, at both depths
    window = 2 * digits + 16
    z = _profile_basis(q, r, s, window)
    assert _first_window(z, q) == digits + hb.oracle.MARGIN
    for a in exp_coefficients(z, max(3, s[-1]), r, window):
        assert _cancelled_digits(a, r) == digits


@pytest.mark.parametrize("q, r, s, digits, law", UNDER_PLANNED)
def test_cancelled_digits_outside_the_measured_profiles(q, r, s, digits, law):
    window = 2 * digits + 16
    z = _profile_basis(q, r, s, window)
    assert _first_window(z, q) == law + hb.oracle.MARGIN
    for a in exp_coefficients(z, max(3, s[-1]), r, window):
        assert _cancelled_digits(a, r) == digits


@pytest.mark.xfail(strict=True, reason="the _first_window law under-predicts "
                                       "these profiles")
@pytest.mark.parametrize("q, r, s, digits, law", UNDER_PLANNED)
def test_first_window_covers_the_cancelled_digits(q, r, s, digits, law):
    z = _profile_basis(q, r, s, 2 * digits + 16)
    assert _first_window(z, q) >= digits + hb.oracle.MARGIN


def test_cross_check_lattices_certify_at_the_planned_window(monkeypatch):
    # each lattice behind a criterion-2 value calls drinfeld_coeffs once,
    # at the window its reduced orders plan, and g_r is known there
    from hb.verify import criterion_oracle_cross_check
    lattices, windows = [], []
    real_direct, real_coeffs = hb.oracle._p_direct, hb.oracle.drinfeld_coeffs

    def direct(n, *args):
        lattices.append(2 if n is None else 4)
        return real_direct(n, *args)

    def coeffs(z, D, r, width):
        q = z[0].field.p ** (z[0].field.n // r)
        plan = max(MIN_WINDOW, _first_window(z, q))
        windows.append((width, plan))
        prev, top = real_coeffs(z, D, r, width)
        prev[r - 1].ord(), top[r - 1].ord()
        return prev, top
    monkeypatch.setattr(hb.oracle, "_p_direct", direct)
    monkeypatch.setattr(hb.oracle, "drinfeld_coeffs", coeffs)
    report = criterion_oracle_cross_check()
    assert report.passed
    assert len(windows) == sum(lattices)
    assert all(width == plan for width, plan in windows)
    assert max(windows) == (508 + hb.oracle.MARGIN,) * 2
