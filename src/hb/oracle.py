"""Valuations of the Drinfeld discriminant from first principles.

Everything here is computed inside F_{q^r}((pi)) with truncated series.
The basis z_1, ..., z_r of the A-lattice Lambda_z = A z_1 + ... + A z_r
is first reduced over A = F_q[T] (reduce_basis), so that
|sum a_i z_i| = max_i |a_i z_i|; the lattice is then cut off to a ball,
V = {sum a_i z_i : deg a_i <= D + ord z_i - max_j ord z_j}, anchored at
the smallest basis vector, which keeps at most r(D+1) of the F_q-basis
vectors z_i T^j.  The polynomial e_V(x) = prod_{lambda in V}(x - lambda)
is built one F_q-basis vector at a time through

    e_{V + F_q w}(x) = e_V(x)^q - e_V(w)^{q-1} e_V(x),

and the Drinfeld module coefficients follow from the functional equation
exp(Tx) = phi_T(exp(x)).  Delta is the top coefficient g_r of
phi_T = T + g_1 tau + ... + g_r tau^r, and the triangular solve for
g_1..g_r reads only the exp coefficients a_0..a_r.

The recursion needs the exact valuation of e_V(w) at each new w, and no
point of V is ever listed for it: on a reduced basis the F_q-basis
u_1, ..., u_t of V, the z_i T^j, is valuation-adapted, so the best
approximant in V of the next basis vector w is 0, and the product
formula for e_V(w) / (linear coefficient of e_V) collapses to

    ord(e_V(w) / alpha_0) = d - sum_{k > d} (q^{#{i : ord u_i >= k}} - 1)

at d = ord w.

A ball of n basis vectors costs O(n^2 + nK) series operations for the
exp coefficients a_0..a_K, not q^n.  The only convergence certificate is
empirical stabilization between truncation depths D-1 and D; the
underlying theory provides no effective bound, and output is labeled
accordingly.

Series carry their precision, so a window too narrow for a valuation
raises PrecisionError, never a wrong value.  Each lattice behind a value
works out its own window: MIN_WINDOW, or wider where its reduced orders
predict cancellation in g_r, doubled only for that lattice on a
collapse, up to MAX_WINDOW; a lattice planned above MAX_WINDOW is
refused before its recursion runs.

This is deliberately independent of the closed-form coefficient
formulas: it shares no code path with the discriminant module beyond the
base field arithmetic, which is what makes the cross-check meaningful.
"""

import copy
import math
from functools import lru_cache

from .building import mat_from_exps, mat_mul
from .fields import embedding, fq_echelon, get_field
from .laurent import Laurent, PrecisionError, StabilizationError, _prec_of
from .poly import RatF

# the narrowest series window a lattice starts at (_p_direct's
# certified_ord): every lattice of the tests and the benchmark where no
# digit of g_r cancels certifies at it
MIN_WINDOW = 10
# its widest, chosen by cost: Theta_{T^2+T+1} at diag(T^k, 1), D = k + 3,
# whose widest lattice needs 2^(k+4), took 2.1 s at k = 9 and 5.9 s (19 MB)
# at k = 10 (one in-process run, 2-core Xeon, Python 3.11.7); each
# doubling costs about three times the one before
MAX_WINDOW = 16384
# digits _first_window adds past the cancelled ones: 1 certified every
# measured lattice; timing could not tell 1 to 8 apart; 4 leaves room
MARGIN = 4
# lattice sums are refused above this rank
MAX_RANK = 3
# exp_coefficients refuses balls with more F_q-basis vectors than this
# (a ball of depth D has at most r(D+1)); its cost grows with the square
# of that number
MAX_BASIS = 64


def extension_field(q, r):
    """F_{q^r}, the field of the base points."""
    return get_field(q ** r)


def base_points(q, r):
    """z0 = (eps^{r-1}, ..., eps, 1) for the smallest multiplicative
    generator eps of F_{q^r}; any generator has degree exactly r over F_q."""
    big = extension_field(q, r)
    eps = big.multiplicative_generator()
    return tuple(Laurent.const(big, big.pow(eps, r - 1 - i)) for i in range(r))


def ratf_to_laurent(x, big, embed, prec):
    """An exact F_q(T) value as a Laurent series over the extension."""
    fl = x.finite_laurent()
    if fl is not None:
        return Laurent.from_pairs(big, [(e, embed[c]) for e, c in fl])
    lo = int(x.ord_inf())
    cs = x.pi_coeffs(lo, lo + prec)
    return Laurent(big, lo, [embed[c] for c in cs], lo + prec)


def act(g, z, big, embed, prec):
    """The point g . z: apply g to the column z, then divide by the last
    coordinate so that z_r = 1 again."""
    r = len(g)
    rows = []
    for i in range(r):
        acc = Laurent.zero(big)
        for j in range(r):
            if not g[i][j].is_zero():
                acc = acc + ratf_to_laurent(g[i][j], big, embed, prec) * z[j]
        rows.append(acc)
    jfac = rows[-1].inverse(prec)
    out = [x * jfac for x in rows[:-1]]
    return tuple(out) + (Laurent.one(big),)


@lru_cache(maxsize=None)
def _fq_coordinates(q, r):
    """The F_q-linear injection x -> (Tr(x eps^k))_{k < r} of F_{q^r}
    into F_q^r (Tr the trace to F_q, eps the generator of base_points),
    tabulated on the codes of F_{q^r}; its values are codes of F_{q^r}
    that lie in F_q."""
    big = extension_field(q, r)
    eps = big.multiplicative_generator()
    trace = big.traces(big.n // r)
    powers = [big.pow(eps, k) for k in range(r)]
    return tuple(tuple(trace[big.mul(x, e)] for e in powers)
                 for x in range(big.q))


def _lead_relation(z, q):
    """Nonzero c in F_q^r with sum c_i lead(z_i) = 0, or None if the
    leading coefficients of the z_i are F_q-independent."""
    coords = _fq_coordinates(q, len(z))
    _, deps = fq_echelon(z[0].field, [coords[x.coeffs[0]] for x in z])
    return next(iter(deps.values()), None)


def reduce_basis(z, q):
    """A reduced basis of the A-lattice A z_1 + ... + A z_r: the leading
    coefficients of the z_i, aligned by powers of T, are F_q-independent
    in F_{q^r}, so that ord(sum a_i z_i) = min_i (ord z_i - deg a_i) for
    any polynomials a_i.  While they are dependent, sum c_i lead(z_i) =
    0 with c_i in F_q (an F_q elimination on their coordinates), the
    largest z_j with c_j != 0 becomes

        sum_i c_i T^{ord z_i - ord z_j} z_i,

    a unimodular change that cancels its leading term (Lenstra's
    reduction over F_q[T], "Factoring multivariate polynomials over
    finite fields", J. Comput. Syst. Sci. 30, 1985).  The lattice, and
    with it Delta, is unchanged.  A cancellation that runs out of known
    coefficients raises PrecisionError."""
    big = z[0].field
    z = list(z)
    while True:
        ords = [x.ord() for x in z]
        c = _lead_relation(z, q)
        if c is None:
            return tuple(z)
        j = min((i for i, ci in enumerate(c) if ci), key=ords.__getitem__)
        w = Laurent.zero(big)
        for i, ci in enumerate(c):
            if ci:
                w = w + z[i].scale(ci).shift(ords[j] - ords[i])
        z[j] = w


def _first_window(z, q):
    """The window a reduced basis z first needs: the leading digits that
    cancel in g_r, q^r sum_i max(q^(s_i - 1) - 1, 0) for s_i = ord z_i -
    min_j ord z_j, plus MARGIN.  The count is measured (tests/test_oracle.py
    pins it), not proven; it only picks where the search starts, so a
    count too low costs a doubling, never a value."""
    low = min(x.ord() for x in z)
    digits = q ** len(z) * sum(max(q ** (x.ord() - low - 1) - 1, 0)
                               for x in z)
    return digits + MARGIN


class _Filtration:
    """The orders of a valuation-adapted F_q-basis u_1, ..., u_t of a
    subspace V of F_{q^r}((pi)), one with ord(sum c_i u_i) =
    min{ord u_i : c_i != 0} such as the z_i T^j of a reduced basis: all
    that the product formula reads."""

    def __init__(self, q):
        self.q = q
        self.orders = []

    def add(self, o):
        """Extend the basis by a vector of order o."""
        self.orders.append(o)
        # suffix[j] = sum_{k >= bottom + j} (q^{#{i : ord u_i >= k}} - 1)
        self.bottom, self.top = min(self.orders), max(self.orders)
        count, suffix = 0, [0]
        for k in range(self.top, self.bottom - 1, -1):
            count += self.orders.count(k)
            suffix.append(suffix[-1] + self.q ** count - 1)
        self.suffix = suffix[::-1]

    def copy(self):
        """An independent copy; add() replaces the suffix table, so the
        twins share it safely."""
        twin = copy.copy(self)
        twin.orders = list(self.orders)
        return twin

    def product_ord(self, d):
        """ord(w) + sum over nonzero lambda in V of (ord(w - lambda) -
        ord lambda) for a w of order d that extends the adapted basis:
        ord(w - lambda) = min(d, ord lambda), so this is
        d - sum_{k > d} (q^{#{i : ord u_i >= k}} - 1).  add() tabulates
        the sums for bottom <= d < top, the least and greatest ord u_i;
        below bottom each further term is q^{dim V} - 1, and from top
        on the sum is empty."""
        if not self.orders or d >= self.top:
            return d
        i = d + 1 - self.bottom
        if i < 0:
            return d - self.suffix[0] + i * (self.suffix[0] - self.suffix[1])
        return d - self.suffix[i]


def _window_step(x, y, c, e, width, t=None):
    """One step of the subspace recursion on a series: x + y^(p^e) c,
    cut to the width coefficients from its valuation, as one Laurent.
    With t None the valuation is the sum's own (the update a_k + a_{k-1}^q
    c); given t, known from the product formula, the sum is pinned there
    and its terms below pi^t dropped (a carried evaluation, y = x):
    PrecisionError if the sum is not known at pi^t, AssertionError if
    its pi^t term is zero.  The precision is the one that q_power, * and
    + give the sum, and only the window's coefficients are formed,
    straight from the codes of x, y and c by FF.conv and FF.add_at."""
    F = x.field
    k = F.p ** e
    # Laurent.__mul__'s precision for y^k c: infinite (exact) if either
    # factor is an exact zero
    prec = min(_prec_of(x), k * y._lower_bound() + _prec_of(c),
               c._lower_bound() + k * _prec_of(y))
    prec = None if prec == math.inf else prec
    lo = k * y.val + c.val                  # the product's first exponent
    product = y.coeffs and c.coeffs
    if t is not None:
        if prec is not None and t >= prec:
            raise PrecisionError(
                f"certified window ends at pi^{prec} but e_V(w) has "
                f"valuation {t}")
        a, b = t, t + width
    else:
        starts = ([x.val] if x.coeffs else []) + ([lo] if product else [])
        if not starts:
            return Laurent(F, 0, (), prec)
        a = min(starts)
        b = max(x.val + len(x.coeffs),
                lo + k * (len(y.coeffs) - 1) + len(c.coeffs))
    if prec is not None:
        b = min(b, prec)
    # the terms of pi^a .. pi^(b-1): those of x, then the product's
    out = [0] * min(max(x.val - a, 0), b - a)
    out += x.coeffs[max(a - x.val, 0):max(b - x.val, 0)]
    if product and lo < b:
        frob = F.frobenius(e)
        ys = [0] * (k * (len(y.coeffs) - 1) + 1)
        ys[::k] = [frob[v] for v in y.coeffs]
        cs = F.conv(ys, c.coeffs, b - lo)
        out = F.add_at(out, cs[max(a - lo, 0):], max(lo - a, 0), b - a)
    if t is not None:
        if not out or not out[0]:
            raise AssertionError(
                f"e_V(w) has no pi^{t} term at its product-formula valuation")
        return Laurent(F, t, out, b)
    lead = next((i for i, v in enumerate(out) if v), None)
    if lead is None:
        return Laurent(F, 0, (), prec)
    end = a + lead + width
    if prec is not None:
        end = min(end, prec)
    return Laurent(F, a + lead, out[lead:end - a], end)


def exp_coefficients(z, D, K, width):
    """Monic-normalized coefficients a_0 = 1, a_1, ..., a_K of x^{q^k}
    in e_V(x) / (linear coefficient of e_V) over the truncated lattices
    V = {sum a_i z_i : deg a_i <= d_i - 1} and {... : deg a_i <= d_i},
    d_i = D + ord z_i - max_j ord z_j, as the pair (depth D - 1 list,
    depth D list).  z must be a reduced basis (reduce_basis; ValueError
    otherwise), so these are the points of the lattice in the balls of
    radius |T^{D-1} z_s| and |T^D z_s|, z_s the smallest z_i, and their
    F_q-bases z_i T^j are valuation-adapted; a z_i with d_i < 0
    contributes nothing, so V has at most r(D + 1) basis vectors z_i T^j, and fewer
    unless all z_i have one order.  Past dim V the lists are padded with
    exact zeros, since a_k = 0 there.  Every series is cut to width
    coefficients from its valuation.  Each V is built one
    F_q-basis vector at a time by the subspace recursion divided through
    by its new linear coefficient:

        ehat'(x) = ehat(x) - ehat(x)^q / v^{q-1},    v = ehat(w).

    Working with the normalized coefficients is essential: the raw
    alpha_k carry valuations on the scale of the lattice point count,
    and any fixed-width certified window around them collapses.

    The evaluations v = ehat(w) are never formed as linear sums of the
    coefficients (the terms a_k w^{q^k} span a huge exponent range and
    the sum cancels far below any fixed window).  Instead the values
    ehat(w_m) at all later basis vectors are carried through the same
    recursion, one subtraction per step, each pinned at its exact
    valuation, the product formula for e_V(w_m)/alpha_0: on an adapted
    basis that is a table lookup on ord w_m (_Filtration.product_ord),
    and no point of V is ever listed.

    A step costs one inverse and q - 2 products for 1/v^{q-1}; then
    each a_k, k <= K, is one windowed step (_window_step: the window of
    a_k - a_{k-1}^q / v^{q-1}, formed from the coefficient codes in one
    pass), and so is each later basis vector's evaluation.  So n basis
    vectors cost O(n^2 + nK) windowed steps and series operations.

    Depth D adds the basis deepest z_i first (ties in index order), each
    as z_i T^0..T^{d_i}; depth D - 1 in the same order with every
    z_i T^{d_i} left out.  Both orders open with T^0..T^{D-1} times the
    deepest z_i, whose depth is D: those D steps run once, carrying the
    evaluations at every depth-D vector, and then the state forks.
    A carried evaluation depends only on the steps taken so far, so each
    list is the one a separate run at its depth would give.  On an
    adapted basis no step loses an evaluation's leading digit, so a
    window too narrow shows only where g_r cancels (_p_direct)."""
    big = z[0].field
    # the F_q-structure: q = p^e where e = (extension degree)/r is not
    # recoverable from big alone; infer from the rank instead
    r = len(z)
    e = big.n // r
    q = big.p ** e
    if _lead_relation(z, q) is not None:
        raise ValueError("z is not reduced: pass reduce_basis(z, q)")
    zero = Laurent.zero(big)

    def cap(x):
        if x.known_zero():
            return x
        bound = x.ord() + width
        if x.prec is not None:
            bound = min(bound, x.prec)
        return Laurent(big, x.val, x.coeffs[:max(bound - x.val, 0)], bound)

    def extend(coeffs, V, evals, order, start, stop):
        """Add the basis vectors order[start:stop] to V, carrying the
        evaluations at every vector after them in order; returns the
        new coefficient list (the input list is not changed)."""
        for pos in range(start, stop):
            t = order[pos]
            # v = evals[t] is pinned at its product-formula valuation
            # over this V already: the step that last updated it saw the
            # same V (at V = {0}, v is w itself)
            inv = evals[t].inverse(width)
            rho = inv                                    # 1/v^{q-1}
            for _ in range(q - 2):
                rho = cap(rho * inv)
            c = -rho
            # new[k] reads only coeffs[k] and coeffs[k-1]: stop at index K
            new = [Laurent.one(big)]
            for k in range(1, min(len(coeffs), K) + 1):
                x = coeffs[k] if k < len(coeffs) else zero
                new.append(_window_step(x, coeffs[k - 1], c, e, width))
            coeffs = new
            V.add(basis[t].ord())
            # push the later evaluations through the recursion, pinned
            # at their product-formula valuations over the enlarged V
            for m in order[pos + 1:]:
                evals[m] = _window_step(evals[m], evals[m], c, e, width,
                                        V.product_ord(basis[m].ord()))
        return coeffs

    def padded(coeffs):
        return coeffs[:K + 1] + [zero] * (K + 1 - len(coeffs))

    top = max(x.ord() for x in z)
    depth = [D + x.ord() - top for x in z]
    size = sum(d + 1 for d in depth if d >= 0)
    if size > MAX_BASIS:
        raise ValueError(f"truncated lattice has {size} basis vectors, "
                         f"more than {MAX_BASIS}; reduce D")
    basis, shallow = [], []
    for i in sorted(range(r), key=lambda i: -depth[i]):
        for j in range(depth[i] + 1):
            if j < depth[i]:
                shallow.append(len(basis))
            basis.append(z[i].shift(-j))
    deep = list(range(len(basis)))
    evals = [cap(w) for w in basis]   # ehat_V(w_m), exact at V = {0}
    V = _Filtration(q)
    coeffs = extend([Laurent.one(big)], V, evals, deep, 0, D)
    prev = extend(coeffs, V.copy(), list(evals), shallow, D, len(shallow))
    coeffs = extend(coeffs, V, evals, deep, D, len(deep))
    return padded(prev), padded(coeffs)


def drinfeld_coeffs(z, D, r, width):
    """g_1..g_r of phi_T = Tx + g_1 x^q + ... + g_r x^{q^r} for the
    lattice of z at truncation depths D - 1 and D (a pair of tuples),
    from one exp_coefficients recursion at this width.  g_k reads only
    a_0..a_k, so the exp coefficients stop at a_r."""
    prev, a = exp_coefficients(z, D, r, width)
    return _solve_g(prev, r), _solve_g(a, r)


def _solve_g(a, r):
    """The triangular solve of exp(Tx) = phi_T(exp(x)) for g_1..g_r,
    given the exp coefficients a_0..a_r of one truncated lattice."""
    big = a[0].field
    e = big.n // r
    q = big.p ** e
    gs = []
    for k in range(1, r + 1):
        tq = Laurent.from_pairs(big, [(-q ** k, 1), (-1, big.neg(1))])  # T^{q^k} - T
        acc = a[k] * tq
        for i in range(1, k):
            acc = acc - gs[i - 1] * a[k - i].q_power(e * i)
        gs.append(acc)
    return tuple(gs)


def p_delta_direct(g, q, r, D=6, windows=None):
    """P1(Delta_r)(g) = log_q|Delta(g S z0)| - log_q|Delta(g z0)|,
    S = diag(T, 1, ..., 1) — valuations from truncated lattice sums.
    A windows list receives each lattice's certifying window."""
    return _p_direct(None, g, q, r, D, windows)


def p_theta_direct(n, g, q, r, D=6, windows=None):
    """P1(Theta_n)(g) = P1(Delta)(g) - P1(Delta_n)(g) with
    Delta_n(z) = Delta(n z_1, z_2, ..., z_r); windows as for
    p_delta_direct."""
    return _p_direct(n, g, q, r, D, windows)


def _p_direct(n, g, q, r, D, windows):
    """P1(Delta_r)(g) for n None, else P1(Theta_n)(g)."""
    if r > MAX_RANK:
        raise ValueError(f"lattice sums are only tractable for "
                         f"r <= {MAX_RANK}")
    field = g[0][0].field
    big = extension_field(q, r)
    embed = embedding(q, big.q)
    z0 = base_points(q, r)
    gS = mat_mul(g, mat_from_exps(field, (1,) + (0,) * (r - 1)))

    def certified_ord(h, level, what):
        """ord g_r at depths D-1 and D on a reduced basis of the lattice
        of h z0 (z_1 times level, if any), certified by stabilization, at
        this lattice's own window, the one place a window is chosen:
        MIN_WINDOW or _first_window, whichever is wider, doubled on
        PrecisionError up to MAX_WINDOW; act 40 wider.  A plan above
        MAX_WINDOW raises PrecisionError before the recursion runs."""
        pr = MIN_WINDOW
        while True:
            try:
                z = act(h, z0, big, embed, pr + 40)
                if level is not None:
                    z = (ratf_to_laurent(RatF(level), big, embed, pr + 40)
                         * z[0],) + z[1:]
                z = reduce_basis(z, q)
                plan = _first_window(z, q)
                if plan <= pr:
                    prev, top = drinfeld_coeffs(z, D, r, pr)
                    o_prev, o = prev[r - 1].ord(), top[r - 1].ord()
                    break
            except PrecisionError:
                if pr >= MAX_WINDOW:
                    raise
                pr = min(2 * pr, MAX_WINDOW)
                continue
            if plan > MAX_WINDOW:
                raise PrecisionError(
                    f"{what}: its reduced basis plans a window of {plan} "
                    f"digits, more than {MAX_WINDOW}")
            pr = plan                   # act again, at the planned window
        if o_prev != o:
            raise StabilizationError(
                f"{what}: ord(Delta) moved from {o_prev} to {o} between "
                f"truncation depths {D-1} and {D}; increase --deg-bound")
        if windows is not None:
            windows.append(pr)
        return o

    oa = certified_ord(g, None, "Delta(g z0)")
    ob = certified_ord(gS, None, "Delta(g S z0)")
    if n is None:
        return oa - ob
    return (oa - ob) - (certified_ord(g, n, "Delta(n*g z0)")
                        - certified_ord(gS, n, "Delta(n*g S z0)"))
