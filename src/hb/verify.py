"""The verification suite: one driver per acceptance criterion, shared
between the test suite and `hb verify`.

Each criterion function returns a CriterionReport with exact residual
information; nothing here is tolerance-based except where a truncated
analytic sum is compared against its closed form, and there the bound
is the certified geometric tail.
"""

import itertools
import random
import time
from collections import namedtuple
from fractions import Fraction

from .algebra import CycRat
from .building import (canonical_vertex, check_harmonic_def,
                       check_harmonic_gl, extend_cochain, flip_matrix,
                       mat_from_exps, mat_identity, mat_mul, mat_scale,
                       type_one_in_neighbors, weyl_edge_value)
from .discriminant import (eval_on_mirabolic, p_delta_coefficient,
                           series_eval, theta_evaluator)
from .eisenstein import (eisenstein_at, eisenstein_truncated_sum,
                         identity_check_thm56)
from .fields import get_field
from .fourier import (FourierTable, PPoint, expand, fourier_coefficient,
                      poly_key, table_support)
from .oracle import p_delta_direct, p_theta_direct
from .poly import Poly, RatF, parse_poly
from .units import (cusp_orbits, cuspidal_order, gcd_sweep, root_order_delta,
                    root_order_theta, sigma_det_check)


class CriterionReport(namedtuple(
        "CriterionReport", "number name passed checks failures seconds notes")):
    """notes defaults to a fresh dict per report."""
    __slots__ = ()

    def __new__(cls, number, name, passed, checks, failures, seconds,
                notes=None):
        return super().__new__(cls, number, name, passed, checks, failures,
                               seconds, {} if notes is None else notes)


def _timed(number, name, fn):
    t0 = time.time()
    checks, failures, notes = fn()
    return CriterionReport(number=number, name=name,
                           passed=not failures, checks=checks,
                           failures=failures, seconds=time.time() - t0,
                           notes=notes)


def _weyl_types(r, kmax):
    """Each dominant type k_1 >= ... >= k_{r-1} >= k_r = 0 with
    k_1 <= kmax, once."""
    for k in itertools.combinations_with_replacement(range(kmax, -1, -1),
                                                     r - 1):
        yield k + (0,)


# ---------------------------------------------------------------- 1
def criterion_weyl_values():
    """Closed-form values on the Weyl chamber, cross-checked against the
    finite Fourier sum at the scaled diagonal point."""
    def run():
        checks, failures = 0, []
        for q in (2, 3, 4):
            field = get_field(q)
            for r in (2, 3, 4):
                x0 = (RatF.zero(field),) * (r - 1)
                v = series_eval(x0, (1,) * (r - 1), r, field)
                checks += 1
                if v != -(q - 1):
                    failures.append(("P1(Delta)(0, T I)", q, r, v))
                for kt in _weyl_types(r, 3):
                    w = weyl_edge_value(q, kt)
                    expected = -(q - 1) * q ** ((r - 1) * (kt[0] + 1)
                                                - sum(kt[1:]))
                    # independent route: diag(T^{k_i}) scaled into the
                    # mirabolic cell is (x, y) = (0, diag(T^{k_i - k_1}))
                    yexps = tuple(k - kt[0] for k in kt[1:])
                    s = series_eval(x0, yexps, r, field)
                    checks += 2
                    if w != expected:
                        failures.append(("formula", q, kt, w, expected))
                    if s != expected:
                        failures.append(("series", q, kt, s, expected))
        return checks, failures, {}
    return _timed(1, "Weyl-chamber values", run)


# ---------------------------------------------------------------- 2
def _sample_edges(field):
    """The four diagonal anchors, ten P-coset points with x != 0, and
    seven with x = 0."""
    edges = []
    for k in range(4):
        edges.append((f"diag(T^{k},1)", mat_from_exps(field, (k, 0))))
    xs = [RatF.pi_power(field, 1),
          RatF.pi_power(field, 2),
          RatF.pi_power(field, 1) + RatF.pi_power(field, 2),
          RatF.pi_power(field, 3),
          RatF.pi_power(field, 1) + RatF.pi_power(field, 3)]
    for n in (2, 3):
        for x in xs:
            edges.append((f"P(x,n={n})", PPoint((x,), (n,)).matrix(field)))
    for n in (0, 1, 2, 3, 4, 5, -1):
        edges.append((f"P(0,n={n})", PPoint((RatF.zero(field),), (n,)).matrix(field)))
    return edges


def criterion_oracle_cross_check():
    """Lattice-sum valuations versus the closed-form Fourier series:
    P1(Delta_2) and P1(Theta_n) at q = r = 2, the diagonal anchors
    diag(1, ..., 1) and diag(T, 1, ..., 1) at (q, r) = (2, 3) and (3, 2),
    mirabolic points with x != 0 at r = 3, q in {2, 3}, and two deep
    diagonal edges of Theta_n."""
    def run():
        checks, failures = 0, []

        def check_delta(label, g, q, r, D):
            nonlocal checks
            field = g[0][0].field
            direct = p_delta_direct(g, q, r, D=D)
            # the samples are upper triangular: scaling the top-left
            # entry to 1 puts them in the mirabolic
            series = eval_on_mirabolic(
                mat_scale(g, RatF.one(field) / g[0][0]), r, field)
            checks += 1
            if direct != series:
                failures.append(("pDelta", label, direct, series))

        field = get_field(2)
        edges = _sample_edges(field)
        for label, g in edges:
            check_delta(label, g, 2, 2, 6)
        anchors = 0
        for q, r in ((2, 3), (3, 2)):
            for k in (0, 1):
                exps = (k,) + (0,) * (r - 1)
                check_delta(f"q={q},r={r},diag(T^{k},1,...)",
                            mat_from_exps(get_field(q), exps), q, r, 6)
                anchors += 1
        rank3 = 0
        for q in (2, 3):
            fq = get_field(q)
            pi, pi2 = RatF.pi_power(fq, 1), RatF.pi_power(fq, 2)
            for y in ((1, 1), (2, 1), (2, 2)):
                for xl, x in (("pi,0", (pi, RatF.zero(fq))),
                              ("pi,pi", (pi, pi)), ("pi^2,pi", (pi2, pi))):
                    check_delta(f"q={q},r=3,P(x=({xl}),n={y})",
                                PPoint(x, y).matrix(fq), q, 3, 5)
                    rank3 += 1
        theta_edges = edges[:4] + [edges[4], edges[8]]  # anchors + nonzero x
        theta = [(s, label, g, 6) for s in ("T", "T+1", "T^2+T+1")
                 for label, g in theta_edges]
        # deep diagonal edges: they stabilize once the truncation is a
        # ball in the lattice
        deep = [("T^3+T+1", "diag(T^4,1)", mat_from_exps(field, (4, 0)), 8),
                ("T^2+T+1", "diag(T^5,1)", mat_from_exps(field, (5, 0)), 8)]
        levels = {s: parse_poly(field, s) for s, _, _, _ in theta + deep}
        h1 = {s: theta_evaluator(n, field, 2) for s, n in levels.items()}
        for s, label, g, D in theta + deep:
            direct = p_theta_direct(levels[s], g, 2, 2, D=D)
            series = h1[s](g)
            checks += 1
            if direct != series:
                failures.append(("pTheta", s, label, direct, series))
        return checks, failures, {"edges": len(edges), "levels": 3,
                                  "wider_anchors": anchors,
                                  "rank3_points": rank3,
                                  "deep_theta_edges": len(deep)}
    return _timed(2, "oracle cross-check", run)


# ---------------------------------------------------------------- 3
def _gl_sample(field, r):
    """Ten coset reps spread over both Iwasawa cells, and flip diag(T^k,
    1, ..., 1) for k = 3, 4."""
    gs = [mat_identity(field, r),
          mat_from_exps(field, tuple(range(r - 1, -1, -1))),
          mat_from_exps(field, (2,) + (0,) * (r - 1)),
          flip_matrix(field, r),
          mat_mul(mat_from_exps(field, (1,) + (0,) * (r - 1)),
                  flip_matrix(field, r)),
          mat_mul(flip_matrix(field, r),
                  mat_from_exps(field, (1,) + (0,) * (r - 1)))]
    for k in (1, 2):
        p = [[RatF.one(field) if i == j else RatF.zero(field)
              for j in range(r)] for i in range(r)]
        p[0][1] = RatF.pi_power(field, k)
        p = tuple(tuple(row) for row in p)
        gs += [p, mat_mul(p, flip_matrix(field, r))]
    for k in (3, 4):
        gs.append(mat_mul(flip_matrix(field, r),
                          mat_from_exps(field, (k,) + (0,) * (r - 1))))
    return gs


def criterion_harmonicity():
    """Theta_T satisfies both coset-sum identities at sampled reps for
    (q, r) in {2,3}^2, and its edge-cochain extension satisfies the four
    defining conditions at >= 25 vertices."""
    def run():
        checks, failures = 0, []
        for q in (2, 3):
            field = get_field(q)
            n = parse_poly(field, "T")
            for r in (2, 3):
                h1 = theta_evaluator(n, field, r)
                for g in _gl_sample(field, r):
                    for item in check_harmonic_gl(h1, g):
                        checks += 1
                        if not item.ok:
                            failures.append(("GL", q, r, item.condition,
                                             item.residual, item.note))
        plan = [(2, 2, 8), (3, 2, 8), (2, 3, 9)]
        vertex_total = 0
        for q, r, count in plan:
            field = get_field(q)
            n = parse_poly(field, "T")
            h = extend_cochain(theta_evaluator(n, field, r), r, field)
            # shallow diagonal vertices plus small off-diagonal shears:
            # plenty of distinct homothety classes with small supports
            verts = []
            shears = [RatF.zero(field), RatF.one(field),
                      RatF(parse_poly(field, "T"))]
            for exps in itertools.product(range(3), repeat=r):
                base = mat_from_exps(field, exps)
                verts.append(canonical_vertex(base))
                for x in shears[1:]:
                    rows = [list(row) for row in base]
                    rows[0][r - 1] = rows[0][r - 1] + x
                    verts.append(canonical_vertex(
                        tuple(tuple(row) for row in rows)))
            seen, uniq = set(), []
            for v in verts:
                if v.key not in seen:
                    seen.add(v.key)
                    uniq.append(v)
            for v in uniq[:count]:
                vertex_total += 1
                for item in check_harmonic_def(h, v, field, max_flags=6):
                    checks += 1
                    if not item.ok:
                        failures.append(("def", q, r, item.condition,
                                         item.residual, item.note))
        if vertex_total < 25:
            failures.append(("vertex-budget", vertex_total, 25))
        return checks, failures, {"vertices": vertex_total}
    return _timed(3, "harmonicity", run)


# ---------------------------------------------------------------- 4
def criterion_fourier(trials=100, with_oracle=True):
    """Coefficient/expansion round trip on random tables, and the
    oracle-backed coefficients of P1(Delta_2)."""
    def run():
        rng = random.Random(7)
        checks, failures = 0, []
        configs = [(2, (3,)), (3, (3,)), (2, (2, 2)), (2, (3, 2))]
        for q, yexps in configs:
            field = get_field(q)
            support = table_support(field, yexps)
            for _ in range(trials):
                entries = {poly_key(a): CycRat.from_rational(
                               field.p, field.q,
                               Fraction(rng.randint(-9, 9),
                                        q ** rng.randint(0, 3)))
                           for a in support}
                tbl = FourierTable(field, yexps, entries)
                h = lambda u, _y: expand(tbl, u)
                for avec in support:
                    got = fourier_coefficient(h, avec, yexps, field)
                    want = entries[poly_key(avec)]
                    checks += 1
                    if got != want:
                        failures.append(("roundtrip", q, yexps,
                                         poly_key(avec)))
        notes = {"roundtrip_configs": len(configs), "trials": trials}
        if with_oracle:
            field = get_field(2)
            h = lambda u, yexps: p_delta_direct(
                PPoint(u, yexps).matrix(field), 2, 2)
            one = parse_poly(field, "1")
            t = parse_poly(field, "T")
            zero = Poly.zero(field)
            cases = [((one,), (2,), Fraction(3, 2)),
                     ((t,), (3,), p_delta_coefficient((t,), (3,), 2)),
                     ((zero,), (2,), Fraction(-1, 2))]
            for avec, yexps, want in cases:
                got = fourier_coefficient(h, avec, yexps, field).rational()
                checks += 1
                if got != want:
                    failures.append(("oracle-coeff", poly_key(avec), yexps,
                                     got, want))
            notes["oracle_cases"] = len(cases)
        return checks, failures, notes
    return _timed(4, "Fourier engine", run)


# ---------------------------------------------------------------- 5
def criterion_klf_chain():
    def run():
        items = identity_check_thm56(qs=(2, 3), rs=(2, 3), amax=2, nmax=4)
        bad = [(i.q, i.r, i.a, i.yexps, i.lhs, i.rhs)
               for i in items if not i.ok]
        return len(items), bad, {}
    return _timed(5, "Kronecker-limit chain", run)


# ---------------------------------------------------------------- 6
def criterion_eisenstein():
    def run():
        rng = random.Random(11)
        checks, failures = 0, []
        for _ in range(20):
            q = rng.choice([2, 3])
            r = rng.choice([2, 3])
            nvec = tuple(rng.randint(-3, 3) for _ in range(r))
            s0 = rng.randint(2, 4)
            N = rng.randint(0, 8)
            ts = eisenstein_truncated_sum(nvec, q, s0, N)
            v = eisenstein_at(nvec, q, s0)
            checks += 1
            if abs(v - ts.value) > ts.tail_bound:
                failures.append(("tail", q, nvec, s0, N))
        anchor = eisenstein_truncated_sum((0, 0), 2, 2, 8)
        checks += 1
        if abs(Fraction(64, 15) - anchor.value) >= Fraction(1, 1000):
            failures.append(("anchor 64/15", anchor.value))
        return checks, failures, {}
    return _timed(6, "Eisenstein closed form", run)


# ---------------------------------------------------------------- 7
def criterion_sigma_det():
    def run():
        checks, failures = 0, []
        sign_log = []
        prime_strings = {2: ("T", "T+1", "T^2+T+1"), 3: ("T", "T+1", "T+2")}
        for q, strs in prime_strings.items():
            field = get_field(q)
            primes = [parse_poly(field, s) for s in strs]
            for k in (1, 2, 3):
                for s in (1, 2, 3):
                    rep = sigma_det_check(primes[:k], s)
                    checks += 1
                    if not rep.magnitude_ok:
                        failures.append(("magnitude", q, k, s, rep.det,
                                         rep.expected_magnitude))
                    sign_log.append((q, k, s, rep.sign, rep.empirical_sign,
                                     rep.sign == rep.stated_sign))
        return checks, failures, {"signs": sign_log,
                                  "k1_sign_discrepancy": any(
                                      not m for _, k, _, _, _, m in sign_log
                                      if k == 1)}
    return _timed(7, "divisor-sum determinant", run)


# ---------------------------------------------------------------- 8
def criterion_root_orders():
    def run():
        checks, failures = 0, []
        for q, expected in ((2, 1), (3, 2), (4, 3), (5, 4)):
            checks += 1
            if root_order_delta(q) != expected:
                failures.append(("delta", q))
        samples = {2: ("T", "T+1", "T^2+T+1", "T^3+T+1"),
                   3: ("T", "T+1", "T^2+1", "T^3+2*T+1")}
        from math import gcd as igcd
        for q, strs in samples.items():
            field = get_field(q)
            for s in strs:
                n = parse_poly(field, s)
                for r in (2, 3, 4, 5):
                    rd = root_order_theta(n, r)
                    want = (q - 1) * (q ** igcd(int(n.deg), r) - 1)
                    checks += 2
                    if rd.max_root != want:
                        failures.append(("theta", q, s, r, rd.max_root, want))
                    if not rd.gcd_ok:
                        failures.append(("witness-gcd", q, s, r))
        bad = gcd_sweep(qs=(2, 3, 4, 5), dmax=8, rmax=5)
        checks += 1
        if bad:
            failures.append(("sweep", bad[:5]))
        return checks, failures, {}
    return _timed(8, "root orders", run)


# ---------------------------------------------------------------- 9
def criterion_cusps():
    def run():
        checks, failures = 0, []
        for q in (2, 3):
            field = get_field(q)
            for s_str, s in (("T", 1), ("T+1", 1), ("T^2+T", 2)):
                n = parse_poly(field, s_str)
                for r in (2, 3):
                    rep = cusp_orbits(n, r)
                    checks += 2
                    if rep.orbit_count != 2 ** s:
                        failures.append(("orbits", q, s_str, r,
                                         rep.orbit_count, 2 ** s))
                    if sum(rep.orbit_sizes) != rep.total:
                        failures.append(("orbit-sizes", q, s_str, r))
        c1 = cuspidal_order(parse_poly(get_field(2), "T"), 3)
        c2 = cuspidal_order(parse_poly(get_field(3), "T^3+T^2+2"), 2)
        checks += 2
        if c1.order != 3:
            failures.append(("order q=2 r=3 p=T", c1.order))
        if c2.order != 13:
            failures.append(("order q=3 r=2 degp=3", c2.order))
        return checks, failures, {}
    return _timed(9, "cusp orbits and orders", run)


# ---------------------------------------------------------------- 10
def criterion_neighbor_counts():
    def run():
        checks, failures = 0, []
        for q in (2, 3):
            field = get_field(q)
            for r in (2, 3, 4):
                expected = (q ** r - 1) // (q - 1)
                for exps in ((0,) * r, (1,) + (0,) * (r - 1),
                             tuple(range(r))):
                    edges = type_one_in_neighbors(mat_from_exps(field, exps))
                    keys = {e.key for e in edges}
                    checks += 2
                    if len(edges) != expected:
                        failures.append(("count", q, r, exps, len(edges)))
                    if len(keys) != expected:
                        failures.append(("distinct", q, r, exps, len(keys)))
        return checks, failures, {}
    return _timed(10, "type-1 neighbor counts", run)


# ----------------------------------------------------------------------

def run_suite(level="quick"):
    """quick: everything except the lattice-sum oracle comparisons;
    full: the complete acceptance battery."""
    full = level == "full"
    reports = [criterion_weyl_values()]
    if full:
        reports.append(criterion_oracle_cross_check())
    return reports + [
        criterion_harmonicity(),
        criterion_fourier(trials=100 if full else 10, with_oracle=full),
        criterion_klf_chain(), criterion_eisenstein(), criterion_sigma_det(),
        criterion_root_orders(), criterion_cusps(),
        criterion_neighbor_counts()]
