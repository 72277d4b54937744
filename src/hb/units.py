"""Arithmetic of the modular units Theta_n and of cuspidal divisors:
the determinant of level-restricted divisor sums, root orders of Delta_r
and Theta_n, the order of the determinant character, cusp-orbit counts
on X_0^r(n), and the order of the cuspidal divisor group at a prime
level.

Everything here is finite arithmetic: exact determinants over Q,
integer gcds, and a breadth-first orbit search over the primitive
vectors of (A/n)^r modulo the scalars F_q^x.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .algebra import sigma
from .fields import MAX_FIELD, embedding, get_field
from .poly import Poly, factor_degrees, is_irreducible

# cusp_orbits refuses orbit spaces with more states than this
MAX_CUSP_STATES = 200_000


# ----------------------------------------------------------------------
# the divisor-sum determinant

def _bareiss_det(M):
    """Exact determinant by fraction-free elimination (entries Fraction)."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


# empirical_sign is (-1)^(k-1), what the computation produces, and
# stated_sign -1, the published value (see sigma_det_check)
SigmaDetReport = namedtuple("SigmaDetReport", "primes s size det "
                            "expected_magnitude magnitude_ok sign "
                            "empirical_sign stated_sign")


def sigma_det_exponent(primes, s):
    """An e with q^e above |det| in sigma_det_check(primes, s)."""
    # 2^k - 1 rows of at most 2^k <= |n| terms |c|^s, and 7! < 2^13
    deg_n = sum(int(p.deg) for p in primes if not p.is_zero())
    return (2 ** len(primes) - 1) * (abs(s) + 1) * deg_n + 13


def sigma_det_check(primes, s):
    """The matrix (sigma_{m'}(s, m)) over the nontrivial monic divisors
    m, m' of n = prod(primes): exact determinant, the magnitude law
    |det| = |n|^{s (2^{k-1}-1)}, and the sign on record.

    The published statement gives det = -|n|^{s(2^{k-1}-1)}; direct
    evaluation gives sign (-1)^{k-1} (so +1 for a single prime).  Both
    are reported; only the magnitude is treated as load-bearing."""
    k = len(primes)
    if not 1 <= k <= 3:
        raise ValueError("1 to 3 primes")
    if len({tuple(p.coeffs) for p in primes}) != k:
        raise ValueError("primes must be distinct")
    field = primes[0].field
    q = field.q
    for p in primes:
        if not is_irreducible(p):
            raise ValueError(f"{p} is not irreducible")
    # nontrivial divisors of n, as subset products, in the binary
    # counting order of the prime list (subset {p_1} first)
    divisors = []
    for mask in range(1, 2 ** k):
        d = Poly.one(field)
        for i in range(k):
            if mask >> i & 1:
                d = d * primes[i]
        divisors.append(d)
    M = [[sigma(s, (m,), mp) for mp in divisors] for m in divisors]
    det = _bareiss_det(M)
    deg_n = sum(int(p.deg) for p in primes)
    expected = Fraction(q) ** (deg_n * s * (2 ** (k - 1) - 1))
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    return SigmaDetReport(primes=tuple(primes), s=s, size=2 ** k - 1,
                          det=det, expected_magnitude=expected,
                          magnitude_ok=abs(det) == expected,
                          sign=sign, empirical_sign=(-1) ** (k - 1),
                          stated_sign=-1)


# ----------------------------------------------------------------------
# root orders

def root_order_delta(q):
    """The largest m with an m-th root of Delta_r: q - 1.  The witness
    value P1(Delta)(0, T I) = -(q-1) forces m | q-1."""
    return q - 1


# witness_level is (q-1)(|n|^{r-1}-1), the order at the infinity cusp,
# and witness_aux (q-1)(q^{(deg n - 1)(r-1)} - q)
RootDatum = namedtuple("RootDatum", "n r kappa max_root character_order "
                       "witness_level witness_aux gcd_ok")


def root_order_exponent(n, r):
    """An e with q^e above root_order_theta's witness (q-1)(|n|^{r-1}-1)."""
    return int(n.deg) * (r - 1) + 1


def root_order_theta(n, r):
    """The largest m with an m-th root of Theta_n:
    (q-1)(q^{gcd(deg n, r)} - 1), together with the two divisibility
    witnesses whose gcd recovers it.  A level of degree 0 has Theta_n =
    Delta / Delta = 1, with no largest root."""
    if n.deg < 1:
        raise ValueError("the level has degree below 1; Theta_n = 1 at a "
                         "unit level, with roots of every order")
    q = n.field.q
    d = int(n.deg)
    kappa = gcd(d, r)
    max_root = (q - 1) * (q ** kappa - 1)
    w1 = (q - 1) * (q ** (d * (r - 1)) - 1)
    w2 = (q - 1) * (q ** ((d - 1) * (r - 1)) - q)
    g = gcd(w1, abs(w2))
    return RootDatum(n=n, r=r, kappa=kappa, max_root=max_root,
                     character_order=character_order(n, r),
                     witness_level=w1, witness_aux=w2,
                     gcd_ok=(g == max_root and w1 % max_root == 0
                             and (w2 % max_root == 0)))


def gcd_sweep(qs=(2, 3, 4, 5), dmax=8, rmax=5):
    """gcd((q-1)(q^d - 1), (q-1)(q^{(d-1)(r-1)} - q))
    = (q-1)(q^{gcd(d,r)} - 1) over the whole small grid."""
    bad = []
    for q in qs:
        for d in range(1, dmax + 1):
            for r in range(2, rmax + 1):
                lhs = gcd((q - 1) * (q ** d - 1),
                          abs((q - 1) * (q ** ((d - 1) * (r - 1)) - q)))
                rhs = (q - 1) * (q ** gcd(d, r) - 1)
                if lhs != rhs:
                    bad.append((q, d, r, lhs, rhs))
    return bad


def character_order(n, r):
    """The order of the determinant character attached to Theta_n:
    (q-1)/gcd(q-1, m_1, ..., m_s, (r-1) deg(n)/kappa) for
    n = prod p_i^{m_i}; q-1 whenever n is squarefree."""
    q = n.field.q
    d = int(n.deg)
    kappa = gcd(d, r)
    mults = [m for _d, m in factor_degrees(n)]
    return (q - 1) // gcd(q - 1, *mults, (r - 1) * d // kappa)


# ----------------------------------------------------------------------
# cusps

OrbitReport = namedtuple("OrbitReport", "n r total orbit_count orbit_sizes")


def _canonical(state, comps, base):
    """Minimum over F_q^x of the scalar multiples of the state."""
    best = None
    for lam in range(1, base.q):
        scaled = tuple(tuple(F.mul(emb[lam], x) for x in vec)
                       for (F, emb), vec in zip(comps, state))
        if best is None or scaled < best:
            best = scaled
    return best


def cusp_orbits(n, r):
    """Orbits of the primitive vectors (prod (F_p^r - 0)) / F_q^x under
    the reduction of Gamma_0(n): transvections e_{ij}(b) away from the
    below-diagonal first column, diag(u, 1, ..., 1, u^{-1}) for units u
    of A/n, and diag(eps, 1, ..., 1) for eps in F_q^x; the search applies
    a small generating set of that group.

    A/n is the product of its residue fields A/p, and A/p is F_{q^{deg p}}
    whatever p is, so each component is built from the factor degrees of
    n alone, as F_{q^d} with the embedding of F_q, in ascending d; no
    factor p is found.  An orbit space of more than MAX_CUSP_STATES
    states, or a residue field of more than fields.MAX_FIELD elements,
    is refused from those degrees, before any field is built or any
    state listed."""
    base = n.field
    degrees = factor_degrees(n)
    if any(m != 1 for _d, m in degrees):
        raise ValueError("level must be squarefree")
    total = 1
    for d, _m in degrees:
        total *= base.q ** (d * r) - 1
    # at a unit level (A/n)^r is one point, which every scalar fixes
    count = total // (base.q - 1) if degrees else 1
    if count > MAX_CUSP_STATES:
        raise ValueError(f"orbit space of {count} states, more than "
                         f"{MAX_CUSP_STATES}; reduce q, r or deg n")
    top = base.q ** max((d for d, _m in degrees), default=0)
    if top > MAX_FIELD:
        raise ValueError(f"a residue field of {top} elements, more than "
                         f"{MAX_FIELD}")
    comps = [(get_field(base.q ** d), embedding(base.q, base.q ** d))
             for d, _m in degrees]

    def transvection(i, j, beta):
        def act(state):
            out = []
            for (F, _), b, vec in zip(comps, beta, state):
                new = list(vec)
                new[i] = F.add(new[i], F.mul(b, vec[j]))
                out.append(tuple(new))
            return tuple(out)
        return act

    def torus(u):
        inv = tuple(F.inv(x) for (F, _), x in zip(comps, u))
        def act(state):
            out = []
            for (F, _), x, xi, vec in zip(comps, u, inv, state):
                new = list(vec)
                new[0] = F.mul(x, new[0])
                new[r - 1] = F.mul(xi, new[r - 1])
                out.append(tuple(new))
            return tuple(out)
        return act

    def scalar_first(eps):
        def act(state):
            out = []
            for (F, emb), vec in zip(comps, state):
                new = list(vec)
                new[0] = F.mul(emb[eps], new[0])
                out.append(tuple(new))
            return tuple(out)
        return act

    # generators of the same group: transvections at an F_p-basis of
    # each residue field (codes p^j), a generator of each F_p^x, and one
    # of F_q^x
    zeros, ones = (0,) * len(comps), (1,) * len(comps)
    gens = []
    for c, (F, _) in enumerate(comps):
        for k in range(F.n):
            beta = zeros[:c] + (F.p ** k,) + zeros[c + 1:]
            gens += [transvection(i, j, beta) for i in range(r) for j in range(r)
                     if i != j and not (j == 0 and i >= 1)]
        gens.append(torus(ones[:c] + (F.multiplicative_generator(),) + ones[c + 1:]))
    if base.q > 2:
        gens.append(scalar_first(base.multiplicative_generator()))

    nonzero = [
        [v for v in itertools.product(range(F.q), repeat=r)
         if any(x != 0 for x in v)]
        for F, _ in comps]
    states = {_canonical(s, comps, base)
              for s in itertools.product(*nonzero)}
    assert len(states) == count

    seen = set()
    sizes = []
    for start in sorted(states):
        if start in seen:
            continue
        frontier = [start]
        seen.add(start)
        size = 0
        while frontier:
            s = frontier.pop()
            size += 1
            for g in gens:
                t = _canonical(g(s), comps, base)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        sizes.append(size)
    return OrbitReport(n=n, r=r, total=len(states),
                       orbit_count=len(sizes),
                       orbit_sizes=tuple(sorted(sizes)))


# theta_pole_order is the order at the infinity cusp, -(|p|^{r-1}-1)
CuspidalReport = namedtuple("CuspidalReport", "p r order theta_pole_order")


def cuspidal_exponent(p, r):
    """An e with q^e above cuspidal_order's |p|^{r-1} - 1 and q^r - 1."""
    return max(int(p.deg) * (r - 1), r) + 1


def cuspidal_order(p, r):
    """Order of the cuspidal divisor class group of X_0^r(p):
    (|p|^{r-1} - 1)/gcd(|p| - 1, q^r - 1)."""
    if not is_irreducible(p):
        raise ValueError("level must be irreducible")
    q = p.field.q
    np = q ** int(p.deg)
    g = gcd(np - 1, q ** r - 1)
    top = np ** (r - 1) - 1
    if top % g:
        raise AssertionError("divisibility gcd(|p|-1, q^r-1) | |p|^{r-1}-1 failed")
    return CuspidalReport(p=p, r=r, order=top // g,
                          theta_pole_order=-(np ** (r - 1) - 1))
