"""Fourier expansions on the mirabolic coset space.

A function h on Gamma_inf \\ P(F_inf) / P(O_inf) is encoded by its
values h(x, y) at x a vector of r-1 exact Laurent values and y a
diagonal matrix diag(T^{n_1}, ..., T^{n_{r-1}}), written here as the
exponent tuple.  Coefficients are cyclotomic rationals

    h*(a, y) = q^{(1-M)(r-1)} sum_{u in (pi O/pi^M O)^{r-1}} h(u,y) psi(-a.u)

with the u-grid depth M large enough both for the y-level (max n_i) and
for the character a (max deg a_i + 2), so that out-of-support
coefficients genuinely vanish instead of aliasing.

The shape-only data (a table's support with its keys, and a grid's
single-coordinate representatives) are built once per shape and shared
by every later call, so expand and fourier_coefficient rebuild neither.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .algebra import psi_sum
from .poly import Poly, RatF, ratf_from_pairs


class PPoint(namedtuple("PPoint", "x yexps")):
    """The mirabolic point [[1, x y], [0, y]], y = diag(T^{n_i}) for yexps."""
    __slots__ = ()

    def matrix(self, field):
        r = len(self.x) + 1
        rows = [[RatF.one(field)]
                + [self.x[j] * RatF.pi_power(field, -self.yexps[j])
                   for j in range(r - 1)]]
        for i in range(r - 1):
            rows.append([RatF.zero(field)] * (1 + i)
                        + [RatF.pi_power(field, -self.yexps[i])]
                        + [RatF.zero(field)] * (r - 2 - i))
        return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=4096)
def _shared(key):
    return key


def poly_key(avec):
    """The coefficient tuples of an a-vector, as a table key.  Equal
    keys come back as one shared tuple while they stay in the memo:
    tables over one support repeat the same keys."""
    return _shared(tuple(a.coeffs for a in avec))


def polys_up_to(field, d):
    """All polynomials of degree <= d (just 0 when d < 0)."""
    if d < 0:
        return [Poly.zero(field)]
    return [Poly(field, cs) for cs in
            itertools.product(range(field.q), repeat=d + 1)]


# shapes are few: verify and the benchmark use seven between them
@lru_cache(maxsize=64)
def _support_and_keys(field, yexps):
    axes = [polys_up_to(field, n - 2) for n in yexps]
    support = tuple(itertools.product(*axes))
    return support, tuple(poly_key(a) for a in support)


def table_support(field, yexps):
    """All a-vectors with deg a_i <= n_i - 2, as one tuple shared by
    every call for the shape."""
    return _support_and_keys(field, tuple(yexps))[0]


# entries maps poly_key(a) to a CycRat
FourierTable = namedtuple("FourierTable", "field yexps entries")


def mval(avec, yexps):
    """Largest m with a (y^t)^{-1} in (pi^m O)^{r-1} for y = diag(T^{n_i});
    +inf iff a = 0."""
    if all(a.is_zero() for a in avec):
        return float("inf")
    return min(n - int(a.deg) for n, a in zip(yexps, avec) if not a.is_zero())


def grid_depth(avec, yexps):
    m = max(max(yexps), 1)
    degs = [int(a.deg) for a in avec if not a.is_zero()]
    if degs:
        m = max(m, max(degs) + 2)
    return m


@lru_cache(maxsize=64)
def _grid_singles(field, m):
    return tuple(ratf_from_pairs(field, [(k + 1, c) for k, c in enumerate(d) if c])
                 for d in itertools.product(range(field.q), repeat=max(m - 1, 0)))


def u_grid(field, m, count):
    """Representatives of (pi O / pi^m O)^count: u_i = sum_{k=1}^{m-1} c_k pi^k,
    each coordinate drawn from one shared tuple per (field, m)."""
    return itertools.product(_grid_singles(field, m), repeat=count)


def dot(avec, xvec):
    field = xvec[0].field
    acc = RatF.zero(field)
    for a, x in zip(avec, xvec):
        acc = acc + RatF(a) * x
    return acc


def fourier_coefficient(h, avec, yexps, field):
    """h*(a, y) for diagonal y = diag(T^{n_i})."""
    rm1 = len(yexps)
    M = grid_depth(avec, yexps)
    neg_a = tuple(-a for a in avec)
    total = psi_sum(((h(u, yexps), dot(neg_a, u).pi_coeff(1))
                     for u in u_grid(field, M, rm1)), field)
    return total * Fraction(1, field.q ** ((M - 1) * rm1))


def build_table(h, yexps, field):
    """The table map h -> h*: every coefficient of h over the support at
    y, as a FourierTable that expand reads back."""
    entries = {}
    for avec in table_support(field, yexps):
        entries[poly_key(avec)] = fourier_coefficient(h, avec, yexps, field)
    return FourierTable(field, yexps, entries)


def expand(tbl, xvec):
    """h(x, y) = sum over the support of h*(a,y) psi(a.x)."""
    field, entries = tbl.field, tbl.entries
    support, keys = _support_and_keys(field, tuple(tbl.yexps))
    missing = [a for a, k in zip(support, keys) if k not in entries]
    if missing:
        raise KeyError("table incomplete; missing "
                       + ", ".join(str([str(p) for p in a]) for a in missing))
    return psi_sum(((entries[k], dot(a, xvec).pi_coeff(1))
                    for a, k in zip(support, keys)), field)
