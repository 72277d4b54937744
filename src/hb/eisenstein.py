"""The mirabolic Eisenstein series on diagonal matrices, exactly in the
variable X = q^{-s}, and the Kronecker-limit-formula consequences for
log Delta_r.

Divisor sums in s become polynomials in X through
|c|^{r-1-rs} = |c|^{r-1} X^{r deg c}, so every a != 0 coefficient is an
honest rational function of X.  The a = 0 coefficient contains the
rank-(r-1) series at the rescaled argument rs/(r-1), whose substitution
X -> X^{r/(r-1)} leaves the polynomial ring; it is kept as a tagged
opaque summand.  The same applies to the undetermined additive constant
of log Delta_1: it is carried as a formal symbol and cancels in every
difference identity via

    log Delta_{r-1}(y T^{-1}) = log Delta_{r-1}(y) + (q^{r-1} - 1).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .algebra import sigma
from .fourier import mval, polys_up_to
from .poly import monic_divisors, vec_content

X = sympy.Symbol("X")


def _qpow_exact(q, exponent):
    """q^e for rational e, defined only when e is an integer."""
    e = Fraction(exponent)
    if e.denominator != 1:
        raise ValueError(f"non-integral exponent {e} of {q}; "
                         "pick s0 with r*s0 and s0*sum(n) integral")
    return Fraction(q) ** int(e)


def eisenstein_diagonal(nvec, q):
    """E_r(diag(T^{n_1}, ..., T^{n_r}), s) as a rational function of
    X = q^{-s}."""
    r = len(nvec)
    m = max(0, max(-n for n in nvec))
    sn = sum(nvec)
    Q = sympy.Integer(q)
    expr = X ** (-sn) * (Q ** sn * Q ** r * Q ** (r * m) * X ** (r * m)
                         / (1 - Q ** r * X ** r)
                         - X ** (r * m) / (1 - X ** r))
    return sympy.cancel(sympy.together(expr))


def eisenstein_at(nvec, q, s0):
    """Exact value at s = s0 (rational away from the poles s = 0, 1)."""
    val = eisenstein_diagonal(nvec, q).subs(X, sympy.Rational(Fraction(q) ** -Fraction(s0)))
    return Fraction(sympy.Rational(val))


@dataclass
class TruncatedSum:
    value: Fraction
    tail_bound: Fraction
    terms: int


def eisenstein_truncated_sum(nvec, q, s0, N):
    """Partial sum sum_{k=m}^{m+N} (q^{rk + sum(n) + r} - 1) q^{-rk s0},
    times |det g|^{s0}, with the geometric tail bound.  Exact; requires
    the exponents to be integral."""
    s0 = Fraction(s0)
    if s0 <= 1:
        raise ValueError("the lattice sum diverges for s0 <= 1")
    r = len(nvec)
    m = max(0, max(-n for n in nvec))
    sn = sum(nvec)
    det_pow = _qpow_exact(q, sn * s0)

    def term(k):
        return (Fraction(q) ** (r * k + sn + r) - 1) * _qpow_exact(q, -r * k * s0)

    total = sum((term(k) for k in range(m, m + N + 1)), Fraction(0)) * det_pow
    ratio = _qpow_exact(q, r - r * s0)  # < 1
    # each term is below q^{rk + sn + r - rk s0}, a clean geometric series
    k0 = m + N + 1
    tail = Fraction(q) ** (sn + r) * _qpow_exact(q, r * k0 * (1 - s0)) \
        * det_pow / (1 - ratio)
    return TruncatedSum(value=total, tail_bound=tail, terms=N + 1)


def sigma_in_x(avec, q, r):
    """sigma(r-1-rs, a) as a rational function of X."""
    Q = sympy.Integer(q)
    content = vec_content(avec)
    if content.is_zero():
        return 1 / (1 - Q ** r * X ** r)
    total = sympy.Integer(0)
    for c in monic_divisors(content):
        d = int(c.deg)
        total += Q ** ((r - 1) * d) * X ** (r * d)
    return total


@dataclass(frozen=True)
class RecursiveEisenstein:
    """The tagged summand |det y|^{s/(1-r)} E_{r-1}(y, rs/(r-1))."""
    rank: int
    yexps: tuple


@dataclass
class ZeroCoefficient:
    recursive: RecursiveEisenstein
    explicit: object  # sympy expression in X


def eisenstein_fourier(avec, yexps, q, r):
    """E_r*(a, y, s) for diagonal y: a rational function of X when
    a != 0 (zero when m(a, y) <= 1), a ZeroCoefficient pair when a = 0."""
    Q = sympy.Integer(q)
    sn = sum(yexps)
    dets1 = Q ** (-sn) * X ** (-sn)       # |det y|^{s-1}
    base = Q ** (r - 1) * X ** r          # q^{r-1-rs}
    if all(a.is_zero() for a in avec):
        explicit = dets1 * (Q ** r - Q ** (r - 1)) * sigma_in_x(avec, q, r) \
            / (1 - base)
        return ZeroCoefficient(RecursiveEisenstein(r - 1, tuple(yexps)),
                               sympy.cancel(sympy.together(explicit)))
    m = mval(avec, yexps)
    if m <= 1:
        return sympy.Integer(0)
    expr = dets1 * (Q ** r - Q ** (r - 1)) * sigma_in_x(avec, q, r) \
        * (1 - base ** (m - 1)) / (1 - base)
    return sympy.cancel(sympy.together(expr))


# ----------------------------------------------------------------------
# Kronecker limit formula consequences

@dataclass(frozen=True)
class LogDeltaSymbol:
    """The formal quantity log Delta_{rank}(diag(T^{n_i}))."""
    rank: int
    yexps: tuple


@dataclass
class LogDeltaAffine:
    symbol: LogDeltaSymbol
    sym_coeff: Fraction
    const: Fraction


def log_delta_fourier(avec, yexps, q, r):
    """log Delta_r*(a, y): a pure rational for a != 0, an affine
    expression in the log Delta_{r-1} symbol for a = 0."""
    sn = sum(yexps)
    det_inv = Fraction(q) ** (-sn)
    if all(a.is_zero() for a in avec):
        return LogDeltaAffine(
            symbol=LogDeltaSymbol(r - 1, tuple(yexps)),
            sym_coeff=Fraction(q ** r - 1, q ** (r - 1) - 1),
            const=-Fraction(q ** r - q ** (r - 1), q ** (r - 1) - 1) * det_inv)
    m = mval(avec, yexps)
    if m <= 0:
        return Fraction(0)
    C = Fraction((q ** r - 1) * (q ** r - q ** (r - 1)), q ** (r - 1) - 1)
    return C * (1 - Fraction(q) ** ((r - 1) * (m - 1))) * det_inv \
        * sigma(r - 1, avec)


@dataclass
class IdentityCheckItem:
    q: int
    r: int
    a: tuple
    yexps: tuple
    lhs: Fraction
    rhs: Fraction
    ok: bool


def identity_check_thm56(qs=(2, 3), rs=(2, 3), amax=2, nmax=4):
    """The chain P1(Delta_r)* = (a=0: -(q^r-1)) + logDelta*(a, yT^{-1})
    - logDelta*(a, y), with the log Delta_{r-1} symbol eliminated by its
    T-shift rule, checked against the closed-form coefficients."""
    from .discriminant import p_delta_coefficient
    from .fields import get_field
    items = []
    for q in qs:
        field = get_field(q)
        for r in rs:
            polys = polys_up_to(field, amax)
            for yexps in itertools.product(range(nmax + 1), repeat=r - 1):
                down = tuple(n - 1 for n in yexps)
                for avec in itertools.product(polys, repeat=r - 1):
                    lhs = p_delta_coefficient(avec, yexps, r)
                    hi = log_delta_fourier(avec, down, q, r)
                    lo = log_delta_fourier(avec, yexps, q, r)
                    if all(a.is_zero() for a in avec):
                        if hi.sym_coeff != lo.sym_coeff:
                            raise AssertionError("symbol coefficients differ")
                        rhs = (hi.const - lo.const
                               + hi.sym_coeff * (q ** (r - 1) - 1)
                               - (q ** r - 1))
                    else:
                        rhs = hi - lo
                    items.append(IdentityCheckItem(q, r, tuple(str(a) for a in avec),
                                                   yexps, lhs, rhs, lhs == rhs))
    return items
