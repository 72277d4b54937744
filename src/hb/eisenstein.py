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
import math
from collections import namedtuple
from fractions import Fraction

from .algebra import divisor_degrees, sigma
from .fourier import mval, polys_up_to


# ----------------------------------------------------------------------
# Q(X); a polynomial is a trimmed tuple of Fractions, low degree first

def _trim(c):
    return tuple(c[:max((i + 1 for i, x in enumerate(c) if x), default=0)])


def _pmul(a, b):
    return tuple(sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1),
                                                      min(k + 1, len(a))))
                 for k in range(len(a) + len(b) - 1))


def _pdivmod(a, b):                     # b != 0
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        quo[k] = c = rem[k + len(b) - 1] / b[-1]
        rem[k:k + len(b)] = [u - c * y for u, y in zip(rem[k:], b)]
    return tuple(quo), _trim(rem[:len(b) - 1])


class QX:
    """An element of Q(X): num/den in lowest terms, den monic."""
    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num, den = (_trim([Fraction(x) for x in p]) for p in (num, den))
        if not den:
            raise ZeroDivisionError("QX with a zero denominator")
        g, b = den, num                 # Euclid: g = gcd(num, den)
        while b:
            g, b = b, _pdivmod(g, b)[1]
        g = tuple(x * den[-1] / g[-1] for x in g)   # so that den/g is monic
        self.num, self.den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]

    @staticmethod
    def monomial(k):
        """X^k for any integer k."""
        return QX((0,) * k + (1,)) if k >= 0 else QX((1,), (0,) * -k + (1,))

    @staticmethod
    def _match(x):
        return x if isinstance(x, QX) else QX((x,))

    def __add__(self, other):
        o = QX._match(other)
        return QX([x + y for x, y in itertools.zip_longest(
            _pmul(self.num, o.den), _pmul(o.num, self.den), fillvalue=0)],
            _pmul(self.den, o.den))

    def __mul__(self, other):
        o = QX._match(other)
        return QX(_pmul(self.num, o.num), _pmul(self.den, o.den))

    def __truediv__(self, other):
        return self * (1 / QX._match(other))

    def __rtruediv__(self, other):
        return QX(self.den, self.num) * other

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other):
        return isinstance(other, (QX, int, Fraction)) and not (self - other).num

    def __call__(self, x):
        """The exact value at a rational X."""
        num, den = (sum(c * Fraction(x) ** k for k, c in enumerate(p))
                    for p in (self.num, self.den))
        return num / den

    def __str__(self):
        def text(c):
            terms = (f"{x}" if k == 0 else
                     {1: "", -1: "-"}.get(x, f"{x}*") + f"X**{k}"
                     for k, x in reversed(list(enumerate(c))) if x)
            return " + ".join(terms).replace("+ -", "- ") or "0"
        num = text(self.num)
        return num if self.den == (1,) else f"({num})/({text(self.den)})"


def _qpow_exact(q, exponent):
    """q^e for rational e, defined only when e is an integer."""
    e = Fraction(exponent)
    if e.denominator != 1:
        raise ValueError(f"non-integral exponent {e} of {q}; "
                         "pick s0 with r*s0 and s0*sum(n) integral")
    return Fraction(q) ** int(e)


def _diagonal_closed_form(nvec, q, xpow):
    """E_r(diag(T^{n_1}, ..., T^{n_r}), s) with X^k = q^{-ks} as xpow(k)."""
    r, m, sn = len(nvec), max(0, *(-n for n in nvec)), sum(nvec)
    return xpow(-sn) * (Fraction(q) ** (sn + r + r * m) * xpow(r * m)
                        / (1 - q ** r * xpow(r))
                        - xpow(r * m) / (1 - xpow(r)))


def eisenstein_diagonal(nvec, q):
    """E_r(diag(T^{n_1}, ..., T^{n_r}), s) as a QX in X = q^{-s}."""
    return _diagonal_closed_form(nvec, q, QX.monomial)


def value_exponent(nvec, s0, N):
    """An e with q^e above each product of three powers of q that
    eisenstein_at and eisenstein_truncated_sum form at (nvec, s0, N)."""
    # each is q^(+-k) or q^(+-k s0), k <= |sum n| + r(m + N + 2)
    d = abs(sum(nvec)) + len(nvec) * (max(0, *(-n for n in nvec)) + N + 2)
    return 3 * d * math.ceil(s0)


def eisenstein_at(nvec, q, s0):
    """Exact value at s = s0 > 1 (ValueError unless r*s0, s0*sum(n) in Z)."""
    return _diagonal_closed_form(nvec, q, lambda k: _qpow_exact(q, -k * s0))


TruncatedSum = namedtuple("TruncatedSum", "value tail_bound terms")


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


class RecursiveEisenstein(namedtuple("RecursiveEisenstein", "rank yexps")):
    """The tagged summand |det y|^{s/(1-r)} E_{r-1}(y, rs/(r-1))."""
    __slots__ = ()


ZeroCoefficient = namedtuple("ZeroCoefficient", "recursive explicit")


def eisenstein_fourier(avec, yexps, q, r):
    """E_r*(a, y, s) for diagonal y: a QX when a != 0 (zero when
    m(a, y) <= 1), a ZeroCoefficient pair when a = 0."""
    X, sn, counts = QX.monomial, sum(yexps), divisor_degrees(avec)
    # |det y|^{s-1} (q^r - q^{r-1}) / (1 - q^{r-1-rs}), times sigma(r-1-rs, a)
    scale = Fraction(q) ** -sn * X(-sn) * (q ** r - q ** (r - 1)) \
        / (1 - q ** (r - 1) * X(r))
    if counts is None:                      # sigma(r-1-rs, 0) = 1/(1 - q^{r-rs})
        return ZeroCoefficient(RecursiveEisenstein(r - 1, tuple(yexps)),
                               scale / (1 - q ** r * X(r)))
    m = mval(avec, yexps)
    if m <= 1:
        return QX(())
    # |c|^{r-1-rs} = q^{(r-1) d} X^{r d} for deg c = d
    sig = sum(k * q ** ((r - 1) * d) * X(r * d) for d, k in counts.items())
    return scale * sig * (1 - q ** ((r - 1) * (m - 1)) * X(r * (m - 1)))


# ----------------------------------------------------------------------
# Kronecker limit formula consequences

class LogDeltaSymbol(namedtuple("LogDeltaSymbol", "rank yexps")):
    """The formal quantity log Delta_{rank}(diag(T^{n_i}))."""
    __slots__ = ()


LogDeltaAffine = namedtuple("LogDeltaAffine", "symbol sym_coeff const")


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


IdentityCheckItem = namedtuple("IdentityCheckItem", "q r a yexps lhs rhs ok")


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
