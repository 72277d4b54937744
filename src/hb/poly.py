"""The polynomial ring A = F_q[T] and the rational function field F_q(T).

Coefficients are stored low-to-high as integer codes of the coefficient
field.  The loops that add, multiply and divide coefficient sequences
are FF.add_at, FF.conv and FF.long_division (see fields.py);
Poly.__divmod__ is long division of the reversed coefficients, and
_pow_mod the one square-and-multiply.  deg(0) is the sentinel -inf so
that degree comparisons behave; call sites that exponentiate check for
zero first.

factor_degrees gives the degrees and multiplicities of the irreducible
factors in polynomial time, by squarefree decomposition and
distinct-degree factorization: is_irreducible reads it, and
algebra.divisor_degrees builds the divisor counts of every divisor sum
from it, and units.cusp_orbits builds the residue fields of a level
from it.  No factor is ever found, only its degree.

RatF is an exact fraction num/den with den monic and gcd-reduced.  It
doubles as the exact model of F_infinity = F_q((1/T)): ord at infinity is
deg(den) - deg(num) and finitely many 1/T-expansion coefficients can be
extracted exactly by long division.  Most values are Laurent
polynomials in pi = 1/T, num/T^k, and RatF has a fast path for them:
between two such operands +, * and division by c T^e are one add_at or
conv plus a sum of exponents, put in lowest terms by stripping the
numerator's low-order zeros (at most k of them), and their pi-expansion
coefficients are the numerator's, read off without series_div.  The
result is the same reduced form (den = T^k monic, k = 0 or num(0) != 0)
that poly_gcd gives, so ==, hash and every key built from RatF are
unchanged; only general denominators take the gcd route.
"""

import itertools
import math
import re
import sys
from functools import lru_cache

NEG_INF = -math.inf


class Poly:
    """Polynomial over a finite field, coefficients low to high.
    Immutable: nothing assigns coeffs after __init__, so zero() and
    one() hand out one shared instance per field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------
    @staticmethod
    @lru_cache(maxsize=None)
    def zero(field):
        return Poly(field, ())

    @staticmethod
    @lru_cache(maxsize=None)
    def one(field):
        return Poly(field, (1,))

    @staticmethod
    def const(field, c):
        return Poly(field, (c,))

    @staticmethod
    def monomial(field, k, c=1):
        return Poly(field, (0,) * k + (c,))

    # -- basic structure ------------------------------------------------
    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return Poly(self.field, self.field.add_at(self.coeffs, other.coeffs))

    def __neg__(self):
        c = self.field.neg(1)
        return self if c == 1 or not self.coeffs else self.scale(c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Poly(self.field, self.field.conv(self.coeffs, other.coeffs))

    def scale(self, c):
        return Poly(self.field, self.field.conv(self.coeffs, (c,)))

    def __divmod__(self, other):
        """Division with remainder as long division of the reversed
        coefficients: T^deg(a) a(1/T) = rev(b) rev(quo) + T^(deg a - deg b
        + 1) rev(rem), so deg a - deg b + 1 steps of FF.long_division
        give the quotient's coefficients and leave the remainder's, each
        top first (von zur Gathen and Gerhard, Modern Computer Algebra,
        section 9.1)."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self.coeffs
        n = len(a) - len(b) + 1
        if n <= 0:
            return Poly.zero(self.field), self
        quo, rem = self.field.long_division(a[::-1], b[::-1], n)
        return Poly(self.field, quo[::-1]), Poly(self.field, rem[::-1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        return (other % self).is_zero()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def shift(self, k):
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def subs_T_inv_scaled(self):
        """Coefficients reversed: T^deg * self(1/T)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- text format ----------------------------------------------------
    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.deg, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            cs = coeff_str(self.field, c)
            if k == 0:
                terms.append(cs)
            else:
                tk = "T" if k == 1 else f"T^{k}"
                terms.append(tk if cs == "1" else f"{cs}*{tk}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly(q={self.field.q}, {self})"


def coeff_str(field, c):
    if field.n == 1:
        return str(c)
    # extension coefficients as u-polynomials
    digits = []
    x = c
    i = 0
    while x:
        d = x % field.p
        if d:
            part = "u" if i == 1 else (f"u^{i}" if i else str(d))
            if i >= 1 and d > 1:
                part = f"{d}*{part}"
            digits.append(part)
        x //= field.p
        i += 1
    return "(" + "+".join(reversed(digits)) + ")" if len(digits) > 1 else (digits[0] if digits else "0")


def over_cap(q, e, cap):
    """Is q^e above cap?  Decided without forming q^e for a huge e."""
    # q >= 2, so q^e > cap once e reaches cap's bit length
    return e >= cap.bit_length() or q ** e > cap


def max_digits():
    """sys.get_int_max_str_digits(), or its default where the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@lru_cache(maxsize=None)
def _digit_cap(digits):
    """The largest integer of `digits` digits."""
    return 10 ** digits - 1


def printable(q, e):
    """Does q^e (e >= 0) have at most max_digits() digits, so it prints?"""
    return not over_cap(q, e, _digit_cap(max_digits()))


_TERM_RE = re.compile(r"^(?:(?P<coef>[0-9]+|u(?:\^[0-9]+)?|[0-9]+\*u(?:\^[0-9]+)?)\*?)?"
                      r"(?P<var>T(?:\^(?P<exp>[0-9]+))?)?$")


def parse_poly(field, text):
    """Parse the sparse text format, e.g. "T^2+T+1", "2*T^3+1", "u*T+u^2"."""
    s = text.replace(" ", "").replace("-", "+-")
    if s in ("", "0"):
        return Poly.zero(field)
    result = Poly.zero(field)
    for term in s.split("+"):
        if not term:
            continue
        negate = term.startswith("-")
        if negate:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        coef = _parse_coeff(field, m.group("coef"))
        exp = 0
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        if negate:
            coef = field.neg(coef)
        result = result + Poly.monomial(field, exp, coef)
    return result


def _parse_coeff(field, text):
    if text is None:
        return 1
    mult = 1
    if "*" in text:
        head, text = text.split("*")
        mult = int(head) % field.p
    if text.startswith("u"):
        j = int(text[2:]) if text.startswith("u^") else 1
        # u is the code p (0 over a prime field); pow reduces u^j
        return field.mul(field.from_int(mult), field.pow(field.p % field.q, j))
    return field.from_int(int(text) * mult)


# -- factorization and divisors ----------------------------------------

def _monics(field, d):
    """The monic polynomials of degree d, first coefficient fastest."""
    for cs in itertools.product(range(field.q), repeat=d):
        yield Poly(field, cs[::-1] + (1,))


def is_irreducible(f):
    return f.deg >= 1 and factor_degrees(f) == [(int(f.deg), 1)]


def factor_degrees(f):
    """[(deg p, mult)] over the monic irreducible factors p of f, sorted:
    a squarefree decomposition, then distinct-degree factorization of
    each part (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 14).  No factor is found, only its degree."""
    if f.is_zero():
        raise ValueError("cannot factor zero")
    return sorted((d, m) for part, m in _squarefree_parts(f.monic())
                  for d, k in _distinct_degrees(part) for _ in range(k))


def _squarefree_parts(f):
    """[(g, m)] with the monic f = prod g^m, each g squarefree and
    nonconstant, the g pairwise coprime.  The part of f whose
    multiplicities are multiples of p has derivative 0 and is a p-th
    power, taken apart by its p-th root."""
    F = f.field
    df = Poly(F, [F.mul(F.from_int(k), c)
                  for k, c in enumerate(f.coeffs)][1:])
    c = poly_gcd(f, df)  # f itself when df = 0
    w = f // c
    out, m = [], 1
    while w.deg >= 1:
        y = poly_gcd(w, c)
        if w.deg > y.deg:
            out.append((w // y, m))
        w, c, m = y, c // y, m + 1
    if c.deg >= 1:
        root = F.frobenius(F.n - 1)  # x -> x^(1/p)
        c = Poly(F, [root[x] for x in c.coeffs[::F.p]])
        out += [(g, k * F.p) for g, k in _squarefree_parts(c)]
    return out


def _distinct_degrees(f):
    """[(d, k)]: the squarefree monic f has k irreducible factors of
    degree d.  Those of degree d divide T^(q^d) - T, so they are
    gcd(h - T, f) for h = T^(q^d) mod f, taken off f for d = 1, 2, ...
    until what is left has no factor of degree below half its own."""
    F = f.field
    T = Poly(F, (0, 1))
    out, h, d = [], T, 0
    while f.deg >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, F.q, f)
        g = poly_gcd(h - T, f)
        if g.deg >= 1:
            out.append((d, int(g.deg) // d))
            f = f // g
            h = h % f
    if f.deg >= 1:
        out.append((int(f.deg), 1))
    return out


def _pow_mod(h, k, f):
    """h^k mod f, by squaring."""
    out = Poly.one(f.field)
    while k:
        if k & 1:
            out = out * h % f
        k >>= 1
        if k:
            h = h * h % f
    return out


def poly_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if r0.is_zero():
        return r0, s0, t0
    c = F.inv(r0.lead())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def vec_content(avec):
    """Monic gcd of the entries of a PolyVec (zero if all entries zero):
    the fold starts at the first nonzero entry, made monic, skips zero
    entries and stops at 1."""
    nonzero = [a for a in avec if a.coeffs]
    if not nonzero:
        return Poly.zero(avec[0].field)
    g = nonzero[0].monic()
    for a in nonzero[1:]:
        if g.is_one():
            break
        g = poly_gcd(g, a)
    return g


# -- rational functions ------------------------------------------------

def _over_t_power(field, cs, k):
    """(num, den) of cs / T^k in lowest terms, for coefficients cs, low
    to high and not all zero, and k >= 0: the gcd is T^j, j the smaller
    of k and the number of low-order zeros of cs, so no Euclidean
    division is needed."""
    j = 0
    while j < k and not cs[j]:
        j += 1
    return Poly(field, cs[j:]), RatF.pi_power(field, k - j).den


class RatF:
    """Exact element of F_q(T), reduced, denominator monic.  Immutable:
    nothing assigns num or den after __init__, so arithmetic may return
    an operand itself (x + 0, x * 1, x * 0), and zero(), one() and
    pi_power() hand out one shared instance per field (and exponent).

    Values num/T^k (Laurent polynomials in pi) have the reduced form
    k = 0 or num(0) != 0, and a fast path: + and * of two of them, and
    division by a Laurent monomial c T^e, are one FF.add_at or FF.conv
    and a sum of exponents, put in that form by ratf_over_t_power with
    no poly_gcd; pi_coeffs reads their coefficients off directly."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = Poly.one(num.field)
        elif not _reduced:
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            if num.is_zero():
                den = Poly.one(num.field)
            elif any(den.coeffs[:-1]):
                g = poly_gcd(num, den)
                if not g.is_one():
                    num, den = num // g, den // g
                if not den.is_monic():
                    c = num.field.inv(den.lead())
                    num, den = num.scale(c), den.scale(c)
            elif den.coeffs != (1,):
                c = den.coeffs[-1]
                if c != 1:
                    num = num.scale(num.field.inv(c))
                num, den = _over_t_power(num.field, num.coeffs, len(den.coeffs) - 1)
        self.num = num
        self.den = den

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(field):
        return RatF(Poly.zero(field))

    @staticmethod
    @lru_cache(maxsize=None)
    def one(field):
        return RatF(Poly.one(field))

    @staticmethod
    @lru_cache(maxsize=None)
    def pi_power(field, k):
        """pi^k = T^(-k)."""
        if k >= 0:
            return RatF(Poly.one(field), Poly.monomial(field, k), _reduced=True)
        return RatF(Poly.monomial(field, -k), _reduced=True)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.coeffs == (1,) and self.den.coeffs == (1,)

    def t_exponent(self):
        """k if the denominator is T^k, else None."""
        d = self.den.coeffs
        k = len(d) - 1
        return k if d.count(0) == k else None

    def ord_inf(self):
        """Valuation at infinity; ord(T) = -1.  +inf for zero."""
        n = len(self.num.coeffs)
        return len(self.den.coeffs) - n if n else math.inf

    # The T-power test d.count(0) == len(d) - 1 (den = T^(len(d) - 1),
    # as den is monic) is spelled out in the methods below, which are the
    # kernel's hottest calls, rather than read through t_exponent.

    def __add__(self, other):
        b = other.num.coeffs
        if not b:
            return self
        a = self.num.coeffs
        if not a:
            return other
        da, db = self.den.coeffs, other.den.coeffs
        i, j = len(da) - 1, len(db) - 1
        if da.count(0) == i and db.count(0) == j:
            F = self.num.field
            if i >= j:          # a/T^i + b/T^j = (a + T^(i-j) b) / T^i
                return ratf_over_t_power(F, F.add_at(a, b, i - j), i)
            return ratf_over_t_power(F, F.add_at(b, a, j - i), j)
        return RatF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        num = -self.num
        return self if num is self.num else RatF(num, self.den, _reduced=True)

    def __mul__(self, other):
        if not self.num.coeffs or other.is_one():
            return self
        if not other.num.coeffs or self.is_one():
            return other
        da, db = self.den.coeffs, other.den.coeffs
        i, j = len(da) - 1, len(db) - 1
        if da.count(0) == i and db.count(0) == j:
            F = self.num.field
            return ratf_over_t_power(F, F.conv(self.num.coeffs, other.num.coeffs), i + j)
        return RatF(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        b = other.num.coeffs
        if not b:
            raise ZeroDivisionError("division by zero rational function")
        a = self.num.coeffs
        if not a:
            return self
        da, db = self.den.coeffs, other.den.coeffs
        i, j, e = len(da) - 1, len(db) - 1, len(b) - 1
        if da.count(0) == i and db.count(0) == j and b.count(0) == e:
            # other = c T^(e-j), so self / other = c^-1 a / T^(i+e-j)
            F = self.num.field
            return ratf_over_t_power(F, F.conv(a, (F.inv(b[-1]),)), i + e - j)
        return RatF(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (isinstance(other, RatF) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def pi_coeffs(self, lo, hi):
        """Expansion coefficients of pi^k for lo <= k < hi, exactly.

        Over T^k, self = sum_j num_j pi^(k-j) is read off directly.
        Otherwise writes self = N(1/pi)/D(1/pi) and long-divides the
        reversed polynomials as power series in pi.
        """
        cs = self.num.coeffs
        if not cs:
            return [0] * (hi - lo)
        d = self.den.coeffs
        k = len(d) - 1
        if d.count(0) == k:
            n = len(cs)
            return [cs[j] if 0 <= j < n else 0 for j in range(k - lo, k - hi, -1)]
        v = self.ord_inf()
        need = hi - v
        if need <= 0:
            return [0] * (hi - lo)
        # series[i] is the coefficient of pi^(v+i)
        series = self.field.series_div(self.num.subs_T_inv_scaled().coeffs,
                                       self.den.subs_T_inv_scaled().coeffs, need)
        return series[lo - v:] if lo >= v else [0] * (v - lo) + series

    def pi_coeff(self, k):
        return self.pi_coeffs(k, k + 1)[0]

    def is_integral(self):
        """Lies in O_infinity (ord >= 0)?"""
        return self.ord_inf() >= 0

    def finite_laurent(self):
        """As a sorted tuple of (exponent, coeff) if self is a finite
        Laurent polynomial in pi (denominator a T-power); else None."""
        k = self.t_exponent()
        if k is None:
            return None
        # self = num / T^k: term c*T^j -> c * pi^(k-j)
        return tuple(sorted((k - j, c) for j, c in enumerate(self.num.coeffs) if c))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatF({self})"


def ratf_over_t_power(field, cs, k):
    """cs / T^k as a reduced RatF, for coefficients cs (low to high) and
    any integer k."""
    if not any(cs):
        return RatF.zero(field)
    if k <= 0:
        return RatF(Poly(field, [0] * -k + list(cs)), _reduced=True)
    return RatF(*_over_t_power(field, cs, k), _reduced=True)


def ratf_from_pairs(field, pairs):
    """sum c * pi^e as an exact rational function."""
    if not pairs:
        return RatF.zero(field)
    emax = max(e for e, _ in pairs)
    cs = []
    for e, c in pairs:
        cs = field.add_at(cs, (c,), emax - e)
    return ratf_over_t_power(field, cs, emax)
