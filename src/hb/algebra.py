"""Cyclotomic rationals, the character sum of the Fourier layer, and
divisor sums.

CycRat models Q(zeta_p) elements whose denominator is a power of q: an
integer vector of length p-1 in the power basis 1, zeta, ..., zeta^{p-2}
over a common q-power denominator.  That is exactly where the values of
psi and all Fourier coefficients live.

psi_sum is the one character sum: sum c psi(x) over (c, a_1) pairs,
with psi(x) = psi_0(Tr a_1) for the pi^1-coefficient a_1 of x, an F_q
code (x.pi_coeff(1) for a RatF x).  The c are summed in p buckets b_t
by that trace, and the buckets are combined in one integer pass: over
the largest bucket denominator (q-powers nest), coordinate i of b_t is
added into slot (i + t) mod p of a length-p vector, which is zeta^t b_t
in Z[x]/(x^p - 1), and slot p-1 is taken off the others once, as
zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}).  No CycRat is formed until
the one result.

divisor_degrees counts the monic common divisors of a vector by degree,
and sigma reads the divisor sums off those counts:

    sigma(s, a) = sum over monic c | a of |c|^s          (a != 0)
    sigma(s, 0) = 1/(1 - q^{1+s})

    sigma_n(s, a) = sigma(s, a) - |n|^s sigma(s, a/n)    (0 if n does not divide a)
    sigma_n(s, 0) = (1 - |n|^s) sigma(s, 0)

evaluated at integer s only; eisenstein reads the same counts in Q(X).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .poly import factor_degrees, vec_content


class PoleError(ArithmeticError):
    pass


class CycRat:
    """Element of Z[zeta_p][1/q], exact.

    Stored as (num, den): num an integer tuple of length p-1 giving the
    coordinates on 1, zeta, ..., zeta^{p-2}; den a positive power of q.
    """

    __slots__ = ("p", "q", "num", "den")

    def __init__(self, p, q, num, den=1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        num = list(num)
        if len(num) != p - 1:
            raise ValueError("numerator vector has wrong length")
        while den % q == 0 and all(c % q == 0 for c in num):
            den //= q
            num = [c // q for c in num]
        self.p = p
        self.q = q
        self.num = tuple(num)
        self.den = den

    @staticmethod
    @lru_cache(maxsize=1024)
    def from_rational(p, q, value):
        """value in Z[1/q], one shared instance per (p, q, value) while
        it stays in the memo: CycRat is immutable, and Fourier tables
        repeat a few rational values many times."""
        return CycRat.from_coordinates(p, q, [value] + [0] * (p - 2))

    @staticmethod
    def from_coordinates(p, q, coords):
        """The element with the p - 1 rational coordinates coords on 1,
        zeta, ..., zeta^{p-2}."""
        coords = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        k = 1
        while k % den != 0:
            k *= q
            if k > den * q ** 64:
                raise ValueError(f"denominator {den} is not supported by powers of {q}")
        return CycRat(p, q, [c.numerator * (k // c.denominator)
                             for c in coords], k)

    @staticmethod
    def zero(p, q):
        return CycRat(p, q, [0] * (p - 1))

    @staticmethod
    def one(p, q):
        return CycRat.from_rational(p, q, 1)

    def _match(self, other):
        if isinstance(other, CycRat):
            if (self.p, self.q) != (other.p, other.q):
                raise ValueError("mixed cyclotomic parameters")
            return other
        return CycRat.from_rational(self.p, self.q, other)

    def __add__(self, other):
        o = self._match(other)
        d = self.den * o.den // gcd(self.den, o.den)
        a = d // self.den
        b = d // o.den
        return CycRat(self.p, self.q,
                      [x * a + y * b for x, y in zip(self.num, o.num)], d)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.p, self.q, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return (-self) + self._match(other)

    def __mul__(self, other):
        o = self._match(other)
        p = self.p
        # multiply in Z[x]/(x^p - 1), then reduce modulo Phi_p
        full = [0] * p
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(o.num):
                    if y:
                        full[(i + j) % p] += x * y
        top = full[p - 1]  # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
        num = [full[i] - top for i in range(p - 1)]
        return CycRat(p, self.q, num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = self._match(other)
        except (ValueError, TypeError):
            return NotImplemented
        return tuple(c * o.den for c in self.num) \
            == tuple(c * self.den for c in o.num)

    def __hash__(self):
        return hash((self.p, self.q, self.num, self.den))

    def is_zero(self):
        return all(c == 0 for c in self.num)

    def rational(self):
        """The value as a Fraction if it is rational, else None."""
        if any(c != 0 for c in self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __str__(self):
        if self.rational() is not None:
            return str(self.rational())
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            base = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            terms.append(f"{c}*{base}" if i else str(c))
        s = "+".join(terms).replace("+-", "-")
        return s if self.den == 1 else f"({s})/{self.den}"

    def __repr__(self):
        return f"CycRat(p={self.p}, {self})"


def psi0(p, x, q=None):
    """psi_0(x) = zeta_p^x for x in F_p (an integer mod p)."""
    if q is None:
        q = p
    x %= p
    num = [0] * (p - 1)
    if x < p - 1:
        num[x] = 1
    else:
        num = [-1] * (p - 1)
    return CycRat(p, q, num)


def psi_sum(terms, field):
    """sum of c psi(x) over the (c, a_1) pairs, a_1 the F_q code of the
    pi^1-coefficient of x and c a rational or a CycRat.  A bucket
    outside Z[zeta_p][1/q] raises ValueError."""
    p, q = field.p, field.q
    trace = field.traces()
    buckets = [0] * p
    for c, a1 in terms:
        buckets[trace[a1]] += c
    # each bucket as integer coordinates over its own q-power denominator
    parts = [(b.num, b.den) if isinstance(b, CycRat)
             else ((b.numerator,), b.denominator) for b in buckets]
    den = 1
    for _, d in parts:
        while den % d:  # q-powers nest: den ends at the largest of them
            if gcd(d // gcd(d, den), q) == 1:
                raise ValueError(f"denominator {d} is not supported by "
                                 f"powers of {q}")
            den *= q
    # zeta^t b in Z[x]/(x^p - 1): coordinate i of bucket t lands in slot i + t
    slots = [0] * p
    for t, (num, d) in enumerate(parts):
        scale = den // d
        for i, c in enumerate(num, t):
            if c:
                slots[i % p] += c * scale
    top = slots[-1]  # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    return CycRat(p, q, [c - top for c in slots[:-1]], den)


def divisor_degrees(avec, level=None):
    """{d: number of monic common divisors of avec of degree d that the
    level does not divide}, zero counts dropped; None if avec is zero."""
    if level is not None and not level.is_monic():
        raise ValueError("level n must be monic")
    content = vec_content(avec)
    if content.is_zero():
        return None
    counts = Counter({0: 1})
    for deg, mult in factor_degrees(content):
        step = Counter()
        for d, k in counts.items():
            for j in range(mult + 1):
                step[d + j * deg] += k
        counts = step
    if level is not None and level.divides(content):
        for d, k in divisor_degrees((content // level,)).items():
            counts[d + int(level.deg)] -= k
    return {d: k for d, k in counts.items() if k}


def sigma(s, avec, level=None):
    """sigma(s, a), or sigma_n(s, a) for the monic level n."""
    q = Fraction(avec[0].field.q)
    counts = divisor_degrees(avec, level)
    if counts is None:
        if s == -1:
            raise PoleError("sigma(s, 0) has a pole at s = -1")
        total = 1 / (1 - q ** (1 + s))
        if level is not None:
            total *= 1 - q ** (s * int(level.deg))
        return total
    return sum((k * q ** (s * d) for d, k in counts.items()), Fraction(0))
