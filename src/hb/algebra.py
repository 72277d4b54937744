"""Cyclotomic rationals, the additive character psi_0, and divisor sums.

CycRat models Q(zeta_p) elements whose denominator is a power of q: an
integer vector of length p-1 in the power basis 1, zeta, ..., zeta^{p-2}
over a common q-power denominator.  That is exactly where the values of
psi and all Fourier coefficients live.

sigma and sigma_restricted are the divisor sums

    sigma(s, a) = sum over monic c | a of |c|^s          (a != 0)
    sigma(s, 0) = 1/(1 - q^{1+s})

    sigma_n(s, a) = sigma(s, a) - |n|^s sigma(s, a/n)    (0 if n does not divide a)
    sigma_n(s, 0) = (1 - |n|^s) sigma(s, 0)

evaluated at integer s only; the symbolic-s versions live in eisenstein.
"""

from fractions import Fraction
from math import gcd

from .poly import monic_divisors, vec_content


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
    def from_rational(p, q, value):
        value = Fraction(value)
        den = value.denominator
        k = 1
        while k % den != 0:
            k *= q
            if k > den * q ** 64:
                raise ValueError(f"denominator {den} is not supported by powers of {q}")
        num = [0] * (p - 1)
        num[0] = int(value.numerator * (k // den))
        return CycRat(p, q, num, k)

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


def sigma(s, avec):
    """Divisor sum over monic common divisors of the vector avec."""
    field = avec[0].field
    q = field.q
    content = vec_content(avec)
    if content.is_zero():
        if s == -1:
            raise PoleError("sigma(s, 0) has a pole at s = -1")
        return Fraction(1, 1) / (1 - Fraction(q) ** (1 + s))
    total = Fraction(0)
    for c in monic_divisors(content):
        total += Fraction(q) ** (s * int(c.deg))
    return total


def sigma_restricted(n, s, avec):
    """sigma_n: divisor sum over monic c | avec with n not dividing c."""
    if n.is_zero():
        raise ValueError("level n must be nonzero")
    if not n.is_monic():
        raise ValueError("level n must be monic")
    field = avec[0].field
    q = field.q
    content = vec_content(avec)
    if content.is_zero():
        ns = Fraction(q) ** (s * int(n.deg))
        return (1 - ns) * sigma(s, avec)
    total = Fraction(0)
    for c in monic_divisors(content):
        if not n.divides(c):
            total += Fraction(q) ** (s * int(c.deg))
    return total
