"""The local field F_{q^m}((pi)), pi = 1/T, as precision-tracked series.

A Laurent value stores coefficients (integer codes of its coefficient
field) for the exponents val, val+1, ... together with an absolute
precision bound: the element is known modulo pi^prec.  prec = None means
the value is an exactly known finite Laurent polynomial.

The coefficient loops of +, * and inverse are FF.add_at, FF.conv and
FF.series_div (see fields.py).  Each is asked for the coefficients below
the precision bound only, so no coefficient past the window is built;
this module tracks val and prec.

The building and fourier modules work with exact values only (they use
RatF for division-heavy linear algebra, and the additive character psi
is read off the exact pi-digits of RatF values); inexact series appear
in the delta oracle, where truncation is intrinsic.
"""

import math


class PrecisionError(ArithmeticError):
    pass


class StabilizationError(RuntimeError):
    """A lattice-sum value that did not settle between two truncation
    depths (raised by the oracle)."""


class Laurent:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec=None):
        # keep coeffs[lo:hi]: below the precision bound, from the first
        # through the last nonzero coefficient
        hi = len(coeffs)
        if prec is not None and val + hi > prec:
            hi = max(prec - val, 0)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        self.field = field
        self.val = val + lo if hi else (0 if prec is None else prec)
        self.coeffs = (tuple(coeffs) if not lo and hi == len(coeffs)
                       else tuple(coeffs[lo:hi]))
        self.prec = prec

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(field, prec=None):
        return Laurent(field, prec if prec is not None else 0, (), prec)

    @staticmethod
    def one(field):
        return Laurent(field, 0, (1,))

    @staticmethod
    def const(field, c):
        return Laurent(field, 0, (c,))

    @staticmethod
    def pi_power(field, k):
        return Laurent(field, k, (1,))

    @staticmethod
    def from_pairs(field, pairs):
        if not pairs:
            return Laurent.zero(field)
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        cs = [0] * (hi - lo + 1)
        for e, c in pairs:
            cs[e - lo] = field.add(cs[e - lo], c)
        return Laurent(field, lo, cs)

    # -- structure ------------------------------------------------------
    def is_exact(self):
        return self.prec is None

    def is_certified_zero(self):
        return self.is_exact() and not self.coeffs

    def known_zero(self):
        return not self.coeffs

    def ord(self):
        """Certified valuation: the leading exponent."""
        if self.coeffs:
            return self.val
        if self.is_exact():
            return math.inf
        raise PrecisionError(
            f"element is zero modulo pi^{self.prec}; valuation not certified")

    def coeff(self, k):
        """Coefficient of pi^k; PrecisionError if k is beyond the window."""
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(f"coefficient of pi^{k} unknown (prec {self.prec})")
        i = k - self.val
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _lower_bound(self):
        # certified lower bound for the valuation
        if self.coeffs:
            return self.val
        return math.inf if self.is_exact() else self.prec

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        prec = _min_prec(self.prec, other.prec)
        a, b = (self, other) if self.val <= other.val else (other, self)
        cs = self.field.add_at(a.coeffs, b.coeffs, b.val - a.val,
                               None if prec is None else prec - a.val)
        return Laurent(self.field, a.val, cs, prec)

    def __neg__(self):
        neg = self.field._neg
        return Laurent(self.field, self.val, [neg[c] for c in self.coeffs],
                       self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_certified_zero() or other.is_certified_zero():
            return Laurent.zero(F)
        prec = None
        if self.prec is not None or other.prec is not None:
            a = self._lower_bound() + _prec_of(other)
            b = other._lower_bound() + _prec_of(self)
            prec = min(a, b)
            if prec is math.inf:
                prec = None
        if not self.coeffs or not other.coeffs:
            # known-zero times something: zero to the computed precision
            return Laurent.zero(F, None if prec is None else int(prec))
        lo = self.val + other.val
        cs = F.conv(self.coeffs, other.coeffs, None if prec is None else prec - lo)
        return Laurent(F, lo, cs, prec)

    def scale(self, c):
        F = self.field
        if c == 0:
            return Laurent.zero(F, self.prec)
        return Laurent(F, self.val, F.conv(self.coeffs, (c,)), self.prec)

    def shift(self, k):
        """Multiply by pi^k."""
        return Laurent(self.field, self.val + k, self.coeffs,
                       None if self.prec is None else self.prec + k)

    def inverse(self, prec=None):
        """Series inverse, known to as many digits past its valuation as
        self is.  An exact monomial has an exact inverse; any other exact
        input needs the relative width prec (ValueError without it)."""
        if not self.coeffs:
            raise (ZeroDivisionError("inverse of exact zero") if self.is_exact()
                   else PrecisionError("inverse of uncertified zero"))
        F = self.field
        v = self.val
        if self.is_exact() and len(self.coeffs) == 1:
            return Laurent(F, -v, (F.inv(self.coeffs[0]),))
        if self.prec is None and prec is None:
            raise ValueError("inverse of an exact series with more than "
                             "one term needs a width")
        rel = int(prec if self.prec is None else self.prec - v)
        return Laurent(F, -v, F.series_div((1,), self.coeffs, rel), -v + rel)

    def q_power(self, e):
        """x -> x^(p^e): coefficientwise p^e-th power, exponents and the
        precision bound scaled by p^e (an unknown tail pi^prec * u maps
        to pi^(p^e prec) * u^(p^e))."""
        F = self.field
        k = F.p ** e
        frob = F.frobenius(e)
        cs = [0] * (k * len(self.coeffs))
        cs[::k] = [frob[c] for c in self.coeffs]
        return Laurent(F, k * self.val, cs, None if self.prec is None else k * self.prec)

    def __eq__(self, other):
        return (isinstance(other, Laurent) and self.field == other.field
                and self.val == other.val and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.field.q, self.val, self.coeffs, self.prec))

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            k = self.val + i
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k < 0:
                tk = "T" if k == -1 else f"T^{-k}"
                terms.append(tk if c == 1 else f"{c}*{tk}")
            else:
                tk = "pi" if k == 1 else f"pi^{k}"
                terms.append(tk if c == 1 else f"{c}*{tk}")
        body = "+".join(terms) if terms else "0"
        if self.prec is not None:
            body += f" + O(pi^{self.prec})"
        return body

    def __repr__(self):
        return f"Laurent({self})"


def _prec_of(x):
    return math.inf if x.prec is None else x.prec


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)

