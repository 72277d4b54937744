"""Exact arithmetic in small finite fields F_{p^n}.

Elements are encoded as integers: x = sum c_i p^i represents the residue
class sum c_i u^i where u is the class of the generator modulo a fixed
irreducible polynomial over F_p.  The defining modulus is chosen
deterministically as the lexicographically smallest monic irreducible of
the required degree, so identical parameters always yield identical
encodings.

All fields used by the package are tiny (at most MAX_FIELD elements on
the command line), so full addition and multiplication tables are
precomputed; the tables of F_{p^n}, n > 1, are built with Poly over F_p.
The tables of x -> x^(p^e) (frobenius) and of the trace to F_{p^e}
(traces, read by psi_sum and the oracle's F_q-coordinates) are built on
first use.

FF also owns the coefficient-sequence kernel shared by Poly, RatF and
Laurent: conv (products), add_at (shifted sums) and long_division, which
series_div runs for power series quotients and Poly.__divmod__ on
reversed coefficients for division with remainder.  These are the only
loops that combine coefficient sequences, and no other module reads the
a*q+b tables.  Short products run a loop over those tables; once both
operands have PACK_MIN coefficients, conv packs them into Python ints
and lets one big-int product do the work (Kronecker substitution), and
long series quotients use Newton iteration on top of it.  Both routes
are exact.

fq_echelon is the one elimination over F_q on vectors of codes: the
building's ranks, frames and constant inverses, the oracle's basis
reduction and the divisor counts of the discriminant's series.
"""

from functools import lru_cache
from math import isqrt

from .poly import Poly, _monics, is_irreducible


# conv multiplies by Kronecker substitution (_conv_packed) once both
# operands, cut to the output, have at least this many coefficients;
# shorter ones use the table loop
PACK_MIN = 12
# series_div switches from long division to Newton iteration past this
# many output coefficients
NEWTON_MIN = 32
# the largest field the CLI tabulates: a --q, the oracle's F_{q^r} or a
# residue field of cusps orbits above it is refused before it is built.
# Building the q^2-entry tables took 0.5-0.7 s at 243, 256 and 343
# elements, 2.6 s at 512, 3.1 s at 625, 3.6 s at 729, 10.5 s at 1024 and
# 8.0 s at 1331 (one run each, 2-core Intel Xeon, Python 3.11.7)
MAX_FIELD = 343


def factor_prime_power(q):
    """Split q = p^e with p prime; error if q is not a prime power.  p is
    the smallest divisor d >= 2 of q, which is prime and at most sqrt(q)
    unless q itself is prime."""
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        e = 1
        while p ** e < q:
            e += 1
        if p ** e == q:
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _int_to_vec(x, p, n):
    v = []
    for _ in range(n):
        v.append(x % p)
        x //= p
    return v


def _scaled(c, p):
    """The byte table v -> c v mod p."""
    return bytes(c * v % p for v in range(256))


def _bytesum(parts, length, table):
    """The bytewise sum of equal-length byte strings whose sums stay
    below 256, mapped through a byte table."""
    total = sum(int.from_bytes(x, "little") for x in parts)
    return total.to_bytes(length, "little").translate(table)


@lru_cache(maxsize=None)
def smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over F_p.

    "Smallest" refers to the integer encoding of the low-degree
    coefficient vector, giving a deterministic Conway-style choice.
    """
    return next(f.coeffs for f in _monics(get_field(p), n) if is_irreducible(f))


class FF:
    """The field F_{p^n} with tabulated arithmetic on integer codes."""

    def __init__(self, p, n):
        if factor_prime_power(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.n = n
        self.q = q = p ** n
        if n == 1:
            self.modulus = (0, 1)  # u; Poly over F_p needs F_p's own tables
            self._add = [(a + b) % p for a in range(p) for b in range(p)]
            self._mul = [(a * b) % p for a in range(p) for b in range(p)]
        else:
            Fp = get_field(p)
            self.modulus = smallest_irreducible(p, n)
            m = Poly(Fp, self.modulus)
            polys = [Poly(Fp, _int_to_vec(a, p, n)) for a in range(q)]
            code = {f.coeffs: a for a, f in enumerate(polys)}
            self._add, self._mul = add, mul = [0] * (q * q), [0] * (q * q)
            for a, f in enumerate(polys):
                for b in range(a, q):
                    g = polys[b]
                    add[a * q + b] = add[b * q + a] = code[(f + g).coeffs]
                    mul[a * q + b] = mul[b * q + a] = code[(f * g % m).coeffs]
        self._neg = [self._add[a * q:(a + 1) * q].index(0) for a in range(q)]
        self._inv = [0] + [self._mul[a * q:(a + 1) * q].index(1)
                           for a in range(1, q)]
        self._frob = {}         # e -> table of x^(p^e)
        self._traces = {}       # e -> table of Tr to F_{p^e}
        # bytes hold the codes and every slot sum of _conv_packed
        self._packable = p < 32 and q <= 256
        self._packings = {}     # slot width -> tables of _conv_packed
        self._fold = []
        # fields key every lru_cache of zero(), one() and pi_power()
        self._hash = hash((p, n, self.modulus))

    def add(self, a, b):
        return self._add[a * self.q + b]

    def sub(self, a, b):
        return self._add[a * self.q + self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a * self.q + b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a, k):
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 if k == 0 else 0
        k %= self.q - 1
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def frobenius(self, e):
        """The table of x -> x^(p^e), built on first use."""
        e %= self.n
        table = self._frob.get(e)
        if table is None:
            k = self.p ** e
            table = self._frob[e] = [self.pow(a, k) for a in range(self.q)]
        return table

    def from_int(self, c):
        """Embed the prime field: integer c mod p."""
        return c % self.p

    def elements(self):
        return range(self.q)

    def traces(self, e=1):
        """The table of x -> Tr(x) = x + x^(p^e) + ... + x^(p^(n-e)), the
        trace to the subfield F_{p^e} (e divides n), built on first use;
        its values are codes of that subfield, for e = 1 the integers
        0..p-1 themselves."""
        table = self._traces.get(e)
        if table is None:
            frob, add, q, table = self.frobenius(e), self._add, self.q, []
            for a in range(q):
                t, x = 0, a
                for _ in range(self.n // e):
                    t, x = add[t * q + x], frob[x]
                table.append(t)
            self._traces[e] = table
        return table

    def multiplicative_generator(self):
        """Smallest element (by encoding) of multiplicative order q-1."""
        target = self.q - 1
        for a in range(2, self.q):
            x = a
            order = 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == target:
                return a
        return 1  # q = 2

    def find_root(self, coeffs):
        """Smallest root in this field of sum coeffs[i] X^i (field codes)."""
        for a in self.elements():
            acc = 0
            for c in reversed(coeffs):
                acc = self.add(self.mul(acc, a), c)
            if acc == 0:
                return a
        return None

    # -- coefficient sequences ------------------------------------------
    def add_at(self, a, b, shift=0, n=None):
        """a + x^shift * b as a coefficient list, cut to n entries."""
        size = max(len(a), shift + len(b))
        if n is not None and n < size:
            size = max(n, 0)
        out = list(a[:size])
        out += [0] * (size - len(out))
        add, q = self._add, self.q
        for k, y in zip(range(shift, size), b):
            out[k] = add[out[k] * q + y]
        return out

    def conv(self, a, b, n=None):
        """The first n coefficients of a * b, all of them if n is None."""
        if len(a) < len(b):
            a, b = b, a
        size = len(a) + len(b) - 1
        if n is not None and n < size:
            size = n
        if size <= 0 or not b:
            return []
        if len(b) >= PACK_MIN and size >= PACK_MIN and self._packable:
            return self._conv_packed(a[:size], b[:size], size)
        mul, add, q = self._mul, self._add, self.q
        if len(b) == 1:  # a scaling, the common case in the Fourier engine
            row = b[0] * q
            out = list(a[:size])
            for k, x in enumerate(out):
                out[k] = mul[row + x]
            return out
        out = [0] * size
        for j, y in enumerate(b[:size]):
            if y:
                row = y * q
                for k, x in zip(range(j, size), a):
                    out[k] = add[out[k] * q + mul[row + x]]
        return out

    def _conv_packed(self, a, b, size):
        """conv by Kronecker substitution.  A code is the polynomial
        sum d_i t^i of its F_p-digits, so a sequence sum c_k x^k is a
        polynomial in x and t, and t = 2^(8w), x = 2^(8w(2n-1)) make it
        one Python int: a single big-int product forms every sum of
        digit products at once.  A w-byte slot holds a sum of at most
        n min(len) products of two digits, which fixes w.  The slots
        are then reduced mod p and the t-degrees >= n folded through the
        modulus, each step a few passes over bytes."""
        p, m = self.p, 2 * self.n - 1
        top = (p - 1) ** 2 * self.n * min(len(a), len(b))
        w = (top.bit_length() + 7) // 8
        pack, weights = self._packing(w)
        x = int.from_bytes(b"".join([pack[c] for c in a]), "little")
        y = int.from_bytes(b"".join([pack[c] for c in b]), "little")
        end = size * m * w
        raw = (x * y).to_bytes((len(a) + len(b) - 1) * m * w, "little")
        # a slot's value mod p is sum_j byte_j * 256^j mod p
        modp = weights[0][1]
        digits = _bytesum([raw[j:end:w].translate(t) for j, t in weights],
                          size * m, modp)
        if m == 1:
            return list(digits)
        # output digit i is sum_s R[s][i] d_s mod p, R[s] the digits of
        # u^s reduced by the modulus
        planes = [digits[s::m] for s in range(m)]
        codes = sum(int.from_bytes(_bytesum(
            [planes[s].translate(t) for s, t in terms], size, place), "little")
            for terms, place in self._fold)
        return list(codes.to_bytes(size, "little"))

    def _packing(self, w):
        """The tables of _conv_packed for w-byte slots, built on first use:
        code -> its block of 2n - 1 slots (its n digits, then n - 1 empty
        slots for the higher t-degrees of a product), and, for each byte
        position j whose weight 256^j is nonzero mod p, the map
        byte -> byte * 256^j mod p (j = 0 first: reduction mod p).  The
        first call also builds the fold: for each output digit i, the
        maps d -> d R[s][i] mod p for the nonzero R[s][i], and the map
        v -> (v mod p) p^i that places the digit in the code."""
        tables = self._packings.get(w)
        if tables is None:
            p, n, m = self.p, self.n, 2 * self.n - 1
            pad = bytes((m - n) * w)
            pack = [b"".join(d.to_bytes(w, "little")
                             for d in _int_to_vec(c, p, n)) + pad
                    for c in range(self.q)]
            weights = [(j, _scaled(pow(256, j, p), p)) for j in range(w)
                       if pow(256, j, p)]
            tables = self._packings[w] = pack, weights
            if not self._fold and m > 1:
                u, q = [1], self.q
                for _ in range(m - 1):
                    u.append(self._mul[u[-1] * q + p])   # u has code p
                R = [_int_to_vec(c, p, n) for c in u]
                self._fold = [([(s, _scaled(R[s][i], p)) for s in range(m)
                                if R[s][i]],
                               bytes(v % p * p ** i for v in range(256)))
                              for i in range(n)]
        return tables

    def series_div(self, num, den, n):
        """The first n coefficients of the power series num / den."""
        if n <= 0:
            return []
        if n <= NEWTON_MIN or len(den) < PACK_MIN:
            return self.long_division(num[:n], den, n)[0]
        # Newton: an inverse g of den mod x^k gives one mod x^2k as
        # g - x^k g e, where den g = 1 + x^k e mod x^2k
        neg = self._neg
        k = NEWTON_MIN
        inv = self.long_division((1,), den, k)[0]
        while k < n:
            k2 = min(2 * k, n)
            err = self.conv(den[:k2], inv, k2)[k:]
            inv += [neg[c] for c in self.conv(inv, err, k2 - k)]
            inv += [0] * (k2 - len(inv))
            k = k2
        out = self.conv(num, inv, n)
        return out + [0] * (n - len(out))

    def long_division(self, num, den, n):
        """n steps of long division of the power series num by den, with
        den[0] != 0: the first n digits of num / den, and what is left of
        num, num - den * those digits, past its first n coefficients
        (which the steps made 0), as many entries as num has there."""
        inv0 = self.inv(den[0])
        mul, add, neg, q = self._mul, self._add, self._neg, self.q
        out = list(num) + [0] * (n - len(num))
        size = len(out)
        tail = den[1:]
        for k in range(n):
            c = out[k] = mul[out[k] * q + inv0]
            if c:
                row = neg[c] * q  # out[k + j] -= c * den[j]
                for j, d in zip(range(k + 1, size), tail):
                    out[j] = add[out[j] * q + mul[row + d]]
        return out[:n], out[n:]

    def __eq__(self, other):
        return (isinstance(other, FF)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FF({self.p}^{self.n})"


def fq_echelon(field, vectors):
    """Gauss-Jordan elimination over F_q on vectors of codes, each
    augmented by its unit vector, pivoting on the first nonzero entry.
    Returns (pivots, deps): pivots maps each pivot column j to its
    reduced row, 1 at j and 0 at every other pivot, followed by the
    combination of the inputs that gives it; deps maps the index of each
    vector that depends on the ones before it to a combination of the
    inputs that gives 0, 1 at that index.  While input k is reduced,
    every row is 0 past its first n + k + 1 entries, so that a row
    operation stops there, not at n + m."""
    m, q = len(vectors), field.q
    add, mul, neg = field._add, field._mul, field._neg

    def minus(a, c, b):
        """a - c b, as long as b."""
        c = neg[c] * q
        return [add[x * q + mul[c + y]] for x, y in zip(a, b)]
    pivots, deps = {}, {}
    for idx, v in enumerate(vectors):
        n = len(v)
        end = n + idx + 1
        w = [*v, *[0] * idx, 1, *[0] * (m - idx - 1)]
        for j, row in pivots.items():
            if w[j]:
                w[:end] = minus(w, w[j], row[:end])
        piv = next((j for j in range(n) if w[j]), None)
        if piv is None:
            deps[idx] = w[n:]
            continue
        c = field.inv(w[piv]) * q
        w = [mul[c + x] for x in w[:end]]
        for j, row in pivots.items():
            if row[piv]:
                row[:end] = minus(row, row[piv], w)
        pivots[piv] = w + [0] * (m - idx - 1)
    return pivots, deps


@lru_cache(maxsize=None)
def get_field(q):
    p, e = factor_prime_power(q)
    return FF(p, e)


@lru_cache(maxsize=None)
def embedding(small_q, big_q):
    """Embedding table F_{small_q} -> F_{big_q} for small_q^k = big_q.

    The image of the small field's generator is the smallest root of the
    small modulus in the big field, making the embedding deterministic.
    """
    ks = get_field(small_q)
    kb = get_field(big_q)
    if ks.p != kb.p or kb.n % ks.n != 0:
        raise ValueError("no embedding")
    if ks.n == 1:
        return tuple(kb.from_int(c) for c in range(ks.p))
    root = kb.find_root([kb.from_int(c) for c in ks.modulus])
    if root is None:
        raise RuntimeError("modulus has no root in extension")
    table = []
    for a in ks.elements():
        va = _int_to_vec(a, ks.p, ks.n)
        acc = 0
        for c in reversed(va):
            acc = kb.add(kb.mul(acc, root), kb.from_int(c))
        table.append(acc)
    return tuple(table)
