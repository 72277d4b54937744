"""Exact arithmetic in small finite fields F_{p^n}.

Elements are encoded as integers: x = sum c_i p^i represents the residue
class sum c_i u^i where u is the class of the generator modulo a fixed
irreducible polynomial over F_p.  The defining modulus is chosen
deterministically as the lexicographically smallest monic irreducible of
the required degree, so identical parameters always yield identical
encodings.

All fields used by the package are tiny (at most a few hundred elements),
so full multiplication tables are precomputed.
"""

from functools import lru_cache


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q):
    """Split q = p^e with p prime; error if q is not a prime power."""
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_to_vec(x, p, n):
    v = []
    for _ in range(n):
        v.append(x % p)
        x //= p
    return v


def _vec_to_int(v, p):
    x = 0
    for c in reversed(v):
        x = x * p + c
    return x


def _is_irreducible_fp(f, p):
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            g = _int_to_vec(enc, p, d) + [1]
            # polynomial long division remainder
            r = _fp_poly_mod(f, g, p)
            if not r:
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over F_p.

    "Smallest" refers to the integer encoding of the low-degree
    coefficient vector, giving a deterministic Conway-style choice.
    """
    if n == 1:
        return (0, 1)  # the polynomial u
    for enc in range(p ** n):
        f = _int_to_vec(enc, p, n) + [1]
        if _is_irreducible_fp(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible found")  # unreachable


class FF:
    """The field F_{p^n} with tabulated arithmetic on integer codes."""

    def __init__(self, p, n, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus) if modulus else smallest_irreducible(p, n)
        if len(self.modulus) != n + 1 or self.modulus[-1] % p != 1:
            raise ValueError("modulus must be monic of degree n")
        if n > 1 and not _is_irreducible_fp(list(self.modulus), p):
            raise ValueError("modulus is reducible")
        self._build_tables()

    def _build_tables(self):
        q, p, n = self.q, self.p, self.n
        mul = [0] * (q * q)
        m = list(self.modulus)
        for a in range(q):
            va = _int_to_vec(a, p, n)
            for b in range(a, q):
                vb = _int_to_vec(b, p, n)
                prod = _fp_poly_mod(_fp_poly_mul(va, vb, p), m, p) if a and b else []
                c = _vec_to_int(prod + [0] * (n - len(prod)), p)
                mul[a * q + b] = c
                mul[b * q + a] = c
        self._mul = mul
        add = [0] * (q * q)
        for a in range(q):
            va = _int_to_vec(a, p, n)
            for b in range(q):
                vb = _int_to_vec(b, p, n)
                add[a * q + b] = _vec_to_int([(x + y) % p for x, y in zip(va, vb)], p)
        self._add = add
        self._neg = [add[a * q:(a + 1) * q].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
        self._inv = inv

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

    def frob(self, a):
        """x -> x^p."""
        return self.pow(a, self.p)

    def from_int(self, c):
        """Embed the prime field: integer c mod p."""
        return c % self.p

    def elements(self):
        return range(self.q)

    def trace_to_prime(self, a):
        """Tr_{F_{p^n}/F_p}(a), returned as an integer in [0, p)."""
        t = 0
        x = a
        for _ in range(self.n):
            t = self.add(t, x)
            x = self.frob(x)
        return t  # lies in the prime subfield, encoding is the integer itself

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
        """Smallest root in this field of sum coeffs[i] X^i (encoded ints)."""
        for a in self.elements():
            acc = 0
            for c in reversed(coeffs):
                acc = self.add(self.mul(acc, a), c % self.p if isinstance(c, int) else c)
            if acc == 0:
                return a
        return None

    def __eq__(self, other):
        return (isinstance(other, FF)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FF({self.p}^{self.n})"


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
    root = kb.find_root([c for c in ks.modulus])
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
