"""The Bruhat-Tits building of PGL_r over F_q((1/T)).

Vertices are homothety classes of O_infinity-lattices in F_infinity^r,
represented by canonical row bases; a matrix g stands for the coset
g K^x GL_r(O_infinity), i.e. the vertex [Lambda_0 g^{-1}].  All linear
algebra is done exactly in the rational function field F_q(T) (RatF),
which contains every finite Laurent polynomial; canonical forms reduce
entries back to finite Laurent representatives.

Conventions fixed here (the underlying papers fix none):
  * vertex canonical form: row Hermite form over O_infinity, upper
    triangular with pivots pi^{d_i}, entries right of each pivot reduced
    modulo the pivot of their column, min d_i normalized to 0;
  * an oriented edge of type s with rep g runs from [Lambda_0 g^{-1}] to
    [Lambda_0 W_s g^{-1}] where W_s = [[0, I_{r-s}], [pi I_s, 0]];
  * F_q elements are ordered by the integer encoding of their
    F_p-coordinate vectors.

One elimination per coset: a column elimination of g gives the Hermite
basis H of [Lambda_0 g^{-1}] (inverse_hnf), with no inverse of g, and
the Iwasawa factor g = t kappa0 (kappa0 = H g up to a power of pi, t =
H^{-1} up to the same power); the mirabolic part is returned as p^{-1}
= B^{-1} H / H_00, read off H with no inverse (iwasawa_decompose), and
the first s columns of kappa0 mod pi cut the terminus of the
type-s edge of g out of H in closed form (edge_from_rep): no second
elimination and no adjacency test.  It builds every cochain edge: a
lattice pair is keyed from its Hermite bases M0, M1 first (a cochain
lookup stops there on a hit), then the adjacency test on C = M1 M0^{-1}
gives a rep g (rep_from_lattice_pair), whose edge starts at the
canonical M0 it has.  A Theta_n lookup builds no edge: type_one_key
names the type-1 edge of g by its origin and the kernel of the first
column of kappa0 mod pi, with no terminus.  Vertex and edge keys are
bytes (lattice_key, varint_key), computed once per object.  Every
elimination over F_q (ranks mod pi, the pair framing, the kernel
functionals, row-reduction relations, constant inverses) is one
augmented Gauss-Jordan, fields.fq_echelon.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .fields import fq_echelon
from .poly import Poly, RatF, poly_gcd, ratf_from_pairs, ratf_over_t_power


# ----------------------------------------------------------------------
# exact matrices over F_q(T)

def mat_identity(field, r):
    one, zero = RatF.one(field), RatF.zero(field)
    return tuple(tuple(one if i == j else zero for j in range(r)) for i in range(r))


def mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(A, c):
    return tuple(tuple(x * c for x in row) for row in A)


def mat_inv(A):
    """Exact inverse by Gaussian elimination over F_q(T)."""
    n = len(A)
    field = A[0][0].field
    a = [list(row) for row in A]
    inv = [list(row) for row in mat_identity(field, n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if not a[i][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pivinv = RatF.one(field) / a[col][col]
        a[col] = [x * pivinv for x in a[col]]
        inv[col] = [x * pivinv for x in inv[col]]
        for i in range(n):
            if i != col and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return tuple(tuple(row) for row in inv)


def vec_mat(v, A):
    """Row vector times matrix."""
    n = len(A)
    out = []
    for j in range(len(A[0])):
        acc = v[0] * A[0][j]
        for i in range(1, n):
            acc = acc + v[i] * A[i][j]
        out.append(acc)
    return tuple(out)


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


def mat_from_exps(field, exps):
    """diag(T^{e_1}, ..., T^{e_n})."""
    n = len(exps)
    zero = RatF.zero(field)
    return tuple(tuple(RatF.pi_power(field, -exps[i]) if i == j else zero
                       for j in range(n)) for i in range(n))


def mat_is_integral(A):
    return all(x.is_integral() for row in A for x in row)


def ratf_trunc_below(x, bound):
    """The part of the pi-expansion of x with exponents < bound, as RatF."""
    if x.is_zero():
        return x
    lo = int(x.ord_inf())
    if lo >= bound:
        return RatF.zero(x.field)
    k = x.t_exponent()
    if k is not None:   # x = sum_j num_j pi^(k-j): keep the j > k - bound
        s = max(k - bound + 1, 0)
        return ratf_over_t_power(x.field, x.num.coeffs[s:], k - s)
    cs = x.pi_coeffs(lo, bound)
    return ratf_from_pairs(x.field, [(lo + i, c) for i, c in enumerate(cs) if c])


# ----------------------------------------------------------------------
# F_q linear algebra on coordinate vectors (tuples of codes)

def fq_mat_inv(field, entries):
    """The inverse of an invertible square matrix of F_q codes: row j is
    the combination of the rows that gives e_j (fq_echelon)."""
    n = len(entries)
    pivots, _ = fq_echelon(field, entries)
    return [pivots[j][n:] for j in range(n)]


def fq_subspaces(field, n, d):
    """All d-dimensional subspaces of F_q^n as RREF basis tuples."""
    if d == 0:
        return [()]
    out = []
    for pivots in itertools.combinations(range(n), d):
        slots = []
        for i in range(d):
            for j in range(n):
                if j > pivots[i] and j not in pivots:
                    slots.append((i, j))
        for fill in itertools.product(range(field.q), repeat=len(slots)):
            rows = [[0] * n for _ in range(d)]
            for i in range(d):
                rows[i][pivots[i]] = 1
            for (i, j), c in zip(slots, fill):
                rows[i][j] = c
            out.append(tuple(tuple(r) for r in rows))
    return out


def fq_line_reps(field, n):
    """One representative per line in F_q^n (first nonzero entry 1)."""
    return [row for (row,) in fq_subspaces(field, n, 1)]


# ----------------------------------------------------------------------
# canonical lattice bases

def row_hnf(rows, r):
    """Hermite form over O_infinity of the lattice spanned by the given
    row vectors (full rank r assumed).  Returns (basis matrix, d) with
    basis upper triangular, pivots pi^{d_i}, entries right of each pivot
    reduced modulo the pivot of their column."""
    field = rows[0][0].field
    avail = [list(row) for row in rows]
    pivot_rows = []
    for c in range(r):
        cand = [row for row in avail if not row[c].is_zero()]
        if not cand:
            raise ValueError("generators do not have full rank")
        best = min(int(row[c].ord_inf()) for row in cand)
        piv = next(row for row in cand if int(row[c].ord_inf()) == best)
        avail.remove(piv)
        for row in avail:
            if not row[c].is_zero():
                m = row[c] / piv[c]
                for j in range(c, r):
                    row[j] = row[j] - m * piv[j]
        pivot_rows.append(piv)
    if any(any(not x.is_zero() for x in row) for row in avail):
        raise ValueError("generators exceed rank r")  # cannot happen for lattices
    d = []
    basis = []
    for i, row in enumerate(pivot_rows):
        di = int(row[i].ord_inf())
        unit = RatF.pi_power(field, di) / row[i]
        basis.append([x * unit for x in row])
        d.append(di)
    _hermite_reduce(basis, d, range(r))
    return tuple(tuple(row) for row in basis), d


def inverse_hnf(g):
    """row_hnf(g^{-1}, r), the Hermite basis of Lambda_0 g^{-1}, from one
    column elimination of g: no inverse of g.

    For rows i = r-1 down to 0, pivot on the active column p whose entry
    in row i has the least ord, clear that row's other active entries by
    column operations col_j -= m col_p with m = g_ij / g_ip in O, and
    retire p as column i.  Rows below i are zero in the active columns
    already, so g = t kappa with t upper triangular and kappa in
    GL_r(O), and Lambda_0 g^{-1} = Lambda_0 kappa^{-1} t^{-1} is spanned
    by the rows of t^{-1}, upper triangular with diagonal 1/t_ii.  Its row
    i times the unit pi^{d_i} t_ii, d_i = -ord t_ii, has pivot pi^{d_i};
    these rows X (X t diagonal) come by back substitution, and reducing
    their off-pivot entries gives the Hermite form, which is unique."""
    r = len(g)
    field = g[0][0].field
    cols = [list(col) for col in zip(*g)]       # the active columns
    tcols = [None] * r                          # column j of t, rows <= j
    for i in reversed(range(r)):
        p = min((j for j, c in enumerate(cols) if not c[i].is_zero()),
                key=lambda j: cols[j][i].ord_inf())
        piv = tcols[i] = cols.pop(p)
        for c in cols:
            if not c[i].is_zero():
                m = c[i] / piv[i]
                for k in range(i):
                    c[k] = c[k] - m * piv[k]
    d = [-int(tcols[i][i].ord_inf()) for i in range(r)]
    neg_one = -RatF.one(field)
    basis = [list(row) for row in _back_substitute(
        tuple(zip(*tcols)), [RatF.pi_power(field, di) for di in d],
        [neg_one / c[j] for j, c in enumerate(tcols)])]
    _hermite_reduce(basis, d, range(r))
    return tuple(tuple(row) for row in basis), d


def _back_substitute(t, lead, scale):
    """Rows of the upper triangular X with X_ii = lead[i] and X t
    diagonal, t upper triangular (entries below the diagonal unread):
    X_ij = (sum_{k=i}^{j-1} X_ik t_kj) scale[j], scale[j] = -1/t_jj."""
    r = len(t)
    zero = RatF.zero(lead[0].field)
    rows = []
    for i in range(r):
        row = [zero] * i + [lead[i]]
        for j in range(i + 1, r):
            acc = row[i] * t[i][j]
            for k in range(i + 1, j):
                acc = acc + row[k] * t[k][j]
            row.append(acc * scale[j])
        rows.append(tuple(row))
    return tuple(rows)


def _hermite_reduce(basis, d, rows):
    """Reduce, in place, each entry right of the pivot of the given rows
    of an upper triangular basis with pivots pi^{d_j} modulo the pivot of
    its column, by subtracting multiples of the rows below; the bottom
    row first, so that those are reduced already."""
    r = len(basis)
    for i in reversed(rows):
        for j in range(i + 1, r):
            e = basis[i][j]
            m = (e - ratf_trunc_below(e, d[j])) / RatF.pi_power(e.field, d[j])
            if not m.is_zero():
                for t in range(j, r):
                    basis[i][t] = basis[i][t] - m * basis[j][t]


def lattice_key(basis):
    """A canonical basis as bytes: for each entry num/T^k, k + 1, len(num)
    and num's coefficients, as varint_key.  Entries of a row_hnf basis
    are finite Laurent polynomials in pi; any other entry is an error,
    because a key that dropped it could not tell two lattices apart."""
    out = []
    for row in basis:
        for x in row:
            den, num = x.den.coeffs, x.num.coeffs
            if any(den[:-1]):
                raise ValueError(f"lattice key: entry {x} is not a Laurent polynomial in pi")
            out.append(len(den))
            out.append(len(num))
            out.extend(num)
    return varint_key(out)


def varint_key(ints):
    """Nonnegative ints as bytes, each a 7-bit varint (low bits first, the
    high bit set on every byte but an int's last): a prefix-free and so
    injective encoding of the sequence."""
    if max(ints) < 128:      # every varint one byte: the int itself
        return bytes(ints)
    key = bytearray()
    for n in ints:
        while n >= 128:
            key.append(n & 127 | 128)
            n >>= 7
        key.append(n)
    return bytes(key)


class Vertex:
    """Canonical representative of a lattice homothety class: rep the basis
    rows (RatF), min pivot valuation 0, d the pivot valuations; key is
    lattice_key(rep), computed once, and equality and hashing go by it."""
    __slots__ = ("rep", "d", "key", "_inv")
    _fields = ("rep", "d", "key")     # what cli._jsonable prints

    def __init__(self, rep, d):
        self.rep, self.d, self.key = rep, d, lattice_key(rep)
        self._inv = None

    @property
    def inv(self):  # for the pair edge's C = M1 M0^{-1}; once, on first use
        if self._inv is None:
            lead = [RatF.pi_power(self.rep[0][0].field, -di) for di in self.d]
            self._inv = _back_substitute(self.rep, lead, [-x for x in lead])
        return self._inv

    def __eq__(self, other):
        return isinstance(other, Vertex) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def vertex_from_lattice(rows, r=None):
    return _vertex(*row_hnf(rows, r if r is not None else len(rows[0])))


def _vertex(basis, d):
    """The Vertex of the lattice with Hermite basis `basis` and pivot
    valuations d: the basis rescaled to min d = 0."""
    shift = min(d)
    if shift:
        basis = mat_scale(basis, RatF.pi_power(basis[0][0].field, -shift))
        d = [x - shift for x in d]
    return Vertex(rep=basis, d=tuple(d))


def canonical_vertex(g):
    """Canonical Vertex of the coset g K^x GL_r(O_infinity)."""
    return _vertex(*inverse_hnf(g))


# ----------------------------------------------------------------------
# standard matrices

def w_matrix(field, r, s):
    """W_s = [[0, I_{r-s}], [pi I_s, 0]]; W_r = pi I_r.  W_s W_{r-s} =
    pi I_r, so W_s^{-1} = pi^{-1} W_{r-s} (w_inverse)."""
    zero = RatF.zero(field)
    one = RatF.one(field)
    pi = RatF.pi_power(field, 1)
    rows = []
    for i in range(r - s):
        rows.append(tuple(one if j == s + i else zero for j in range(r)))
    for i in range(s):
        rows.append(tuple(pi if j == i else zero for j in range(r)))
    return tuple(rows)


def w_inverse(field, r, s):
    """W_s^{-1} = pi^{-1} W_{r-s}."""
    return mat_scale(w_matrix(field, r, r - s), RatF.pi_power(field, -1))


def t_matrix(field, r, i, u):
    """Element of T_i: [[0,0,I_{r-i}],[pi,u,0],[0,I_{i-1},0]] with
    u in F_q^{i-1}."""
    zero = RatF.zero(field)
    one = RatF.one(field)
    pi = RatF.pi_power(field, 1)
    rows = []
    for k in range(r - i):
        rows.append(tuple(one if j == k + i else zero for j in range(r)))
    row = [zero] * r
    row[0] = pi
    for j, c in enumerate(u):
        row[1 + j] = RatF(Poly.const(field, c)) if c else zero
    rows.append(tuple(row))
    for k in range(i - 1):
        rows.append(tuple(one if j == 1 + k else zero for j in range(r)))
    return tuple(rows)


def m_matrix(field, r, s, u):
    """[[pi, u, 0],[0, I_{s-1}, 0],[0, 0, I_{r-s}]] with u in F_q^{s-1}."""
    zero = RatF.zero(field)
    one = RatF.one(field)
    row0 = [RatF.pi_power(field, 1)] + \
           [RatF(Poly.const(field, c)) if c else zero for c in u] + \
           [zero] * (r - s)
    rows = [tuple(row0)]
    for k in range(1, r):
        rows.append(tuple(one if j == k else zero for j in range(r)))
    return tuple(rows)


def flip_matrix(field, r):
    """[[0, I_{r-1}], [1, 0]], a permutation matrix: its inverse is its
    transpose."""
    zero, one = RatF.zero(field), RatF.one(field)
    rows = [tuple(one if j == i + 1 else zero for j in range(r)) for i in range(r - 1)]
    rows.append(tuple(one if j == 0 else zero for j in range(r)))
    return tuple(rows)


def const_matrix(field, entries):
    """Matrix with constant F_q entries (integer codes)."""
    return tuple(tuple(RatF(Poly.const(field, c)) if c else RatF.zero(field)
                       for c in row) for row in entries)


# ----------------------------------------------------------------------
# oriented edges

class OrientedEdge:
    """The type-s edge e^s_g, canonicalized once by edge_from_rep.  origin
    and terminus are the canonical vertices, and the key is the lattice
    keys of M0 = origin.rep and of the terminus basis rescaled into
    M0 > M1 >= pi M0, concatenated; equality and hashing go by it.  g is
    the coset rep."""
    __slots__ = _fields = ("s", "origin", "terminus", "key", "g")

    def __init__(self, s, origin, terminus, key, g):
        self.s, self.origin, self.terminus, self.key, self.g = \
            s, origin, terminus, key, g

    def __eq__(self, other):
        return isinstance(other, OrientedEdge) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _lattice_pair_key(L0rows, L1rows, r):
    """(v0, s, M1, key) of the pair ([L0], [L1]), before any test of
    adjacency beyond the type.  With s0, s1 the pivot valuation sums of
    the Hermite bases, the type is s = (s1 - s0) mod r (0: not adjacent)
    and pi^t with t = (s - s1 + s0) / r rescales L1 into M1, so that
    L0 > M1 >= pi L0 if the pair is adjacent.  The key names the pair
    (L0, M1), so a key stored for an adjacent pair needs no second test."""
    field = L0rows[0][0].field
    v0 = vertex_from_lattice(L0rows, r)
    H1, d1 = row_hnf(L1rows, r)
    s0, s1 = sum(v0.d), sum(d1)
    s = (s1 - s0) % r
    if s == 0:
        raise ValueError("lattices are not adjacent (type 0 or r)")
    M1 = mat_scale(H1, RatF.pi_power(field, (s - s1 + s0) // r))
    return v0, s, M1, v0.key + lattice_key(M1)


def edge_from_lattice_pair(L0rows, L1rows, r, head=None):
    """The edge ([L0], [L1]) as e^s_g, from its _lattice_pair_key if
    given.  Hermite forms are unique, so e^s_g has the pair's key exactly
    when g spans the pair: one comparison checks the adapted basis."""
    v0, s, M1, key = head or _lattice_pair_key(L0rows, L1rows, r)
    g = rep_from_lattice_pair(v0, M1, s)
    edge = _edge_in_frame(g, s, v0, mat_mul(v0.rep, g))
    if edge.key != key:
        raise AssertionError("adapted basis does not span the lattice pair")
    return edge


def edge_from_rep(g, s):
    """The type-s edge e^s_g, from [L0] = [Lambda_0 g^{-1}] to [L1] =
    [Lambda_0 W_s g^{-1}], from the one column elimination of g that
    gives the Hermite basis of [L0] (inverse_hnf).

    Lambda_0 W_s is the v in O^r with v_1..v_s in pi O.  The Hermite basis
    of [L0] is M0 = pi^a kappa0 g^{-1}, kappa0 in GL_r(O), a the least
    valuation of an entry of M0 g; so c M0 (c in O^r) lies in pi^a L1 iff
    c kappa0 has its first s coordinates in pi O.  That is, in the M0
    frame L1/(pi L0) is the kernel in F_q^r of the first s columns of
    kappa0 mod pi: s independent functionals f_k.  In reduced echelon
    form pivoting on their last nonzero entries j_k, the kernel has the
    basis e_i - sum_k f_k(e_i) e_{j_k} over the other i, with f_k(e_i) = 0
    unless i < j_k.  So pi^a L1 has the upper triangular basis of rows
    M0_i - sum_k f_k(e_i) M0_{j_k} (pivot pi^{d_i}) and pi M0_{j_k}
    (pivot pi^{d_{j_k} + 1}): M0 > M1 >= pi M0, of type s by
    construction.  The former rows are Hermite-reduced already, their
    entries combinations of reduced entries of M0 and, in a pivot column,
    of pi^{d_j}; reducing the latter gives the Hermite form M1, which is
    unique."""
    r = len(g)
    if not 0 < s < r:
        raise ValueError(f"edge type must lie in 1..{r - 1}, got {s}")
    origin = canonical_vertex(g)
    return _edge_in_frame(g, s, origin, mat_mul(origin.rep, g))


def _edge_in_frame(g, s, origin, Hg):
    """e^s_g from its origin, the canonical vertex [Lambda_0 g^{-1}], and
    Hg = M0 g for M0 = origin.rep: edge_from_rep past its elimination,
    which edge_from_lattice_pair enters with the v0 it has already."""
    r, M0 = len(g), origin.rep
    field = M0[0][0].field
    funcs = _kernel_functionals(Hg, s)
    pi = RatF.pi_power(field, 1)
    rows, d = [], list(origin.d)
    for i in range(r):
        if i in funcs:
            rows.append([x * pi for x in M0[i]])
            d[i] += 1
            continue
        row = list(M0[i])
        for j, f in funcs.items():
            if f[i]:
                c = RatF(Poly.const(field, f[i]))
                row = [x - c * y for x, y in zip(row, M0[j])]
        rows.append(row)
    _hermite_reduce(rows, d, sorted(funcs))
    M1 = tuple(tuple(row) for row in rows)
    terminus = _vertex(M1, d)
    return OrientedEdge(
        s=s, origin=origin, terminus=terminus,
        key=origin.key + (terminus.key if min(d) == 0 else lattice_key(M1)),
        g=g)


def _kernel_functionals(Hg, s):
    """The f_k of edge_from_rep, {j_k: f_k}: the first s columns of
    kappa0 mod pi, kappa0 = pi^{-a} Hg with a the least valuation of an
    entry of Hg, in reduced echelon form pivoting on the last nonzero
    entry (fq_echelon on the reversed columns): each f_k is 1 at its own
    j_k, 0 at every other j and 0 right of its own j_k."""
    r = len(Hg)
    a = min(int(x.ord_inf()) for row in Hg for x in row if not x.is_zero())
    # f_j(e_i) = kappa0[i][j] mod pi, the leading coefficient (den monic)
    pivots, _ = fq_echelon(Hg[0][0].field, [
        [Hg[i][j].num.coeffs[-1] if Hg[i][j].ord_inf() == a else 0
         for i in reversed(range(r))] for j in range(s)])
    return {r - 1 - j: row[:r][::-1] for j, row in pivots.items()}


def type_one_key(g):
    """(key, origin, Hg) of the type-1 edge e^1_g, building no terminus:
    origin.key followed by the varint_key of its one kernel functional
    f_1 (_kernel_functionals), whose kernel is L1/(pi L0) in the frame of
    M0 = origin.rep, and Hg = M0 g.  M0 is canonical and f_1 is fixed by
    its kernel once its last nonzero entry is 1, so for a fixed r two
    reps share a key exactly when they share the edge."""
    origin = canonical_vertex(g)
    Hg = mat_mul(origin.rep, g)
    (line,) = _kernel_functionals(Hg, 1).values()
    return origin.key + varint_key(line), origin, Hg


def type_one_in_neighbors(g):
    """The (q^r-1)/(q-1) type-1 edges terminating at [Lambda_0 g^{-1}],
    as e^1_{g alpha} over alpha in T_1, ..., T_r."""
    r = len(g)
    field = g[0][0].field
    out = []
    for i in range(1, r + 1):
        for u in itertools.product(range(field.q), repeat=i - 1):
            alpha = t_matrix(field, r, i, u)
            out.append(edge_from_rep(mat_mul(g, alpha), 1))
    return out


# ----------------------------------------------------------------------
# Iwasawa decomposition  GL_r(F_inf) = P F^x I^1  disjoint-union  P flip F^x I^1

class Iwasawa(namedtuple("Iwasawa", "p_inv w scalar kappa")):
    """p_inv the inverse of the element p of the mirabolic P(F_infinity),
    w "identity" or "flip", scalar in F_infinity^x, kappa in I^1."""
    __slots__ = ()


def is_in_I1(k):
    """Membership in the parahoric I^1 (exact): k integral, its first
    column below the diagonal in pi O, and det k in O^x, i.e. k mod pi of
    rank r."""
    r = len(k)
    if not mat_is_integral(k):
        return False
    if any(k[i][0].ord_inf() < 1 for i in range(1, r)):
        return False
    kbar = [tuple(x.pi_coeff(0) for x in row) for row in k]
    return len(fq_echelon(k[0][0].field, kbar)[0]) == r


def is_in_P(m):
    r = len(m)
    if m[0][0] != RatF.one(m[0][0].field):
        return False
    return all(m[i][0].is_zero() for i in range(1, r))


def iwasawa_decompose(g, vertex, Hg=None):
    """g = scalar p w kappa, p returned as p^{-1}, with vertex the
    canonical vertex [Lambda_0 g^{-1}] (canonical_vertex(g)).  Its
    Hermite basis H is u g^{-1} up to a power of pi, u in GL_r(O); so
    with a the least valuation of an entry of H g, g = t kappa0 for
    kappa0 = pi^{-a} H g in GL_r(O) and the upper triangular t = pi^a
    H^{-1}, and p = t B / t_00 for B = 1 (identity cell) or a constant B
    in P(F_q) (flip cell): p^{-1} = B^{-1} H / H_00 and scalar = t_00 =
    pi^a / H_00, with no inverse over F_q(T).  Hg is H g when the caller
    has it already, as type_one_key returns it."""
    r = len(g)
    field = g[0][0].field
    H = vertex.rep
    if Hg is None:
        Hg = mat_mul(H, g)
    a = min(int(x.ord_inf()) for row in Hg for x in row if not x.is_zero())
    kappa0 = mat_scale(Hg, RatF.pi_power(field, -a))
    p_inv = mat_scale(H, RatF.pi_power(field, -vertex.d[0]))   # H_00 = pi^{d_0}
    scalar = RatF.pi_power(field, a - vertex.d[0])
    ell = [kappa0[i][0].pi_coeff(0) for i in range(r)]
    if all(c == 0 for c in ell[1:]):
        res = Iwasawa(p_inv=p_inv, w="identity", scalar=scalar, kappa=kappa0)
    else:
        # constant B in P(F_q) with last column ell, so that
        # g = (t B) flip (flip^{-1} B^{-1} kappa0)
        piv = next(i for i in range(1, r) if ell[i])
        cols = [[int(i == k) for i in range(r)] for k in range(r)
                if k != piv] + [ell]
        B_inv = const_matrix(field, fq_mat_inv(
            field, [[col[i] for col in cols] for i in range(r)]))
        flip_inv = tuple(zip(*flip_matrix(field, r)))
        res = Iwasawa(p_inv=mat_mul(B_inv, p_inv), w="flip", scalar=scalar,
                      kappa=mat_mul(flip_inv, mat_mul(B_inv, kappa0)))
    if not is_in_P(res.p_inv):
        raise AssertionError("Iwasawa p-part left the mirabolic")
    if not is_in_I1(res.kappa):
        raise AssertionError("Iwasawa kappa-part left I^1")
    return res


# ----------------------------------------------------------------------
# Weyl chamber reduction

def weak_popov(M):
    """Row reduce a nonsingular square polynomial matrix: (W, U) with
    W = U M, U unimodular over A, and the coefficients of W at its row
    degrees F_q-independent (row reduced, not always weak Popov).  So
    deg sum a_j W_j = max_j (deg a_j + deg W_j): the degree is predictable."""
    field = M[0][0].field
    r = len(M)
    W = [list(row) for row in M]
    U = [[Poly.one(field) if i == j else Poly.zero(field) for j in range(r)]
         for i in range(r)]
    while True:
        degs = []
        for row in W:
            dmax = max((int(p.deg) for p in row if not p.is_zero()), default=-1)
            if dmax < 0:
                raise ValueError("matrix is singular over F_q(T)")
            degs.append(dmax)
        lc = [tuple(p.coeff(degs[i]) for p in row) for i, row in enumerate(W)]
        _, deps = fq_echelon(field, lc)
        if not deps:
            break
        combo = next(iter(deps.values()))
        support = [i for i, c in enumerate(combo) if c]
        istar = max(support, key=lambda i: (degs[i], i))
        cstar_inv = field.inv(combo[istar])
        newrow = [Poly.zero(field)] * r
        newU = [Poly.zero(field)] * r
        for i in support:
            c = field.mul(combo[i], cstar_inv)
            shift = degs[istar] - degs[i]
            for j in range(r):
                newrow[j] = newrow[j] + W[i][j].scale(c).shift(shift)
                newU[j] = newU[j] + U[i][j].scale(c).shift(shift)
        W[istar] = newrow
        U[istar] = newU
    return [tuple(row) for row in W], [tuple(row) for row in U]


def clear_denominators(g):
    """(M, d): M = g * d with polynomial entries, d in A monic.  When
    every denominator is a T-power T^k, d = T^(max k) and each multiplier
    is a monomial, so no gcd or division is needed."""
    field = g[0][0].field
    dens = [x.den.coeffs for row in g for x in row]
    if all(d.count(0) == len(d) - 1 for d in dens):
        top = max(map(len, dens)) - 1
        return ([tuple(Poly(field, (0,) * (top + 1 - len(x.den.coeffs))
                            + x.num.coeffs) for x in row) for row in g],
                Poly.monomial(field, top))
    d = Poly.one(field)
    for row in g:
        for x in row:
            if not (d % x.den).is_zero():
                d = (d * x.den) // poly_gcd(d, x.den)
    M = []
    for row in g:
        M.append(tuple((x.num * (d // x.den)) for x in row))
    return M, d


class WeylType:
    """A dominant type k_1 >= ... >= k_r = 0, r >= 2."""
    __slots__ = _fields = ("k",)

    def __init__(self, k):
        if len(k) < 2:
            raise ValueError("Weyl type needs at least 2 entries: a rank-1 "
                             "building has no edges")
        if any(k[i] < k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("Weyl type must be weakly decreasing")
        if k[-1] != 0:
            raise ValueError("Weyl type must end in 0")
        self.k = k


def weyl_exponent(k):
    """The e of weyl_edge_value(q, k) = -(q - 1) q^e."""
    return (len(k) - 1) * (k[0] + 1) - sum(k[1:])


def weyl_edge_value(q, k):
    """P(Delta_r) on the Weyl-chamber edge at the tuple
    k = (k_1 >= ... >= k_r = 0)."""
    return -(q - 1) * q ** weyl_exponent(k)


def reduce_y_transcript(y_inv):
    """y = gamma diag(T^{n_i}) kappa, gamma in GL(A) and kappa in GL(O),
    from y^{-1}: with M = d y^{-1} over A, W = U M^T is row reduced, so
    diag(T^{-deg W_i}) W is in GL(O) and y = U^T diag(T^{deg d - deg W_i})
    kappa.  Returns (gamma, exps) = (U^T, deg d - deg W_i); kappa is
    discarded by right invariance."""
    M, d = clear_denominators(y_inv)
    W, U = weak_popov(tuple(zip(*M)))
    gamma = tuple(tuple(RatF(p) for p in col) for col in zip(*U))
    exps = tuple(int(d.deg) - max(int(p.deg) for p in row if not p.is_zero())
                 for row in W)
    return gamma, exps


# ----------------------------------------------------------------------
# cochains

class Cochain:
    """Edge function built from a type-1 coset function f on GL_r/K^x I^1
    via h(e^s_{g W_s}) = sum_{i<=s} f(g W_i).  Evaluates on edges given
    either by coset reps or by lattice basis pairs; memoized on the
    canonical edge key."""

    def __init__(self, f, r, field):
        self.f = f
        self.r = r
        self.field = field
        self.cache = {}

    def eval_rep(self, g, s):
        """h(e^s_g)."""
        return self.eval_edge(edge_from_rep(g, s))

    def eval_edge(self, edge):
        """h(e^s_g) = sum_{i<=s} f(g W_s^{-1} W_i)."""
        if edge.key in self.cache:
            return self.cache[edge.key]
        base = mat_mul(edge.g, w_inverse(self.field, self.r, edge.s))
        total = Fraction(0)
        for i in range(1, edge.s + 1):
            total += self.f(mat_mul(base, w_matrix(self.field, self.r, i)))
        self.cache[edge.key] = total
        return total

    def eval_lattice_pair(self, L0rows, L1rows):
        """h on the edge ([L0], [L1]) given by explicit bases; a cached
        key skips the adjacency test, which passed when it was stored."""
        head = _lattice_pair_key(L0rows, L1rows, self.r)
        if head[-1] in self.cache:
            return self.cache[head[-1]]
        return self.eval_edge(
            edge_from_lattice_pair(L0rows, L1rows, self.r, head))


def extend_cochain(f, r, field):
    return Cochain(f, r, field)


def rep_from_lattice_pair(v0, M1, s):
    """g with e^s_g = ([L0], [M1]), M1 of type s over L0 = v0.rep = M0.
    C = M1 M0^{-1} has ord det C = s, so L0 > M1 >= pi L0 iff C is
    integral and C mod pi has rank r - s.  Then rows of M1 independent
    mod pi span M1/(pi L0), s rows of M0 complete them, and g^{-1} = B,
    those rows of M0 first: W_s B spans pi (them) + (the rest) = M1."""
    r, M0 = len(M1), v0.rep
    C = mat_mul(M1, v0.inv)
    if not mat_is_integral(C):
        raise ValueError("lattices are not adjacent: L1 is not in L0")
    Cbar = [tuple(x.pi_coeff(0) for x in row) for row in C]
    units = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    _, deps = fq_echelon(M0[0][0].field, Cbar + units)
    basis = [i for i in range(2 * r) if i not in deps]
    comp = [M0[i - r] for i in basis if i >= r]
    if len(comp) != s:
        raise ValueError("lattices are not adjacent: pi L0 is not in L1")
    return mat_inv(tuple(comp + [M1[i] for i in basis if i < r]))


# ----------------------------------------------------------------------
# harmonicity checks

CheckItem = namedtuple("CheckItem", "condition residual ok note",
                       defaults=("",))
_ZERO = Fraction(0)


def _residual_item(condition, residual):
    """The CheckItem of an identity with this residual.  Every passing
    item holds the one shared zero, so a caller that keeps many items
    keeps no Fraction per pass."""
    return CheckItem(condition, residual or _ZERO, residual == 0)


@lru_cache(maxsize=32)
def _gl_plan(field, r):
    """(mats, identities) of check_harmonic_gl at (q, r): the distinct
    local matrices M_s(u), pi_s = diag(pi I_s, I_{r-s}) and W_s, and each
    identity as (condition, lhs, rhs), tuples of indices into mats.
    M_s(u) is M_{s-1}(u') when u = (u', 0), so M_s(0) = pi_1 for every s
    and there are q^{r-1} distinct M; and pi_r = W_r = pi I.  So a check
    at (3, 3) needs 13 matrices, not 19, and one at r = 2 needs q + 2,
    not q + 5."""
    mats, index = [], {}

    def at(m):
        if m not in index:
            index[m] = len(mats)
            mats.append(m)
        return index[m]
    identities = []
    for s in range(1, r + 1):
        lhs = tuple(at(m_matrix(field, r, s, u))
                    for u in itertools.product(range(field.q), repeat=s - 1))
        rhs = (at(mat_from_exps(field, (-1,) * s + (0,) * (r - s))),)
        identities.append((f"A_{s}", lhs, rhs))
    identities.append(
        ("B", tuple(at(w_matrix(field, r, s)) for s in range(1, r + 1)), ()))
    return tuple(mats), tuple(identities)


def check_harmonic_gl(h1, g):
    """The two GL_r-side harmonicity identities at g:
      (A_s)  sum_{u in F_q^{s-1}} h1(g M_s(u)) = h1(g diag(pi I_s, I_{r-s}))
      (B)    sum_{s=1..r} h1(g W_s) = 0.
    h1 is called once at g m for each distinct local matrix m
    (_gl_plan).  h1 failures are reported as unevaluable, not raised: an
    identity fails on the first of its terms that did."""
    mats, identities = _gl_plan(g[0][0].field, len(g))
    values = []
    for m in mats:
        try:
            values.append(h1(mat_mul(g, m)))
        except Exception as exc:  # unreachable coset etc.
            values.append(exc)
    items = []
    for condition, lhs, rhs in identities:
        failed = next((values[i] for i in lhs + rhs
                       if isinstance(values[i], Exception)), None)
        if failed is not None:
            items.append(CheckItem(condition, None, False,
                                   note=f"unevaluable: {failed}"))
            continue
        items.append(_residual_item(
            condition, sum((values[i] for i in lhs), Fraction(0))
            - sum((values[i] for i in rhs), Fraction(0))))
    return items


def in_edges(v, s, field):
    """All type-s edges terminating at v, as lattice basis pairs with
    their subspace (L0rows, L1rows, W): L0 = L + pi^{-1} W L, one per
    s-dimensional subspace W of L/pi L (so that dim L0/L = s)."""
    return [(_flag_lattice(field, v.rep, W), v.rep, W)
            for W in fq_subspaces(field, len(v.rep), s)]


def edge_reverse(L0rows, L1rows, field):
    """Reverse of ([L0],[L1]) with correct scaling: ([L1],[pi L0])."""
    return L1rows, mat_scale(L0rows, RatF.pi_power(field, 1))


def _flags(field, r):
    """Flags U1 < U0 < F_q^r with 0 < dim U1 < dim U0 < r, as pairs of
    coordinate bases (U0, U1)."""
    for d0 in range(2, r):
        for U0 in fq_subspaces(field, r, d0):
            for d1 in range(1, d0):
                for U1sub in fq_subspaces(field, d0, d1):
                    yield U0, [_combine(field, coeffs, U0) for coeffs in U1sub]


def check_harmonic_def(h, v, field, max_flags=None):
    """Definition-level harmonicity of the Cochain h at the vertex v:
    antisymmetry, vanishing type-s in-sums, triangle sums, and pointed
    2-simplex additivity on the first max_flags flags (all by default).
    Each lattice pair is keyed once: the type-1 triangle edges (L0', L)
    of an in-edge (L0, L) = (L + pi^{-1} W, L), one per line of W, and
    the pairs (L1, L) and (L0, L) of a flag are in-edges at v, read back
    by the RREF basis of their subspace (_span); for s = 1 the triangle
    edge is the in-edge itself."""
    r = len(v.rep)
    items = []
    M = v.rep
    into = {}   # h on the in-edge (L + pi^{-1} W, L) at v, by W
    # (1) + (2) + (3)
    for s in range(1, r):
        anti_s, tri_s = f"antisym type {s}", f"triangle type {s}"
        total = Fraction(0)
        for L0, L1, W in in_edges(v, s, field):
            val = into[W] = h.eval_lattice_pair(L0, L1)
            total += val
            rev = edge_reverse(L0, L1, field)
            anti = val + h.eval_lattice_pair(*rev)
            if s == 1 or len(items) < 200:
                items.append(_residual_item(anti_s, anti))
            tri = sum((into[_span(field, [_combine(field, line, W)])]
                       for line in fq_line_reps(field, len(W))), Fraction(0))
            items.append(_residual_item(tri_s, tri - val))
        items.append(_residual_item(f"in-sum type {s}", total))
    # (4) pointed 2-simplices: flags U1 < U0 < F_q^r in the v-frame
    for U0, U1 in itertools.islice(_flags(field, r), max_flags or None):
        a = h.eval_lattice_pair(_flag_lattice(field, M, U0),
                                _flag_lattice(field, M, U1))
        b = into[_span(field, U1)]
        c = into[U0]
        items.append(_residual_item("simplex additivity", a + b - c))
    return items


def _span(field, vectors):
    """The RREF basis of the span of independent vectors of codes, as
    fq_subspaces gives it."""
    pivots, _ = fq_echelon(field, vectors)
    n = len(vectors[0])
    return tuple(tuple(pivots[j][:n]) for j in sorted(pivots))


def _combine(field, coeffs, basis):
    n = len(basis[0])
    v = [0] * n
    for c, b in zip(coeffs, basis):
        if c:
            v = [field.add(x, field.mul(c, y)) for x, y in zip(v, b)]
    return tuple(v)


def _flag_lattice(field, M, U):
    """pi^{-1}(span(U) lifted) + L for the lattice L with basis M."""
    pi_inv = RatF.pi_power(field, -1)
    extra = []
    for w in U:
        lift = vec_mat(tuple(RatF(Poly.const(field, c)) for c in w), M)
        extra.append(tuple(x * pi_inv for x in lift))
    return tuple(M) + tuple(extra)
