"""Building navigation: canonical vertices, neighbors, Iwasawa cells."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hb import building
from hb.building import (CheckItem, Cochain, _combine, _flag_lattice, _flags,
                         _lattice_pair_key, canonical_vertex,
                         check_harmonic_def, check_harmonic_gl,
                         edge_from_lattice_pair, extend_cochain,
                         edge_from_rep, edge_reverse, flip_matrix,
                         fq_line_reps, in_edges,
                         inverse_hnf, is_in_I1, is_in_P, iwasawa_decompose,
                         lattice_key, const_matrix, fq_mat_inv,
                         m_matrix, mat_from_exps,
                         mat_identity, mat_inv,
                         mat_is_integral, mat_mul, mat_scale,
                         rep_from_lattice_pair, row_hnf,
                         type_one_in_neighbors,
                         type_one_key, vertex_from_lattice, w_inverse,
                         w_matrix, weak_popov)
from hb.fields import fq_echelon, get_field
from hb.poly import Poly, RatF

F2 = get_field(2)
F3 = get_field(3)


def test_canonical_vertex_kills_homothety():
    for field in (F2, F3):
        v1 = canonical_vertex(mat_from_exps(field, (2, 1)))
        v2 = canonical_vertex(mat_from_exps(field, (3, 2)))
        assert v1.key == v2.key
        v3 = canonical_vertex(mat_from_exps(field, (3, 1)))
        assert v1.key != v3.key


def test_canonical_vertex_is_idempotent():
    from hb.building import vertex_from_lattice
    g = mat_from_exps(F2, (2, 0, 1))
    v = canonical_vertex(g)
    assert vertex_from_lattice(v.rep).key == v.key


def test_neighbor_count_is_projective_space():
    # [TRIVIAL] type-1 in-neighbors of a vertex = P^{r-1}(F_q)
    for q, field in ((2, F2), (3, F3)):
        for r in (2, 3, 4):
            edges = type_one_in_neighbors(mat_identity(field, r))
            expected = (q ** r - 1) // (q - 1)
            assert len(edges) == expected
            assert len({e.key for e in edges}) == expected


def test_neighbors_invariant_under_homothety():
    keys1 = {e.key for e in
             type_one_in_neighbors(mat_from_exps(F2, (1, 0)))}
    keys2 = {e.key for e in
             type_one_in_neighbors(mat_from_exps(F2, (2, 1)))}
    assert keys1 == keys2


def _reference_key(v0, v1):
    """An edge as its two canonical bases, each entry a sorted tuple of
    (exponent of pi, coefficient) pairs."""
    return tuple(tuple(x.finite_laurent() for x in row)
                 for v in (v0, v1) for row in v.rep)


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_edge_keys_agree_with_laurent_reference(q, r):
    field = get_field(q)
    keyed = []
    # (1, 0, ...) and (2, 1, ...) are one vertex, so equal keys occur
    for exps in ((0,) * r, (1,) + (0,) * (r - 1), (2,) + (1,) * (r - 1)):
        g = mat_from_exps(field, exps)
        for e in (type_one_in_neighbors(g)
                  + type_one_in_neighbors(mat_mul(flip_matrix(field, r), g))):
            keyed.append((e.key, _reference_key(e.origin, e.terminus)))
        v = canonical_vertex(g)
        for s in range(1, r):
            for L0, L1, _W in in_edges(v, s, field):
                e = edge_from_lattice_pair(L0, L1, r)
                keyed.append((e.key, _reference_key(e.origin, e.terminus)))
    for (k1, ref1), (k2, ref2) in itertools.combinations(keyed, 2):
        assert (k1 == k2) == (ref1 == ref2)
    assert len({k for k, _ in keyed}) < len(keyed)


def test_lattice_key_rejects_entry_that_is_not_laurent():
    one, zero = RatF.one(F2), RatF.zero(F2)
    for den in ((1, 1), (1, 0, 1)):
        x = RatF(Poly.one(F2), Poly(F2, den))
        with pytest.raises(ValueError):
            lattice_key(((one, x), (zero, one)))


def test_edge_from_rep_connects_adjacent_classes():
    g = mat_from_exps(F2, (1, 0, 0))
    e = edge_from_rep(g, 1)
    assert e.key is not None


def _int_key(basis):
    """lattice_key's int sequence: for each entry num/T^k, k + 1, len(num)
    and num's coefficients."""
    out = []
    for row in basis:
        for x in row:
            out += [len(x.den.coeffs), len(x.num.coeffs), *x.num.coeffs]
    return out


def _varint_decode(key):
    out, n, shift = [], 0, 0
    for b in key:
        n |= (b & 127) << shift
        shift += 7
        if b < 128:
            out.append(n)
            n, shift = 0, 0
    assert shift == 0            # the last int is complete
    return out


def test_lattice_keys_past_one_byte():
    # diag(T^k, 1) and a shear by pi^{-j} put ints of 128 and more into
    # the key (T^300 has 301 coefficients); the key decodes to the int
    # sequence, distinct lattices get distinct keys and equal lattices,
    # from other bases, equal ones
    for field in (F2, F3):
        one, zero = RatF.one(field), RatF.zero(field)
        bases = [mat_from_exps(field, (k, 0)) for k in (126, 127, 128, 255, 300)]
        for j in (127, 128, 200):
            x = RatF.pi_power(field, -j)
            bases += [((one, x), (zero, one)),
                      mat_mul(((one, x), (zero, one)), mat_from_exps(field, (300, 0)))]
        keyed, widest = [], []
        for rows in bases:
            v = vertex_from_lattice(rows)
            assert _varint_decode(v.key) == _int_key(v.rep)
            widest.append(max(_int_key(v.rep)))
            keyed.append((v.key, _reference_key(v, v)))
            # the same lattice: a row added to another, then rescaled
            other = (tuple(x + y for x, y in zip(rows[0], rows[1])), rows[1])
            other = mat_scale(other, RatF.pi_power(field, 3))
            assert vertex_from_lattice(other).key == v.key
        for (k1, ref1), (k2, ref2) in itertools.combinations(keyed, 2):
            assert (k1 == k2) == (ref1 == ref2)
        assert len({k for k, _ in keyed}) == len(keyed)
        assert min(widest) == 127 and max(widest) > 255


def _edge_from_rep_reference(g, s):
    """(v0, M1, key) of e^s_g by the row_hnf route: invert g and
    canonicalize the lattice pair (g^{-1}, W_s g^{-1}) with two row_hnf."""
    r = len(g)
    ginv = mat_inv(g)
    v0, t, M1, key = _lattice_pair_key(
        ginv, mat_mul(w_matrix(g[0][0].field, r, s), ginv), r)
    assert t == s
    return v0, M1, key


def _assert_rep_edge_matches_reference(g, s):
    e = edge_from_rep(g, s)
    v0, M1, key = _edge_from_rep_reference(g, s)
    assert e.s == s
    for v, w in ((e.origin, v0), (e.terminus, vertex_from_lattice(M1))):
        assert (v.rep, v.d, v.key) == (w.rep, w.d, w.key)
    assert e.key == key
    assert e.g == g


def _ratf_entry(data, field):
    """num/den with deg num < 4 and den T^k (k < 4) or a monic of degree
    1..3 with a nonzero constant term, so not a power of T."""
    q = field.q
    num = Poly(field, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    if data.draw(st.booleans()):
        return RatF(num, Poly.monomial(field, data.draw(st.integers(0, 3))))
    den = ([data.draw(st.integers(1, q - 1))]
           + data.draw(st.lists(st.integers(0, q - 1), max_size=2)) + [1])
    return RatF(num, Poly(field, den))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4])
@given(data=st.data())
def test_inverse_hnf_is_the_hermite_form_of_the_inverse(q, r, data):
    # the column elimination of g against its reference row_hnf(mat_inv(g))
    # on matrices with entries of any denominator (singular draws are
    # skipped); and the back-substituted inverse of the canonical basis
    # against Gauss-Jordan
    field = get_field(q)
    g = tuple(tuple(_ratf_entry(data, field) for _ in range(r))
              for _ in range(r))
    try:
        ginv = mat_inv(g)
    except ZeroDivisionError:
        return
    basis, d = inverse_hnf(g)
    want, want_d = row_hnf(ginv, r)
    assert basis == want and list(d) == list(want_d)
    v, ref = canonical_vertex(g), vertex_from_lattice(ginv)
    assert (v.rep, v.d, v.key) == (ref.rep, ref.d, ref.key)
    assert v.inv == mat_inv(v.rep)


def test_flip_cell_miss_hands_the_witness_search_g_inverse(monkeypatch):
    # a rep edge keeps no g^{-1}: a Theta_n miss in the flipped cell
    # passes the witness search exactly mat_inv(g), any other lookup
    # passes it nothing
    from hb import discriminant
    from hb.verify import _gl_sample
    search, seen = discriminant.find_witnesses, []

    def recorded(n, g_inv):
        seen.append(g_inv)
        return search(n, g_inv)
    monkeypatch.setattr(discriminant, "find_witnesses", recorded)
    cells = set()
    for q, r in ((2, 2), (3, 2), (2, 3)):
        field = get_field(q)
        n = Poly(field, (0, 1))
        for g in _iwasawa_samples(field, r) + _gl_sample(field, r):
            cache = {}
            del seen[:]
            value = discriminant.eval_theta_on_edge(n, g, _cache=cache)
            cell = iwasawa_decompose(g, canonical_vertex(g)).w
            assert seen == ([mat_inv(g)] if cell == "flip" else [])
            del seen[:]
            assert discriminant.eval_theta_on_edge(n, g, _cache=cache) == value
            assert seen == []
            cells.add(cell)
    assert cells == {"flip", "identity"}


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_theta_miss_inverts_only_for_the_witness(monkeypatch, q, r):
    # the Iwasawa p-part comes as p^{-1} off the Hermite basis and the
    # y-block is column-reduced as y^{-1}: an identity-cell miss makes no
    # mat_inv call, a flip-cell miss exactly one, g^{-1} for the witness
    # search; the witness's own safety assert checks gamma c = e1 with no
    # inversion (discriminant imports mat_inv from building where it
    # calls it)
    from hb import discriminant
    from hb.verify import _gl_sample
    real, invs = building.mat_inv, []

    def counted(A):
        invs.append(A)
        return real(A)
    monkeypatch.setattr(building, "mat_inv", counted)
    field = get_field(q)
    n = Poly(field, (0, 1))
    cells = set()
    for g in _iwasawa_samples(field, r) + _gl_sample(field, r):
        cell = iwasawa_decompose(g, canonical_vertex(g)).w
        del invs[:]
        discriminant.eval_theta_on_edge(n, g, _cache={})
        assert len(invs) == (1 if cell == "flip" else 0), cell
        cells.add(cell)
    assert cells == {"flip", "identity"}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_rep_edges_match_the_lattice_pair_reference(q, r):
    # every type s, at the Iwasawa samples, the type-1 in-neighbor reps
    # g alpha of three of them (and those times a constant unit lower
    # triangular matrix, which moves the edge over the out-neighbors),
    # the criterion-3 coset reps, and shears by entries that are not
    # Laurent polynomials, as `theta eval --g` may give
    from hb.verify import _gl_sample
    field = get_field(q)
    samples = _iwasawa_samples(field, r)
    reps = list(samples) + _gl_sample(field, r)
    T = Poly(field, (0, 1))
    for x in (RatF(Poly.one(field), T + Poly.one(field)),
              RatF(T, T * T + T + Poly.one(field))):
        reps += [_shear(field, r, x),
                 mat_mul(flip_matrix(field, r), _shear(field, r, x))]
    lower = const_matrix(field, [[1 if i >= j else 0 for j in range(r)]
                                 for i in range(r)])
    for g in samples[:3]:
        for e in type_one_in_neighbors(g):
            reps += [e.g, mat_mul(e.g, lower)]
    for g in reps:
        for s in range(1, r):
            _assert_rep_edge_matches_reference(g, s)


@st.composite
def _coset_reps(draw):
    """(q, r, g) with g a product of pi^k shears I + c pi^k E_ij,
    diag(T^e), flip and W_s, and last a constant unit lower triangular
    factor: g and g times it are the same vertex, and such factors move
    the edge over the out-neighbors, where the kernel's echelon form has
    entries off its pivots."""
    q = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from((2, 3, 4)))
    field = get_field(q)
    g = mat_identity(field, r)
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("shear", "diag", "flip", "w")))
        if kind == "shear":
            i, j = draw(st.permutations(range(r)))[:2]
            c = RatF(Poly.const(field, draw(st.integers(1, q - 1))))
            rows = [list(row) for row in mat_identity(field, r)]
            rows[i][j] = c * RatF.pi_power(field, draw(st.integers(-3, 3)))
            m = tuple(tuple(row) for row in rows)
        elif kind == "diag":
            m = mat_from_exps(field, tuple(draw(st.integers(-2, 3))
                                           for _ in range(r)))
        elif kind == "flip":
            m = flip_matrix(field, r)
        else:
            m = w_matrix(field, r, draw(st.integers(1, r)))
        g = mat_mul(m, g) if draw(st.booleans()) else mat_mul(g, m)
    lower = [[int(i == j) if i <= j else draw(st.integers(0, q - 1))
              for j in range(r)] for i in range(r)]
    return q, r, mat_mul(g, const_matrix(field, lower))


@given(_coset_reps())
def test_rep_edges_match_the_reference_on_products(qrg):
    _q, r, g = qrg
    for s in range(1, r):
        _assert_rep_edge_matches_reference(g, s)


@pytest.mark.parametrize("s", [0, 3])
def test_rep_edge_type_must_be_proper(s):
    with pytest.raises(ValueError):
        edge_from_rep(mat_identity(F2, 3), s)


def _shear(field, r, x):
    """I + x E_12."""
    rows = [list(row) for row in mat_identity(field, r)]
    rows[0][1] = x
    return tuple(tuple(row) for row in rows)


def _iwasawa_samples(field, r):
    """Reps in both cells, the flipped ones with x = 0 and x != 0."""
    pi = RatF.pi_power(field, 1)
    flip = flip_matrix(field, r)
    diag = mat_from_exps(field, (1, 0, 2, 1)[:r])
    samples = [mat_identity(field, r), flip,
               mat_from_exps(field, (2,) + (0,) * (r - 1)),
               mat_mul(flip, diag), mat_mul(diag, flip)]
    for x in (pi, pi + pi * pi, RatF.pi_power(field, -1)):
        u = _shear(field, r, x)
        samples += [u, mat_mul(u, flip), mat_mul(mat_mul(u, diag), flip),
                    mat_mul(mat_mul(u, flip), diag)]
    return samples


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_theta_keys_name_type_one_edges(q, r):
    # two reps share a type_one_key exactly when they share e^1_g: over
    # the Iwasawa and verify samples, their products with every M_s(u)
    # and W_s, and each sample times a unit diagonal (the same edge)
    from hb.verify import _gl_sample
    field = get_field(q)
    unit = [list(row) for row in mat_identity(field, r)]
    unit[0][0] = RatF.one(field) + RatF.pi_power(field, 1)
    unit[1][1] = RatF(Poly.const(field, q - 1))
    unit = tuple(tuple(row) for row in unit)
    samples = _iwasawa_samples(field, r) + _gl_sample(field, r)
    reps = [mat_mul(g, unit) for g in samples]
    for g in samples:
        reps.append(g)
        for s in range(1, r + 1):
            reps.append(mat_mul(g, w_matrix(field, r, s)))
            reps += [mat_mul(g, m_matrix(field, r, s, u))
                     for u in itertools.product(range(q), repeat=s - 1)]
    pairs = set()
    for g in reps:
        key, origin, Hg = type_one_key(g)
        edge = edge_from_rep(g, 1)
        assert origin == edge.origin and Hg == mat_mul(origin.rep, g)
        pairs.add((edge.key, key))
    edge_keys = {e for e, _ in pairs}
    assert len(pairs) == len(edge_keys) == len({k for _, k in pairs})
    assert len(edge_keys) < len(reps)
    for g, gu in zip(samples, reps):
        assert type_one_key(gu)[0] == type_one_key(g)[0]


# P1(Theta_T) at fixed reps, (q, r) in {2, 3}^2, as computed before Theta_n
# lookups were keyed by type_one_key: D = diag(T^exps), u(x) = I + x E_12
PINNED_THETA_T = {
    (2, 2): (4, -8, -1, -2, 8),
    (2, 3): (48, -128, -2, -16, 384),
    (3, 2): (36, -108, -4, -12, 108),
    (3, 3): (1296, -8748, -12, -324, 34992),
}


def _pinned_theta_reps(field, r):
    """D(1), flip D(3), u(T) flip, u(pi + pi^2) D(1, 0, 2) flip and
    u(T + pi^2) D(3, 1)."""
    pi, T = RatF.pi_power(field, 1), RatF.pi_power(field, -1)
    flip = flip_matrix(field, r)

    def D(*exps):
        return mat_from_exps(field, (exps + (0,) * r)[:r])
    return [D(1), mat_mul(flip, D(3)), mat_mul(_shear(field, r, T), flip),
            mat_mul(mat_mul(_shear(field, r, pi + pi * pi), D(1, 0, 2)), flip),
            mat_mul(_shear(field, r, T + pi * pi), D(3, 1))]


@pytest.mark.parametrize("q, r", sorted(PINNED_THETA_T))
def test_theta_values_pinned_at_fixed_edges(q, r):
    from hb.discriminant import eval_theta_on_edge
    field = get_field(q)
    n = Poly(field, (0, 1))
    cache = {}
    for g, value in zip(_pinned_theta_reps(field, r), PINNED_THETA_T[q, r]):
        assert eval_theta_on_edge(n, g) == value
        assert eval_theta_on_edge(n, g, _cache=cache) == value
    assert len(cache) == len(PINNED_THETA_T[q, r])


def test_iwasawa_decompose_reassembles():
    # g = scalar p w kappa with p mirabolic (returned as p^{-1}) and kappa
    # in I^1; in the identity cell g kappa^{-1} = scalar p is upper
    # triangular
    for field, r in ((F2, 2), (F3, 3)):
        flip = flip_matrix(field, r)
        cells = []
        for g in _iwasawa_samples(field, r):
            iw = iwasawa_decompose(g, canonical_vertex(g))
            assert is_in_P(iw.p_inv) and is_in_I1(iw.kappa)
            p = mat_inv(iw.p_inv)
            assert is_in_P(p)
            W = mat_identity(field, r) if iw.w == "identity" else flip
            rec = mat_scale(mat_mul(mat_mul(p, W), iw.kappa), iw.scalar)
            assert rec == tuple(tuple(row) for row in g)
            if iw.w == "identity":
                t = mat_mul(g, mat_inv(iw.kappa))
                assert all(t[i][j].is_zero() for i in range(r) for j in range(i))
            x = [-c for c in iw.p_inv[0][1:]]
            cells.append((iw.w, any(not c.is_zero() for c in x)))
        assert ("flip", True) in cells and ("identity", True) in cells
        assert ("flip", False) in cells


def test_w_matrix_shape():
    # W_s = [[0, I_{r-s}], [pi I_s, 0]]
    w = w_matrix(F2, 3, 1)
    assert w[0][1] == RatF.one(F2)
    assert w[1][2] == RatF.one(F2)
    assert w[2][0] == RatF.pi_power(F2, 1)
    assert w[0][0].is_zero()


def test_iwasawa_detects_cells():
    for g, cell in ((mat_identity(F2, 2), "identity"), (flip_matrix(F2, 2), "flip")):
        assert iwasawa_decompose(g, canonical_vertex(g)).w == cell


def _edges_around(field, r):
    """Every in-edge of the vertices diag(T^e), e in {0,1,2}^r, its
    reverse and its triangle edges, as lattice basis pairs."""
    out = []
    for exps in itertools.product(range(3), repeat=r):
        v = canonical_vertex(mat_from_exps(field, exps))
        for s in range(1, r):
            for L0, L1, W in in_edges(v, s, field):
                out += [(L0, L1), edge_reverse(L0, L1, field)]
                out += _triangle_lattice_edges(field, L1, W)
    return out


def _triangle_lattice_edges(field, M, W):
    """Type-1 edges (L0', L) with L < L0' < L0 for the in-edge
    (L0, L) = (L + pi^{-1} W, L), L with basis M: L0' = L + pi^{-1} w,
    one per line w of W."""
    return [(_flag_lattice(field, M, [_combine(field, line, W)]), M)
            for line in fq_line_reps(field, len(W))]


def _rep_sensitive(g):
    """Not a cochain: a value that changes with the coset rep itself."""
    return Fraction(sum(k * int(x.ord_inf()) + k * k
                        for k, x in enumerate(itertools.chain(*g))
                        if not x.is_zero()))


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_lattice_pair_rep_reconstructs_the_edge(q, r):
    # the round trip e^s_g for g = rep_from_lattice_pair(v0, M1, s) is
    # implied by the key check inside edge_from_lattice_pair; check it here
    field = get_field(q)
    by_pair = Cochain(_rep_sensitive, r, field)
    by_rep = Cochain(_rep_sensitive, r, field)
    for L0, L1 in _edges_around(field, r):
        v0, s, M1, key = _lattice_pair_key(L0, L1, r)
        g = rep_from_lattice_pair(v0, M1, s)
        e = edge_from_rep(g, s)
        assert e.key == key
        assert (e.origin.rep, e.terminus.rep) == (
            vertex_from_lattice(L0).rep, vertex_from_lattice(L1).rep)
        assert by_pair.eval_lattice_pair(L0, L1) == by_rep.eval_rep(g, s)


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_lattice_pair_edge_checks_its_rep_by_the_key(monkeypatch, q, r):
    # an adapted basis with its two blocks swapped spans L0 but not the
    # pair: the key comparison refuses the rep it gives
    field = get_field(q)
    real = building.rep_from_lattice_pair

    def swapped(v0, M1, s):
        B = mat_inv(real(v0, M1, s))
        return mat_inv(B[s:] + B[:s])
    monkeypatch.setattr(building, "rep_from_lattice_pair", swapped)
    for L0, L1, _W in in_edges(canonical_vertex(mat_identity(field, r)),
                               1, field):
        with pytest.raises(AssertionError):
            edge_from_lattice_pair(L0, L1, r)


def _counted(monkeypatch, *names):
    """Patch the named functions of hb.building to record the first
    argument of each call; one list per name."""
    logs = []
    for name in names:
        log, f = [], getattr(building, name)

        def wrapper(*args, _f=f, _log=log):
            _log.append(args[0])
            return _f(*args)
        monkeypatch.setattr(building, name, wrapper)
        logs.append(log)
    return logs


@pytest.mark.parametrize("q, r, s", [(2, 2, 1), (3, 2, 1), (2, 3, 1),
                                     (2, 3, 2)])
def test_lattice_pair_lookup_canonicalizes_once(monkeypatch, q, r, s):
    field = get_field(q)
    calls, invs, frames = _counted(monkeypatch, "row_hnf", "mat_inv",
                                   "fq_echelon")
    inside, real = [], building.rep_from_lattice_pair

    def rep(*args):
        before = len(calls), len(frames)
        g = real(*args)
        inside.append((len(calls) - before[0], len(frames) - before[1]))
        return g
    monkeypatch.setattr(building, "rep_from_lattice_pair", rep)
    h = Cochain(lambda g: Fraction(0), r, field)
    v = canonical_vertex(mat_from_exps(field, (1,) + (0,) * (r - 1)))
    L0, L1, _W = in_edges(v, s, field)[-1]
    h.eval_lattice_pair(L0, L1)
    # a miss: 2 to canonicalize, none in rep_from_lattice_pair, which
    # frames C mod pi by one F_q elimination and inverts the adapted
    # basis once
    assert len(calls) == 2 and inside == [(0, 1)] and len(invs) == 1
    del calls[:], invs[:], frames[:]
    h.eval_lattice_pair(L0, L1)
    # a hit canonicalizes and looks the key up: no C, no framing
    assert len(calls) == 2 and invs == [] and frames == []
    assert inside == [(0, 1)]


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_rep_lookup_canonicalizes_once(monkeypatch, q, r):
    # edge_from_rep eliminates the columns of g once, with no row_hnf and
    # no inverse, and a theta cache hit makes nothing more
    from hb.discriminant import eval_theta_on_edge
    from hb.verify import _gl_sample
    field = get_field(q)
    hnfs, invs = _counted(monkeypatch, "row_hnf", "mat_inv")
    n = Poly(field, (0, 1))
    for g in _gl_sample(field, r):
        for s in range(1, r):
            del hnfs[:], invs[:]
            edge_from_rep(g, s)
            assert hnfs == [] and invs == []
        cache = {}
        value = eval_theta_on_edge(n, g, _cache=cache)
        del hnfs[:], invs[:]
        assert eval_theta_on_edge(n, g, _cache=cache) == value
        assert hnfs == [] and invs == []


def _adjacency_by_inversion(L0rows, L1rows, r):
    """(s, key) of the edge ([L0], [L1]) found by testing containment
    L0 > pi^t L1 > pi L0 with two inversions for each t, or None."""
    field = L0rows[0][0].field
    v0, v1 = vertex_from_lattice(L0rows, r), vertex_from_lattice(L1rows, r)
    M0 = v0.rep
    for t in range(-r - 3, r + 4):
        M1 = mat_scale(v1.rep, RatF.pi_power(field, t))
        s = sum(v1.d) + r * t - sum(v0.d)
        if (0 < s < r and mat_is_integral(mat_mul(M1, mat_inv(M0)))
                and mat_is_integral(mat_mul(mat_scale(M0, RatF.pi_power(field, 1)),
                                            mat_inv(M1)))):
            return s, lattice_key(M0) + lattice_key(M1)
    return None


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_adjacency_by_rank_agrees_with_inversion(q, r):
    # adjacent pairs; then each pair with one row of L1 scaled by pi or
    # pi^2 (of any type, adjacent or not; row and power cycle with the
    # pair), and (L1, pi^2 L1) of type 0
    field = get_field(q)
    pi2 = RatF.pi_power(field, 2)
    pairs = _edges_around(field, r)
    adjacent = len(pairs)
    for n, (L0, L1) in enumerate(pairs[:adjacent]):
        i, c = n // 2 % r, RatF.pi_power(field, 1 + n % 2)
        far = [list(row) for row in L1]
        far[i] = [x * c for x in far[i]]
        pairs.append((L0, tuple(tuple(row) for row in far)))
        pairs.append((L1, mat_scale(L1, pi2)))
    outcomes, reasons = [], set()
    for n, (L0, L1) in enumerate(pairs):
        ref = _adjacency_by_inversion(L0, L1, r)
        if ref is None:
            with pytest.raises(ValueError) as info:
                edge_from_lattice_pair(L0, L1, r)
            reasons.add(str(info.value))
        else:
            e = edge_from_lattice_pair(L0, L1, r)
            assert (e.s, e.key) == ref
        outcomes.append((n < adjacent, ref is None))
    assert (True, False) in outcomes and (False, True) in outcomes
    assert all(not far for near, far in outcomes if near)
    # at r = 2 an integral C with ord det C = 1 has rank 1 mod pi; above,
    # the rank, not only the type, rejects some pairs
    assert ("lattices are not adjacent: pi L0 is not in L1" in reasons) == (r > 2)
    assert "lattices are not adjacent: L1 is not in L0" in reasons


def _integral_entry(field, c):
    """(c0 + c1 pi + c2 pi^2) / (1 + c3 pi): integral, not always Laurent."""
    pi = RatF.pi_power(field, 1)
    num = RatF.zero(field)
    for k, ck in enumerate(c[:3]):
        if ck:
            num = num + RatF(Poly.const(field, ck)) * RatF.pi_power(field, k)
    den = RatF.one(field) + (RatF(Poly.const(field, c[3])) * pi if c[3] else RatF.zero(field))
    return num / den


@given(st.data())
def test_is_in_I1_agrees_with_hermite_determinant(data):
    q = data.draw(st.sampled_from((2, 3)))
    r = data.draw(st.sampled_from((2, 3)))
    field = get_field(q)
    coeff = st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
    k = []
    for i in range(r):
        row = []
        for j in range(r):
            c = data.draw(coeff)
            if i and not j and data.draw(st.booleans()):
                c[0] = 0       # lands in pi O more often than chance
            row.append(_integral_entry(field, c))
        k.append(tuple(row))
    k = tuple(k)
    try:
        unit_det = sum(row_hnf(k, r)[1]) == 0
    except ValueError:           # singular
        unit_det = False
    expected = (mat_is_integral(k) and unit_det
                and all(k[i][0].ord_inf() >= 1 for i in range(1, r)))
    assert is_in_I1(k) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_closed_form_inverses_match_elimination(q, r):
    # flip^{-1} = flip^T and W_s^{-1} = pi^{-1} W_{r-s}, against mat_inv
    field = get_field(q)
    flip = flip_matrix(field, r)
    assert tuple(zip(*flip)) == mat_inv(flip)
    for s in range(r + 1):
        assert w_inverse(field, r, s) == mat_inv(w_matrix(field, r, s))


@given(st.data())
def test_fq_mat_inv_matches_elimination(data):
    # Gauss-Jordan on F_q codes against mat_inv over F_q(T), on the
    # invertible constant matrices (singular draws are skipped)
    q = data.draw(st.sampled_from((2, 3, 4)))
    r = data.draw(st.sampled_from((2, 3, 4)))
    field = get_field(q)
    entries = [[data.draw(st.integers(0, q - 1)) for _ in range(r)]
               for _ in range(r)]
    M = const_matrix(field, entries)
    try:
        want = mat_inv(M)
    except ZeroDivisionError:
        return
    assert const_matrix(field, fq_mat_inv(field, entries)) == want


@given(st.data())
def test_fq_echelon_pivots_and_dependencies(data):
    # every pivot row is its recorded combination of the inputs, 1 at
    # its pivot and 0 at the other pivots; every dependency combines the
    # inputs to 0 with 1 at its own index; and the pivot count is the
    # rank over F_q(T), the largest invertible square submatrix
    field = get_field(data.draw(st.sampled_from((2, 3, 4))))
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    vectors = [tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(n))
               for _ in range(m)]
    pivots, deps = fq_echelon(field, vectors)

    def combination(c):
        out = [0] * n
        for ck, v in zip(c, vectors):
            out = [field.add(x, field.mul(ck, y)) for x, y in zip(out, v)]
        return out
    for j, row in pivots.items():
        assert len(row) == n + m
        assert list(row[:n]) == combination(row[n:])
        assert all(row[k] == int(k == j) for k in pivots)
    for idx, c in deps.items():
        assert len(c) == m and c[idx] == 1
        assert combination(c) == [0] * n
    assert len(pivots) + len(deps) == m
    M = const_matrix(field, vectors)
    rank = 0
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                try:
                    mat_inv(tuple(tuple(M[i][j] for j in cols) for i in rows))
                except ZeroDivisionError:
                    continue
                rank = k
    assert len(pivots) == rank


def _row_degree(row):
    return max(int(p.deg) for p in row if not p.is_zero())


@pytest.mark.parametrize("q", [2, 3])
@given(data=st.data())
def test_weak_popov_has_the_predictable_degree_property(q, data):
    # W = U M with U unimodular, and deg sum a_j W_j is
    # max_j (deg a_j + deg W_j) for polynomial a, not all zero; M = E N
    # with E unit upper triangular, so that its rows' leading
    # coefficients are mostly dependent
    field = get_field(q)
    r = data.draw(st.sampled_from((2, 3)))
    zero, one = Poly.zero(field), Poly.one(field)

    def poly(max_deg):
        return Poly(field, data.draw(st.lists(st.integers(0, q - 1),
                                              max_size=max_deg + 1)))
    E = [[one if i == j else poly(2) if i < j else zero for j in range(r)]
         for i in range(r)]
    N = [[poly(2) for _ in range(r)] for _ in range(r)]
    M = [tuple(sum((e * row[j] for e, row in zip(erow, N)), zero)
               for j in range(r)) for erow in E]
    try:
        mat_inv(tuple(tuple(RatF(p) for p in row) for row in M))
    except ZeroDivisionError:
        return
    W, U = weak_popov(M)
    assert W == [tuple(sum((u * m[j] for u, m in zip(urow, M)), zero)
                       for j in range(r)) for urow in U]
    U_inv = mat_inv(tuple(tuple(RatF(p) for p in row) for row in U))
    assert all(x.den.is_one() for row in U_inv for x in row)
    # a_j = c_j T^(D - deg W_j) + lower terms, so that the top terms of
    # the a_j W_j all meet at degree D
    degs = [_row_degree(w) for w in W]
    top = max(degs) + data.draw(st.integers(0, 1))
    c = [data.draw(st.integers(0, q - 1)) for _ in range(r)]
    if not any(c):
        return
    a = [Poly.monomial(field, top - d, cj) + poly(top - d - 1)
         for d, cj in zip(degs, c)]
    v = [sum((x * w[j] for x, w in zip(a, W)), zero) for j in range(r)]
    assert _row_degree(v) == max(int(x.deg) + _row_degree(w)
                                 for x, w in zip(a, W) if not x.is_zero())


# ----------------------------------------------------------------------
# harmonicity checks against their unmemoized forms

def _check_harmonic_gl_reference(h1, g):
    """check_harmonic_gl with one h1 call per term of each identity."""
    r = len(g)
    field = g[0][0].field
    items = []
    for s in range(1, r + 1):
        try:
            lhs = Fraction(0)
            for u in itertools.product(range(field.q), repeat=s - 1):
                lhs += h1(mat_mul(g, m_matrix(field, r, s, u)))
            pi_s = mat_from_exps(field, (-1,) * s + (0,) * (r - s))
            res = lhs - h1(mat_mul(g, pi_s))
            items.append(CheckItem(f"A_{s}", res, res == 0))
        except Exception as exc:
            items.append(CheckItem(f"A_{s}", None, False,
                                   note=f"unevaluable: {exc}"))
    try:
        tot = Fraction(0)
        for s in range(1, r + 1):
            tot += h1(mat_mul(g, w_matrix(field, r, s)))
        items.append(CheckItem("B", tot, tot == 0))
    except Exception as exc:
        items.append(CheckItem("B", None, False, note=f"unevaluable: {exc}"))
    return items


def _logged(h1, log):
    def h(g):
        log.append(g)
        return h1(g)
    return h


def _refuses_zero_corner(g):
    """A stand-in h1 that fails on some cosets, as a deep value would."""
    if g[0][0].is_zero():
        raise ValueError(f"no value at {g[0][1]}")
    return Fraction(int(g[0][0].ord_inf()))


# distinct local matrices of one GL check: the q^(r-1) M_s(u) (M_s(0) =
# pi_1), pi_2..pi_r, and W_1..W_(r-1) (W_r = pi_r)
GL_LOOKUPS = {(2, 2): 4, (3, 2): 5, (2, 3): 8, (3, 3): 13}


@pytest.mark.parametrize("q, r", sorted(GL_LOOKUPS))
def test_gl_check_calls_h1_once_per_distinct_product(q, r):
    from hb.discriminant import theta_evaluator
    field = get_field(q)
    theta = theta_evaluator(Poly(field, (0, 1)), field, r)
    unevaluable = 0
    for g in _pinned_theta_reps(field, r):
        for h1 in (theta, _refuses_zero_corner):
            calls, ref_calls = [], []
            items = check_harmonic_gl(_logged(h1, calls), g)
            assert items == _check_harmonic_gl_reference(
                _logged(h1, ref_calls), g)
            assert len(calls) == len(set(calls)) == GL_LOOKUPS[q, r]
            failed = sum(i.note != "" for i in items)
            # the reference stops an identity at its first failure
            assert set(calls) == set(ref_calls) or failed
            unevaluable += failed
    assert unevaluable      # the failure path was compared too


def _check_harmonic_def_reference(h, v, field, max_flags=None):
    """check_harmonic_def with every lattice pair, triangle edges and flag
    pairs included, looked up by its own key."""
    r = len(v.rep)
    items = []
    M = v.rep
    for s in range(1, r):
        total = Fraction(0)
        for L0, L1, W in in_edges(v, s, field):
            val = h.eval_lattice_pair(L0, L1)
            total += val
            anti = val + h.eval_lattice_pair(*edge_reverse(L0, L1, field))
            if s == 1 or len(items) < 200:
                items.append(CheckItem(f"antisym type {s}", anti, anti == 0))
            tri = sum((h.eval_lattice_pair(*e)
                       for e in _triangle_lattice_edges(field, M, W)),
                      Fraction(0))
            items.append(CheckItem(f"triangle type {s}", tri - val, tri == val))
        items.append(CheckItem(f"in-sum type {s}", total, total == 0))
    for U0, U1 in itertools.islice(_flags(field, r), max_flags or None):
        L0 = _flag_lattice(field, M, U0)
        L1 = _flag_lattice(field, M, U1)
        a = h.eval_lattice_pair(L0, L1)
        b = h.eval_lattice_pair(L1, M)
        c = h.eval_lattice_pair(L0, M)
        items.append(CheckItem("simplex additivity", a + b - c, a + b == c))
    return items


@pytest.mark.parametrize("q, r, max_flags", [(2, 2, None), (3, 2, None),
                                             (2, 3, None), (3, 3, 6)])
def test_def_check_keys_each_lattice_pair_once(monkeypatch, q, r, max_flags):
    from hb.discriminant import theta_evaluator
    field = get_field(q)
    n = Poly(field, (0, 1))
    keys, real = [], building._lattice_pair_key

    def keyed(*args):
        head = real(*args)
        keys.append(head[-1])
        return head
    monkeypatch.setattr(building, "_lattice_pair_key", keyed)
    for exps in ((0,) * r, (2, 1) + (0,) * (r - 2)):
        v = canonical_vertex(mat_from_exps(field, exps))
        h = extend_cochain(theta_evaluator(n, field, r), r, field)
        del keys[:]
        items = check_harmonic_def(h, v, field, max_flags)
        assert len(keys) == len(set(keys))
        assert all(item.ok for item in items)
        ref = extend_cochain(theta_evaluator(n, field, r), r, field)
        assert items == _check_harmonic_def_reference(ref, v, field,
                                                      max_flags)
