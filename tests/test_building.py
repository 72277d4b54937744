"""Building navigation: canonical vertices, neighbors, Iwasawa cells."""

import itertools
from fractions import Fraction

import pytest

from hb import building
from hb.building import (Cochain, canonical_vertex, edge_from_lattice_pair,
                         edge_from_rep, edge_reverse, flip_matrix, in_edges,
                         iwasawa_decompose, lattice_key, mat_from_exps,
                         mat_identity, mat_inv, mat_mul, rep_from_lattice_pair,
                         triangle_lattice_edges, type_one_in_neighbors,
                         upper_triangularize, w_matrix)
from hb.fields import get_field
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


def test_iwasawa_decompose_reassembles():
    samples = [mat_identity(F2, 2), flip_matrix(F2, 2),
               mat_from_exps(F2, (2, 0)),
               mat_mul(flip_matrix(F2, 2), mat_from_exps(F2, (1, 0)))]
    x = RatF.pi_power(F2, 1)
    p = ((RatF.one(F2), x), (RatF.zero(F2), RatF.one(F2)))
    samples.append(p)
    samples.append(mat_mul(p, flip_matrix(F2, 2)))
    from hb.building import mat_scale
    for g in samples:
        iw = iwasawa_decompose(g)
        W = mat_identity(F2, 2) if iw.w == "identity" else flip_matrix(F2, 2)
        rec = mat_scale(mat_mul(mat_mul(iw.p, W), iw.kappa), iw.scalar)
        assert rec == tuple(tuple(row) for row in g)


def test_upper_triangularize_preserves_coset():
    g = mat_mul(flip_matrix(F3, 3), mat_from_exps(F3, (1, 0, 2)))
    u, k = upper_triangularize(g)
    # u = g k with k integral of unit determinant, u upper triangular
    assert mat_mul(g, k) == u
    for i in range(3):
        for j in range(i):
            assert u[i][j].is_zero()


def test_w_matrix_shape():
    # W_s = [[0, I_{r-s}], [pi I_s, 0]]
    w = w_matrix(F2, 3, 1)
    assert w[0][1] == RatF.one(F2)
    assert w[1][2] == RatF.one(F2)
    assert w[2][0] == RatF.pi_power(F2, 1)
    assert w[0][0].is_zero()


def test_iwasawa_detects_cells():
    assert iwasawa_decompose(mat_identity(F2, 2)).w == "identity"
    assert iwasawa_decompose(flip_matrix(F2, 2)).w == "flip"


def _edges_around(field, r):
    """Every in-edge of the vertices diag(T^e), e in {0,1,2}^r, its
    reverse and its triangle edges, as lattice basis pairs."""
    out = []
    for exps in itertools.product(range(3), repeat=r):
        v = canonical_vertex(mat_from_exps(field, exps))
        for s in range(1, r):
            for L0, L1, W in in_edges(v, s, field):
                out += [(L0, L1), edge_reverse(L0, L1, field)]
                out += triangle_lattice_edges(field, L1, W)
    return out


def _rep_sensitive(g):
    """Not a cochain: a value that changes with the coset rep itself."""
    return Fraction(sum(k * int(x.ord_inf()) + k * k
                        for k, x in enumerate(itertools.chain(*g))
                        if not x.is_zero()))


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_lattice_pair_rep_reconstructs_the_edge(q, r):
    # the round trip e^s_g for g = rep_from_lattice_pair(edge) is implied
    # by the span checks inside rep_from_lattice_pair; check it here
    field = get_field(q)
    by_pair = Cochain(_rep_sensitive, r, field)
    by_rep = Cochain(_rep_sensitive, r, field)
    for L0, L1 in _edges_around(field, r):
        e = edge_from_lattice_pair(L0, L1, r)
        g = rep_from_lattice_pair(e)
        assert edge_from_rep(g, e.s).key == e.key
        assert by_pair.eval_lattice_pair(L0, L1) == by_rep.eval_rep(g, e.s)


@pytest.mark.parametrize("q, r, s", [(2, 2, 1), (3, 2, 1), (2, 3, 1),
                                     (2, 3, 2)])
def test_lattice_pair_lookup_canonicalizes_once(monkeypatch, q, r, s):
    field = get_field(q)
    hnf = building.row_hnf
    calls = []

    def counted(rows, r):
        calls.append(rows)
        return hnf(rows, r)
    monkeypatch.setattr(building, "row_hnf", counted)
    h = Cochain(lambda g: Fraction(0), r, field)
    v = canonical_vertex(mat_from_exps(field, (1,) + (0,) * (r - 1)))
    L0, L1, _W = in_edges(v, s, field)[-1]
    h.eval_lattice_pair(L0, L1)
    assert len(calls) <= 5           # a miss: 2 to canonicalize, 2 checks
    del calls[:]
    h.eval_lattice_pair(L0, L1)
    assert len(calls) == 2           # a hit canonicalizes and looks up
