"""The record types: namedtuples, and __slots__ classes for the vertex,
the edge and the Weyl type.  Vertices and edges compare and hash by
their keys, and the CLI prints every record as its fields in order."""

from fractions import Fraction

import pytest

from hb.building import (CheckItem, OrientedEdge, WeylType,
                         canonical_vertex, edge_from_rep, iwasawa_decompose,
                         mat_from_exps, mat_mul, type_one_in_neighbors,
                         vertex_from_lattice)
from hb.cli import _jsonable
from hb.eisenstein import (IdentityCheckItem, LogDeltaAffine, LogDeltaSymbol,
                           RecursiveEisenstein, ZeroCoefficient,
                           eisenstein_fourier, eisenstein_truncated_sum,
                           log_delta_fourier)
from hb.fields import get_field
from hb.fourier import FourierTable, PPoint
from hb.poly import Poly, RatF, parse_poly
from hb.units import (cusp_orbits, cuspidal_order, root_order_theta,
                      sigma_det_check)
from hb.verify import CriterionReport


def _matrix(field, text):
    return tuple(tuple(RatF(parse_poly(field, e)) for e in row.split(","))
                 for row in text.split(";"))


@pytest.mark.parametrize("q", [2, 3])
def test_two_bases_of_one_lattice_give_one_vertex(q):
    field = get_field(q)
    rows = _matrix(field, "T^2,T+1,1;0,T,2;0,0,1" if q == 3 else
                   "T^2,T+1,1;0,T,1;0,0,1")
    # a change of basis in GL_3(O_inf), then the lattice scaled by
    # pi^-1 = T (the same homothety class)
    one, zero, pi = RatF.one(field), RatF.zero(field), RatF.pi_power(field, 1)
    u = ((one, pi, one), (zero, one + pi, pi * pi), (pi, zero, -one))
    other = mat_mul(u, rows)
    scaled = tuple(tuple(x * RatF(Poly(field, (0, 1))) for x in row)
                   for row in other)
    v1, v2, v3 = (vertex_from_lattice(m) for m in (rows, other, scaled))
    assert v1 == v2 == v3
    assert hash(v1) == hash(v2) == hash(v3)
    assert len({v1, v2, v3}) == 1
    assert v1 != vertex_from_lattice(mat_from_exps(field, (0, 0, 0)))
    # inv is computed once, on first use
    assert v1.inv is v1.inv
    assert mat_mul(v1.rep, v1.inv) == mat_from_exps(field, (0, 0, 0))


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (2, 3)])
def test_edges_are_equal_exactly_when_their_keys_are(q, r):
    field = get_field(q)
    g = mat_from_exps(field, (2,) + (0,) * (r - 1))
    edges = type_one_in_neighbors(g)
    # the same edges from other reps: g times a constant unit scalar
    # matrix, and g scaled by pi (one coset of the center)
    c = q - 1
    unit = tuple(tuple(RatF(Poly.const(field, c)) if i == j
                       else RatF.zero(field) for j in range(r))
                 for i in range(r))
    again = [edge_from_rep(mat_mul(e.g, unit), 1) for e in edges]
    pi_g = [edge_from_rep(tuple(tuple(x * RatF.pi_power(field, 1) for x in row)
                                for row in e.g), 1) for e in edges]
    assert again == edges and pi_g == edges
    everything = edges + again + pi_g + [edge_from_rep(g, s)
                                         for s in range(1, r)]
    for e1 in everything:
        for e2 in everything:
            assert (e1 == e2) == (e1.key == e2.key)
            if e1 == e2:
                assert hash(e1) == hash(e2)
    assert len(set(everything)) == len({e.key for e in everything})
    # equality reads the key only
    e = edges[0]
    assert OrientedEdge(e.s, e.origin, e.terminus, e.key, None) == e
    assert OrientedEdge(e.s, e.origin, e.terminus, e.key + b"\0", e.g) != e


def _records():
    """One instance of each record type, with its fields in the order
    they are declared."""
    F2, F3 = get_field(2), get_field(3)
    g = _matrix(F2, "0,1;1,T")
    vertex = canonical_vertex(g)
    edge = edge_from_rep(g, 1)
    T, T1 = parse_poly(F2, "T"), parse_poly(F2, "T+1")
    zero = eisenstein_fourier((Poly.zero(F2),), (2,), 2, 2)
    affine = log_delta_fourier((Poly.zero(F2),), (2,), 2, 2)
    return [
        (vertex, ("rep", "d", "key")),
        (edge, ("s", "origin", "terminus", "key", "g")),
        (iwasawa_decompose(g, vertex), ("p_inv", "w", "scalar", "kappa")),
        (WeylType((2, 1, 0)), ("k",)),
        (CheckItem("B", Fraction(1, 2), False),
         ("condition", "residual", "ok", "note")),
        (PPoint((RatF(T),), (3,)), ("x", "yexps")),
        (FourierTable(F2, (3,), {(): Fraction(1)}),
         ("field", "yexps", "entries")),
        (eisenstein_truncated_sum((0, 0), 2, 2, 3),
         ("value", "tail_bound", "terms")),
        (zero, ("recursive", "explicit")),
        (zero.recursive, ("rank", "yexps")),
        (affine, ("symbol", "sym_coeff", "const")),
        (affine.symbol, ("rank", "yexps")),
        (IdentityCheckItem(2, 2, ("T",), (3,), Fraction(1), Fraction(1), True),
         ("q", "r", "a", "yexps", "lhs", "rhs", "ok")),
        (sigma_det_check((T, T1), 1),
         ("primes", "s", "size", "det", "expected_magnitude", "magnitude_ok",
          "sign", "empirical_sign", "stated_sign")),
        (root_order_theta(parse_poly(F3, "T"), 2),
         ("n", "r", "kappa", "max_root", "character_order", "witness_level",
          "witness_aux", "gcd_ok")),
        (cusp_orbits(T, 2), ("n", "r", "total", "orbit_count", "orbit_sizes")),
        (cuspidal_order(T, 3), ("p", "r", "order", "theta_pole_order")),
        (CriterionReport(1, "x", True, 3, [], 0.5),
         ("number", "name", "passed", "checks", "failures", "seconds",
          "notes")),
    ]


def test_every_record_prints_its_fields_in_order():
    records = _records()
    assert len({type(rec) for rec, _ in records}) == 18
    for rec, fields in records:
        doc = _jsonable(rec)
        assert tuple(doc) == fields, type(rec).__name__
        for name in fields:
            assert doc[name] == _jsonable(getattr(rec, name))


def test_nested_records_print_as_nested_objects():
    zero = eisenstein_fourier((Poly.zero(get_field(2)),), (2,), 2, 2)
    assert isinstance(zero, ZeroCoefficient)
    assert isinstance(zero.recursive, RecursiveEisenstein)
    assert _jsonable(zero)["recursive"] == {"rank": 1, "yexps": [2]}
    affine = log_delta_fourier((Poly.zero(get_field(2)),), (2,), 2, 2)
    assert isinstance(affine, LogDeltaAffine)
    assert isinstance(affine.symbol, LogDeltaSymbol)
    assert _jsonable(affine)["symbol"] == {"rank": 1, "yexps": [2]}
    assert _jsonable(CheckItem("B", Fraction(1, 2), False)) == {
        "condition": "B", "residual": "1/2", "ok": False, "note": ""}


def test_each_report_gets_its_own_notes():
    a = CriterionReport(1, "x", True, 3, [], 0.5)
    b = CriterionReport(2, "y", True, 3, [], 0.5)
    assert a.notes == b.notes == {}
    assert a.notes is not b.notes
    assert CriterionReport(3, "z", True, 0, [], 0.0, {"k": 1}).notes == {"k": 1}
