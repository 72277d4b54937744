"""Units and cuspidal arithmetic: determinants, root orders, orbits."""

from fractions import Fraction
from math import gcd

import itertools

import pytest

import hb.units
from hb.fields import MAX_FIELD, embedding, get_field
from hb.poly import factor_degrees, parse_poly
from hb.units import (MAX_CUSP_STATES, character_order, cusp_orbits,
                      cuspidal_order, gcd_sweep, root_order_delta,
                      root_order_theta, sigma_det_check)

F2 = get_field(2)
F3 = get_field(3)


def test_sigma_det_single_prime():
    t = parse_poly(F2, "T")
    rep = sigma_det_check((t,), 2)
    # [TRIVIAL] 1x1 matrix: det = sigma_T(2, T) = 1 (only the divisor 1)
    assert rep.det == 1
    assert rep.magnitude_ok
    assert rep.empirical_sign == 1 and rep.stated_sign == -1


@pytest.mark.parametrize("M, det", [
    ([[0, 1], [1, 0]], -1),                     # a row swap at the first pivot
    ([[0, 2, 1], [1, 0, 0], [0, 0, 3]], -6),    # a swap, then elimination
    ([[0, 0], [0, 1]], 0),                      # no pivot in column 1
])
def test_bareiss_det_swaps_rows_and_sees_a_singular_matrix(M, det):
    assert hb.units._bareiss_det(M) == det


def test_sigma_det_two_primes_magnitude():
    primes = (parse_poly(F2, "T"), parse_poly(F2, "T+1"))
    for s in (1, 2, 3):
        rep = sigma_det_check(primes, s)
        assert rep.magnitude_ok
        assert abs(rep.det) == Fraction(2) ** (2 * s)
        assert rep.sign == -1


def test_sigma_det_three_primes_sign():
    primes = tuple(parse_poly(F3, s) for s in ("T", "T+1", "T+2"))
    rep = sigma_det_check(primes, 1)
    assert rep.magnitude_ok
    assert rep.sign == rep.empirical_sign == 1


def test_sigma_det_rejects_duplicates():
    t = parse_poly(F2, "T")
    with pytest.raises(ValueError):
        sigma_det_check((t, t), 1)


def test_root_order_delta():
    assert root_order_delta(2) == 1
    assert root_order_delta(5) == 4


def test_root_order_theta_gcd_law():
    # [PAPER] max root order (q-1)(q^{gcd(deg n, r)} - 1)
    for q, field in ((2, F2), (3, F3)):
        for s in ("T", "T^2+T+1" if q == 2 else "T^2+1"):
            n = parse_poly(field, s)
            for r in (2, 3, 4):
                rd = root_order_theta(n, r)
                assert rd.max_root == \
                    (q - 1) * (q ** gcd(int(n.deg), r) - 1)
                assert rd.gcd_ok


@pytest.mark.parametrize("level", ["1", "2"])
def test_root_order_theta_needs_a_level_of_positive_degree(level):
    # Theta_n = 1 at a unit level: no largest root, and a negative
    # exponent in the witness
    with pytest.raises(ValueError, match="degree below 1"):
        root_order_theta(parse_poly(F3, level), 2)


def test_gcd_sweep_clean():
    assert gcd_sweep(qs=(2, 3), dmax=6, rmax=4) == []


def test_character_order_squarefree():
    n = parse_poly(F3, "T")
    for r in (2, 3):
        assert character_order(n, r) == 2


def test_cusp_orbit_counts():
    # [PAPER] 2^s orbits for squarefree n with s prime factors
    for field, s_str, s in ((F2, "T", 1), (F2, "T^2+T", 2), (F3, "T+1", 1)):
        n = parse_poly(field, s_str)
        for r in (2, 3):
            rep = cusp_orbits(n, r)
            assert rep.orbit_count == 2 ** s
            assert sum(rep.orbit_sizes) == rep.total


def _orbit_sizes_full_generators(n, r):
    """Orbit sizes by a search that applies every element e_ij(beta),
    beta in A/n, every unit torus diag(u, 1, ..., 1, u^{-1}) and every
    diag(eps, 1, ..., 1), eps in F_q^x."""
    base = n.field
    comps = [(get_field(base.q ** d), embedding(base.q, base.q ** d))
             for d, _m in factor_degrees(n)]
    canon = hb.units._canonical

    def act(state, i, j, beta, u, eps):
        out = []
        for (F, emb), b, x, vec in zip(comps, beta, u, state):
            new = list(vec)
            new[i] = F.add(new[i], F.mul(b, vec[j]))
            new[0] = F.mul(F.mul(x, emb[eps]), new[0])
            new[r - 1] = F.mul(F.inv(x), new[r - 1])
            out.append(tuple(new))
        return tuple(out)

    residues = list(itertools.product(*[range(F.q) for F, _ in comps]))
    ones = (1,) * len(comps)
    moves = [(i, j, beta, ones, 1) for i in range(r) for j in range(r)
             if i != j and not (j == 0 and i >= 1) for beta in residues]
    moves += [(0, 1, (0,) * len(comps), u, 1) for u in residues if all(u)]
    moves += [(0, 1, (0,) * len(comps), ones, eps) for eps in range(1, base.q)]
    nonzero = [[v for v in itertools.product(range(F.q), repeat=r) if any(v)]
               for F, _ in comps]
    left = {canon(s, comps, base) for s in itertools.product(*nonzero)}
    sizes = []
    while left:
        frontier = [left.pop()]
        size = 0
        while frontier:
            s = frontier.pop()
            size += 1
            for m in moves:
                t = canon(act(s, *m), comps, base)
                if t in left:
                    left.remove(t)
                    frontier.append(t)
        sizes.append(size)
    return tuple(sorted(sizes))


@pytest.mark.parametrize("q, level, r", [
    (2, "T^2+T", 2), (2, "T^2+T+1", 3), (2, "T^4+T", 2), (2, "T^3+T^2+T", 3),
    (2, "T^3+T+1", 2),
    (3, "T^2+1", 2), (3, "T^2+T", 3), (4, "T", 3), (4, "T^2+T", 2),
])
def test_cusp_orbits_match_the_full_generator_search(q, level, r):
    n = parse_poly(get_field(q), level)
    assert cusp_orbits(n, r).orbit_sizes == _orbit_sizes_full_generators(n, r)


class Enumerated(Exception):
    pass


@pytest.mark.parametrize("q, r, level, states", [
    (2, 2, "T^9+T^5+T^4+T^2+T", 196605),   # T (T^8+T^4+T^3+T+1): 3 * 65535
    (2, 3, "T^6+T^5+T^3+T", 200655),       # T (T+1) (T^4+T+1): 7 * 7 * 4095
])
def test_cusp_orbit_state_cap(monkeypatch, q, r, level, states):
    # the count is checked before any state is listed: a level just
    # under MAX_CUSP_STATES reaches the enumeration, which is cut at its
    # first state; the one just over never gets there
    def enumerated(*args):
        raise Enumerated
    monkeypatch.setattr(hb.units, "_canonical", enumerated)
    n = parse_poly(get_field(q), level)
    if states <= MAX_CUSP_STATES:
        with pytest.raises(Enumerated):
            cusp_orbits(n, r)
    else:
        with pytest.raises(ValueError, match=f"{states} states, more than "
                                             f"{MAX_CUSP_STATES}"):
            cusp_orbits(n, r)


def test_cusp_orbit_cap_is_read_off_the_factor_degrees(monkeypatch):
    # T^31+T^3+1 is irreducible over F_2: 2^62 - 1 states, refused from
    # its degree before any residue field is built
    def untouchable(*args):
        raise AssertionError("the cap must be checked first")
    monkeypatch.setattr(hb.units, "get_field", untouchable)
    monkeypatch.setattr(hb.units, "embedding", untouchable)
    n = parse_poly(F2, "T^31+T^3+1")
    with pytest.raises(ValueError, match=f"{2 ** 62 - 1} states"):
        cusp_orbits(n, 2)
    with pytest.raises(ValueError, match="squarefree"):
        cusp_orbits(n * n, 2)


@pytest.mark.parametrize("q, level, top", [
    (5, "T^4+T^2+2", 625),          # irreducible: 97656 states
    (9, "T^3+2T^2+1", 729),         # irreducible: 66430 states
])
def test_cusp_orbit_residue_field_cap(small_fields_only, q, level, top):
    # under the state cap, but its residue field is over MAX_FIELD and is
    # refused from the degrees, before it is built
    n = parse_poly(get_field(q), level)
    with pytest.raises(ValueError, match=f"residue field of {top} elements, "
                                         f"more than {MAX_FIELD}"):
        cusp_orbits(n, 2)


# levels with two or three factors of one degree; each value was first computed
# with the factors found by trial division, a route independent of
# factor_degrees
@pytest.mark.parametrize("q, level, r, total, sizes", [
    (2, "T^2+T", 2, 9, (1, 2, 2, 4)),                       # T (T+1)
    (2, "T^2+T", 3, 49, (1, 6, 6, 36)),
    (2, "T^4+T", 2, 135, (3, 6, 6, 12, 12, 24, 24, 48)),    # T (T+1) (T^2+T+1)
    (2, "T^4+T", 3, 3087, (3, 18, 18, 60, 108, 360, 360, 2160)),
    (3, "T^3+2T", 2, 256, (4, 12, 12, 12, 36, 36, 36, 108)),  # T (T+1) (T+2)
    (3, "T^3+2T", 3, 8788, (4, 48, 48, 48, 576, 576, 576, 6912)),
])
def test_cusp_orbits_at_repeated_factor_degrees(q, level, r, total, sizes):
    rep = cusp_orbits(parse_poly(get_field(q), level), r)
    assert (rep.total, rep.orbit_count, rep.orbit_sizes) == \
        (total, len(sizes), sizes)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_cusp_orbits_at_a_unit_level(q):
    # (A/1)^r is one point: one orbit, at every q
    rep = cusp_orbits(parse_poly(get_field(q), "1"), 2)
    assert (rep.total, rep.orbit_count, rep.orbit_sizes) == (1, 1, (1,))


def test_cusp_orbits_rejects_square_level():
    with pytest.raises(ValueError):
        cusp_orbits(parse_poly(F2, "T^2"), 2)


def test_cuspidal_orders_anchors():
    # [PAPER] order 3 for q=2, r=3, p=T; order 13 for q=3, r=2, deg p=3
    assert cuspidal_order(parse_poly(F2, "T"), 3).order == 3
    assert cuspidal_order(parse_poly(F3, "T^3+T^2+2"), 2).order == 13


def test_cuspidal_pole_order():
    rep = cuspidal_order(parse_poly(F2, "T"), 3)
    assert rep.theta_pole_order == -(2 ** 2 - 1)


def test_cuspidal_rejects_reducible():
    with pytest.raises(ValueError):
        cuspidal_order(parse_poly(F2, "T^2+T"), 2)
