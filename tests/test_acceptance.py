"""Acceptance battery: one test per criterion, with the runtime budget
asserted alongside the checks.  Each test is a thin wrapper over the
corresponding driver in hb.verify so that `hb verify all` and the test
suite can never drift apart."""

from math import comb

import pytest

from hb import verify


def _assert_green(rep, checks, budget_seconds):
    assert rep.passed, f"criterion {rep.number} failed: {rep.failures[:5]}"
    # the criteria are seeded and deterministic, so a change in an
    # enumeration shows up as a change in the count
    assert rep.checks == checks
    assert rep.seconds < budget_seconds, \
        f"criterion {rep.number} took {rep.seconds:.1f}s " \
        f"(budget {budget_seconds}s)"


@pytest.mark.parametrize("r", [2, 3, 4])
def test_weyl_types_are_each_dominant_type_once(r):
    # the dominant k_1 >= ... >= k_{r-1} >= 0 with k_1 <= 3 are the
    # multisets of r - 1 values from {0, 1, 2, 3}
    types = list(verify._weyl_types(r, 3))
    assert len(types) == len(set(types)) == comb(r + 2, r - 1)
    for k in types:
        assert len(k) == r and k[-1] == 0 and k[0] <= 3
        assert all(a >= b for a, b in zip(k, k[1:]))


def test_criterion_01_weyl_chamber_values():
    # closed form vs independent finite Fourier sum, q in {2,3,4},
    # r in {2,3,4}, k_1 <= 3
    _assert_green(verify.criterion_weyl_values(), 213, 5)


@pytest.mark.slow
def test_criterion_02_oracle_cross_check():
    # lattice-sum oracle vs closed-form series at >= 20 edges including
    # the four diagonal anchors and >= 10 points with x != 0, plus
    # Theta_n for three levels, plus diag(1,..,1) and diag(T,1,..,1) at
    # (q, r) = (2, 3) and (3, 2), plus 18 mirabolic points with x != 0 at
    # r = 3, plus Theta_n at two deep diagonal edges
    rep = verify.criterion_oracle_cross_check()
    assert rep.notes["edges"] >= 20
    assert rep.notes["wider_anchors"] == 4
    assert rep.notes["rank3_points"] == 18
    assert rep.notes["deep_theta_edges"] == 2
    _assert_green(rep, 63, 15 * 60)


@pytest.mark.slow
def test_criterion_03_harmonicity():
    # both coset-sum identities at 12 reps per (q, r) in {2,3}^2, two of
    # them flip diag(T^k, 1, ...) at k = 3 and 4, and the defining
    # conditions at >= 25 vertices
    rep = verify.criterion_harmonicity()
    assert rep.notes["vertices"] >= 25
    _assert_green(rep, 620, 10 * 60)


@pytest.mark.slow
def test_criterion_04_fourier_round_trip():
    # 100 random-table round trips per configuration plus the
    # oracle-backed coefficients of P1(Delta_2)
    rep = verify.criterion_fourier(trials=100, with_oracle=True)
    assert rep.notes["oracle_cases"] == 3
    _assert_green(rep, 2503, 10 * 60)


def test_criterion_05_kronecker_limit_chain():
    _assert_green(verify.criterion_klf_chain(), 20000, 60)


def test_criterion_06_eisenstein_closed_form():
    # 20 random evaluation points within the certified tail bound and
    # the 64/15 anchor at N = 8
    _assert_green(verify.criterion_eisenstein(), 21, 60)


def test_criterion_07_divisor_sum_determinant():
    rep = verify.criterion_sigma_det()
    _assert_green(rep, 18, 10)
    # the single-prime sign disagrees with the recorded statement; that
    # is logged, not hidden
    assert rep.notes["k1_sign_discrepancy"] is True


def test_criterion_08_root_orders():
    _assert_green(verify.criterion_root_orders(), 69, 5)


def test_criterion_09_cusp_orbits_and_orders():
    _assert_green(verify.criterion_cusps(), 26, 2 * 60)


def test_criterion_10_neighbor_counts():
    _assert_green(verify.criterion_neighbor_counts(), 36, 60)
