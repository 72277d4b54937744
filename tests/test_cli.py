"""Command-line interface: document shape and exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hb.building
import hb.cli
import hb.discriminant
import hb.eisenstein
import hb.fourier
import hb.oracle
import hb.poly
import hb.units
from hb.cli import (EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, MAX_GRID,
                    MAX_NEIGHBORS, main)
from hb.building import weyl_edge_value
from hb.discriminant import MAX_SERIES_DIGITS, eval_on_mirabolic
from hb.fields import MAX_FIELD, get_field
from hb.fourier import PPoint
from hb.laurent import PrecisionError
from hb.poly import RatF


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_weyl_value_document(capsys):
    code, doc = run_json(capsys, ["building", "weyl", "--q", "2",
                                  "--k", "2,1,0"])
    assert code == EXIT_OK
    assert doc["tool"] == "hb"
    assert doc["op"] == "building.weyl"
    assert doc["result"] == -32
    assert doc["config"]["q"] == 2
    assert set(doc) >= {"version", "params", "diagnostics"}


def test_neighbors_count(capsys):
    code, doc = run_json(capsys, ["building", "neighbors", "--q", "3",
                                  "--r", "2"])
    assert code == EXIT_OK
    assert doc["result"]["count"] == 4
    assert doc["diagnostics"]["expected_count"] == 4


def test_neighbors_render_edges_from_bases(capsys):
    code, doc = run_json(capsys, ["building", "neighbors", "--q", "2",
                                  "--r", "2"])
    assert code == EXIT_OK
    assert doc["result"] == {"count": 3, "distinct": 3}
    assert "1, 1; 0, (1)/(T) -> 1, 0; 0, 1" in doc["diagnostics"]["edges"]


def test_delta_coeff(capsys):
    code, doc = run_json(capsys, ["delta", "coeff", "--q", "2", "--r", "2",
                                  "--a", "T", "--y", "3"])
    assert code == EXIT_OK
    assert doc["result"] == "9/4"


def test_eisenstein_anchor_match(capsys):
    code, doc = run_json(capsys, ["eisenstein", "eval", "--q", "2",
                                  "--n", "0,0", "--s", "2"])
    assert code == EXIT_OK
    assert doc["result"] == "64/15"
    assert doc["paper_expected"] == "64/15"
    assert doc["match"] is True
    assert doc["diagnostics"]["within_tail"] is True


def test_eisenstein_eval_is_exact_at_a_half_integer(capsys):
    code, doc = run_json(capsys, ["eisenstein", "eval", "--q", "2",
                                  "--n", "0,0", "--s", "3/2"])
    assert code == EXIT_OK
    assert doc["result"] == "48/7"
    assert doc["diagnostics"]["within_tail"] is True


def test_cusps_order_anchor(capsys):
    code, doc = run_json(capsys, ["cusps", "order", "--q", "3", "--r", "2",
                                  "--p", "T^3+T^2+2"])
    assert code == EXIT_OK
    assert doc["result"] == 13 and doc["match"] is True


def test_units_root_order(capsys):
    code, doc = run_json(capsys, ["units", "root-order", "--q", "3",
                                  "--r", "2", "--n", "T"])
    assert code == EXIT_OK
    assert doc["result"] == 2 * (3 - 1)
    assert doc["diagnostics"]["gcd_ok"] is True


def test_text_format(capsys):
    code, out = run(capsys, ["building", "weyl", "--q", "2", "--k", "1,0",
                             "--format", "text"])
    assert code == EXIT_OK
    assert out.strip() == "building.weyl: -4"


def test_usage_error_exit_code(capsys):
    code = main(["building", "weyl", "--q", "2"])  # missing --k
    assert code == EXIT_USAGE
    code = main(["nonsense"])
    assert code == EXIT_USAGE


def test_internal_error_exit_code(capsys, monkeypatch):
    # an unexpected exception -> exit 1, message on stderr
    def broken(p, r):
        raise RuntimeError("broken")
    monkeypatch.setattr(hb.units, "cuspidal_order", broken)
    code = main(["cusps", "order", "--q", "2", "--r", "2", "--p", "T"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err and "broken" in err


def test_theta_eval_matrix_argument(capsys):
    code, doc = run_json(capsys, ["theta", "eval", "--q", "2", "--r", "2",
                                  "--n", "T", "--g", "1,0;0,1"])
    assert code == EXIT_OK
    assert doc["result"] == 2


def test_oracle_pdelta_check(capsys):
    code, doc = run_json(capsys, ["oracle", "pdelta", "--q", "2", "--r", "2",
                                  "--g", "T,0;0,1", "--deg-bound", "5",
                                  "--check"])
    assert code == EXIT_OK
    assert doc["result"] == -4
    assert doc["match"] is True
    assert "prec" not in doc["diagnostics"]    # the oracle picks windows


@pytest.mark.parametrize("argv, windows", [
    (["pdelta", "--g", "T,0;0,1", "--deg-bound", "6"], [10, 10]),
    # diag(T^5, 1) at level T^2+T+1: reduced orders 5, 6, 7 and 8 apart,
    # so 60, 124, 252 and 508 leading digits cancel in g_r
    (["ptheta", "--n", "T^2+T+1", "--g", "T^5,0;0,1", "--deg-bound", "8"],
     [d + hb.oracle.MARGIN for d in (60, 124, 252, 508)]),
])
def test_oracle_reports_windows_and_certificate(capsys, argv, windows):
    # each lattice's certifying window, in order: MIN_WINDOW (10) where
    # nothing cancels, else the planned width, with no doubling
    code, doc = run_json(capsys, ["oracle", *argv[:1], "--q", "2", "--r",
                                  "2", *argv[1:]])
    assert code == EXIT_OK
    assert doc["diagnostics"]["windows"] == windows
    assert doc["diagnostics"]["certificate"] == \
        "stabilized between consecutive truncation depths"


def _usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""          # no value for malformed input
    assert "error" in captured.err
    return captured.err


def test_matrix_must_match_rank(capsys):
    err = _usage_error(capsys, ["theta", "eval", "--q", "2", "--r", "2",
                                "--n", "T", "--g", "1,0,0;0,1,0;0,0,1"])
    assert "2x2" in err


@pytest.mark.parametrize("a, y", [("T", "3"), ("T", "3,3"), ("T,1", "3")])
def test_vectors_must_have_r_minus_1_entries(capsys, a, y):
    _usage_error(capsys, ["delta", "coeff", "--q", "2", "--r", "3",
                          "--a", a, "--y", y])


def test_weyl_type_must_be_dominant(capsys):
    err = _usage_error(capsys, ["building", "weyl", "--q", "2",
                                "--k", "0,1"])
    assert "decreasing" in err


@pytest.mark.parametrize("k", ["0", "2"])
def test_weyl_type_needs_two_entries(capsys, k):
    # r = 1: the building has no edges, so there is no value to print
    err = _usage_error(capsys, ["building", "weyl", "--q", "2", "--k", k])
    assert "at least 2 entries" in err


@pytest.mark.parametrize("flag", ["--deg-bound"])
def test_oracle_bounds_must_be_positive(capsys, flag):
    _usage_error(capsys, ["oracle", "pdelta", "--q", "2", "--r", "2",
                          flag, "0"])


@pytest.mark.parametrize("argv, needle", [
    (["oracle", "pdelta", "--q", "2", "--r", "4"], "r <= 3"),
    (["oracle", "ptheta", "--q", "2", "--r", "4", "--n", "T"], "r <= 3"),
    (["oracle", "pdelta", "--q", "2", "--r", "2", "--deg-bound", "40"],
     "82 basis vectors"),
    (["oracle", "ptheta", "--q", "2", "--r", "3", "--n", "T",
      "--deg-bound", "21"], "66 basis vectors"),
    (["fourier", "coeff", "--q", "2", "--r", "2", "--h", "oracle",
      "--a", "1", "--y", "2", "--deg-bound", "40"], "82 basis vectors"),
    (["fourier", "coeff", "--q", "2", "--r", "4", "--h", "oracle",
      "--a", "1,0,0", "--y", "2,2,2"], "r <= 3"),
])
def test_oracle_range_is_a_usage_error(capsys, argv, needle):
    assert needle in _usage_error(capsys, argv)


@pytest.mark.parametrize("q, a, y, deg_bound, want", [
    (2, "1,0", "2,2", "5", "7/4"),
    (2, "T,0", "3,2", "5", "35/8"),
    (3, "1,0", "2,2", None, "52/9"),
    (2, "T,1", "3,3", None, "7/16"),
    (3, "0,0", "3,2", None, "-2/27"),
])
def test_fourier_coefficient_of_the_oracle_at_rank_3(capsys, q, a, y,
                                                      deg_bound, want):
    # the coefficient taken from lattice-sum values is the closed form
    argv = ["fourier", "coeff", "--q", str(q), "--r", "3", "--h", "oracle",
            "--a", a, "--y", y]
    if deg_bound is not None:
        argv += ["--deg-bound", deg_bound]
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["result"] == str(doc["diagnostics"]["closed_form"]) == want


def test_fourier_oracle_at_rank_3_asks_for_a_larger_depth(capsys):
    err = _usage_error(capsys, ["fourier", "coeff", "--q", "2", "--r", "3",
                                "--h", "oracle", "--a", "0,0", "--y", "3,3",
                                "--deg-bound", "2"])
    assert "StabilizationError" in err and "increase --deg-bound" in err


CAPPED_Q = sorted(path for path, _fn, _configure, fields in hb.cli.LEAVES
                  if "q" in fields)


@pytest.mark.parametrize("q", [MAX_FIELD + 6, 1024, 1000003, 2 ** 127 - 1])
@pytest.mark.parametrize("leaf", CAPPED_Q)
def test_q_over_the_field_cap_is_a_usage_error(capsys, monkeypatch,
                                               small_fields_only, leaf, q):
    # refused while --q is parsed: before it is factored, before any
    # field is built and before the other flags are read
    def untouchable(*args, **kwargs):
        raise AssertionError("an over-cap --q was factored")
    monkeypatch.setattr(hb.cli, "factor_prime_power", untouchable)
    err = _usage_error(capsys, [*leaf.split(), "--q", str(q)])
    assert f"argument --q: {q}: fields of more than {MAX_FIELD} elements" \
        in err


def test_the_field_cap_leaves_out_what_tabulates_no_field():
    assert MAX_FIELD == 343
    assert {path for path, *_ in hb.cli.LEAVES} - set(CAPPED_Q) == \
        {"building weyl", "eisenstein eval", "eisenstein check-klf-chain"}


def test_q_at_the_field_cap_is_computed(capsys):
    code, doc = run_json(capsys, ["delta", "coeff", "--q", str(MAX_FIELD),
                                  "--r", "2", "--a", "T", "--y", "3"])
    assert code == EXIT_OK
    assert doc["result"] == "13841051904/117649"


@pytest.mark.parametrize("argv, want", [
    (["building", "weyl", "--q", "1024", "--k", "1,0"], -1072693248),
    (["eisenstein", "eval", "--q", "1000003", "--n", "0,0", "--s", "2"],
     "1000018000135000540001215001458000729/1000012000054000108000080"),
])
def test_q_of_a_query_that_tabulates_no_field_is_any_prime_power(
        capsys, small_fields_only, argv, want):
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["result"] == want


@pytest.mark.parametrize("argv, needle", [
    (["oracle", "pdelta", "--q", "19", "--r", "2"], "361 elements"),
    (["oracle", "ptheta", "--q", "8", "--r", "3", "--n", "T"],
     "512 elements"),
    (["fourier", "coeff", "--q", "8", "--r", "3", "--h", "oracle",
      "--a", "1,0", "--y", "2,2"], "512 elements"),
    (["cusps", "orbits", "--q", "9", "--r", "2", "--n", "T^3+2T^2+1"],
     "--n 'T^3+2T^2+1': a residue field of 729 elements"),
])
def test_an_extension_over_the_field_cap_is_a_usage_error(
        capsys, small_fields_only, argv, needle):
    # the oracle's F_(q^r) and the residue fields of a cusp level are
    # refused from q, r and the factor degrees, before they are built
    err = _usage_error(capsys, argv)
    assert needle in err and f"more than {MAX_FIELD}" in err


@pytest.mark.parametrize("g", ["1,0;1,1", "0,1;1,0"])
def test_oracle_check_needs_upper_triangular_g(capsys, g):
    # the series reads only the upper triangle: "1,0;1,1" printed a false
    # mismatch, "0,1;1,0" divided by its zero corner
    err = _usage_error(capsys, ["oracle", "pdelta", "--q", "2", "--r", "2",
                                "--g", g, "--check"])
    assert "upper triangular" in err


@pytest.mark.parametrize("r, want", [(2, -2), (3, -4)])
def test_oracle_at_depth_one(capsys, r, want):
    # depth 0 has r basis vectors, so a_{r+1} = 0 exactly
    code, doc = run_json(capsys, ["oracle", "pdelta", "--q", "2",
                                  "--r", str(r), "--deg-bound", "1",
                                  "--check"])
    assert code == EXIT_OK
    assert doc["result"] == want
    assert doc["match"] is True


def test_oracle_at_depth_one_may_not_stabilize(capsys):
    code = main(["oracle", "ptheta", "--q", "2", "--r", "2", "--n", "T",
                 "--deg-bound", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "StabilizationError" in captured.err
    assert "increase --deg-bound" in captured.err


@pytest.mark.parametrize("q, g, want", [
    (2, "0,T^4,0;0,T^8,1;1,0,0", -512),
    (2, "0,T^6,0;0,T^12,1;1,0,0", -8192),
    (3, "0,T^4,0;0,T^8,1;1,0,0", -78732),
])
def test_theta_eval_deep_in_the_flipped_cell(capsys, q, g, want):
    # u diag(T^k, 1, 1) flip for k = 4, 6, deep in the flipped cell:
    # their Gamma_0(T) witnesses have degree k
    code, doc = run_json(capsys, ["theta", "eval", "--q", str(q), "--r", "3",
                                  "--n", "T", "--g", g])
    assert code == EXIT_OK
    assert doc["result"] == want


# queries whose widest lattice plans from 10 (nothing cancels) to 2048
# digits
DOUBLING = [
    ["pdelta", "--r", "2", "--g", "T,0;0,1", "--deg-bound", "6"],
    ["pdelta", "--r", "2", "--g", "1,1/T;0,1/T^2", "--deg-bound", "5"],
    ["pdelta", "--r", "3", "--deg-bound", "3"],
    ["pdelta", "--r", "2", "--g", "1,1/T;0,1/T^3", "--deg-bound", "6"],
    ["pdelta", "--r", "3", "--g", "1,1/T,1/T;0,1/T^2,0;0,0,1/T^2",
     "--deg-bound", "4"],
    ["pdelta", "--q", "3", "--g", "T^3,0;0,1", "--deg-bound", "5"],
    ["ptheta", "--n", "T^2+T+1", "--g", "T^5,0;0,1", "--deg-bound", "8"],
    ["ptheta", "--n", "T^2+T+1", "--g", "T^7,0;0,1", "--deg-bound", "10"],
]


@pytest.mark.parametrize("argv", DOUBLING)
def test_oracle_doubles_past_a_plan_too_low(capsys, monkeypatch, argv):
    # no lattice of the tests or the benchmark collapses at its planned
    # window; planning only MARGIN digits makes each lattice whose real
    # plan is wider than MIN_WINDOW collapse and double from MIN_WINDOW,
    # to the same value at a window at or above that plan
    argv = ["oracle", *argv]
    code, want = run_json(capsys, argv)
    assert code == EXIT_OK
    monkeypatch.setattr(hb.oracle, "_first_window",
                        lambda z, q: hb.oracle.MARGIN)
    code, got = run_json(capsys, argv)
    assert code == EXIT_OK
    assert got["result"] == want["result"]
    planned, doubled = (doc["diagnostics"]["windows"] for doc in (want, got))
    assert len(doubled) == len(planned)
    for plan, window in zip(planned, doubled):
        if plan > hb.oracle.MIN_WINDOW:
            assert window >= plan


def test_oracle_refuses_a_plan_above_the_widest_window(capsys, monkeypatch):
    # diag(T^15, 1): 4 (2^14 - 1) leading digits cancel in g_r, so the
    # first lattice plans 65536 digits, above MAX_WINDOW; it is refused
    # before any recursion runs
    def unreachable(*args):
        raise AssertionError("drinfeld_coeffs ran")
    monkeypatch.setattr(hb.oracle, "drinfeld_coeffs", unreachable)
    err = _usage_error(capsys, ["oracle", "pdelta", "--q", "2", "--r", "2",
                                "--g", "T^15,0;0,1", "--deg-bound", "16"])
    assert "PrecisionError" in err and "65536" in err
    assert str(hb.oracle.MAX_WINDOW) in err


def test_oracle_certifies_deep_theta_without_a_flag(capsys):
    # diag(T^7, 1) at level T^2+T+1: 252, 508, 1020 and 2044 leading
    # digits cancel, so its lattices plan 256 to 2048 digits
    g = ["--n", "T^2+T+1", "--g", "T^7,0;0,1"]
    code, doc = run_json(capsys, ["oracle", "ptheta", "--q", "2", "--r", "2",
                                  *g, "--deg-bound", "10"])
    assert code == EXIT_OK
    assert doc["diagnostics"]["windows"] == [256, 512, 1024, 2048]
    code, series = run_json(capsys, ["theta", "eval", "--q", "2", "--r", "2",
                                     *g])
    assert code == EXIT_OK
    assert doc["result"] == series["result"] == 768


def test_oracle_window_collapse_is_a_usage_error(capsys, monkeypatch):
    # a window that still collapses at MAX_WINDOW is reported like an
    # unsettled depth, as a usage error without a value
    def collapse(*args, **kwargs):
        raise PrecisionError("coefficient of pi^9 unknown (prec 8)")
    monkeypatch.setattr(hb.oracle, "p_delta_direct", collapse)
    err = _usage_error(capsys, ["oracle", "pdelta", "--q", "2", "--r", "2"])
    assert "PrecisionError" in err


@pytest.mark.parametrize("n, y", [("T^^2", "2"), ("T", "two")])
def test_unparseable_input(capsys, n, y):
    _usage_error(capsys, ["theta", "coeff", "--q", "2", "--r", "2",
                          "--n", n, "--a", "1", "--y", y])


def test_q_must_be_a_prime_power(capsys):
    err = _usage_error(capsys, ["delta", "coeff", "--q", "6", "--r", "2",
                                "--a", "T", "--y", "3"])
    assert "prime power" in err


@pytest.mark.parametrize("argv", [
    ["building", "weyl", "--k", "1,0", "--seed", "1"],
    ["building", "weyl", "--k", "1,0", "--cache"],
    ["building", "weyl", "--k", "1,0", "--threads", "2"],
    ["delta", "coeff", "--a", "T", "--y", "3", "--prec", "40"],
    ["cusps", "orbits", "--n", "T", "--deg-bound", "6"],
    ["oracle", "pdelta", "--witness-bound", "3"],
    ["building", "weyl", "--k", "1,0", "--r", "2"],
    ["eisenstein", "eval", "--n", "0,0", "--s", "2", "--r", "2"],
    ["theta", "eval", "--n", "T", "--g", "0,1;1,0", "--witness-bound", "3"],
    ["eisenstein", "check-klf-chain", "--q", "3"],
    ["eisenstein", "check-klf-chain", "--r", "3"],
    ["oracle", "pdelta", "--prec", "80"],
    ["oracle", "ptheta", "--n", "T", "--prec", "80"],
    ["fourier", "coeff", "--h", "oracle", "--a", "1", "--y", "2",
     "--prec", "80"],
])
def test_removed_flags_are_unknown(capsys, argv):
    err = _usage_error(capsys, argv)
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "pdelta", "--q", "2", "--r", "2"],
    ["oracle", "ptheta", "--q", "2", "--r", "2", "--n", "T"],
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T"],
])
def test_singular_matrix_is_a_usage_error(capsys, argv):
    err = _usage_error(capsys, argv + ["--g", "1,1;1,1"])
    assert "singular" in err


def test_cusp_level_must_be_squarefree(capsys):
    err = _usage_error(capsys, ["cusps", "orbits", "--q", "2", "--r", "2",
                                "--n", "T^2"])
    assert "squarefree" in err


@pytest.mark.parametrize("primes, reason", [
    ("T,T", "distinct"),
    ("T^2+T", "irreducible"),
    ("T,T+1,T^2+T+1,T^3+T+1", "1 to 3"),
])
def test_det_sigma_primes_must_be_distinct_irreducibles(capsys, primes, reason):
    err = _usage_error(capsys, ["units", "det-sigma", "--q", "2",
                                "--primes", primes, "--s", "2"])
    assert reason in err


@pytest.mark.parametrize("s0", ["1", "1/2", "-3"])
def test_eisenstein_s0_must_exceed_one(capsys, s0):
    _usage_error(capsys, ["eisenstein", "eval", "--q", "2", "--n", "0,0",
                          "--s", s0])


def test_eisenstein_exponents_must_be_integral(capsys):
    # r*s0 = 5/2 is not an integer, so q^{-r s0} is not rational
    err = _usage_error(capsys, ["eisenstein", "eval", "--q", "2",
                                "--n", "0,0", "--s", "5/4"])
    assert "integral" in err


def test_cusp_order_level_must_be_irreducible(capsys):
    err = _usage_error(capsys, ["cusps", "order", "--q", "2", "--r", "2",
                                "--p", "T^2+T"])
    assert "irreducible" in err


def test_cli_import_does_not_load_sympy():
    src = str(Path(hb.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hb.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("argv, r", [
    (["building", "weyl", "--q", "2", "--k", "2,1,0"], 3),
    (["eisenstein", "eval", "--q", "2", "--n", "0,0,0", "--s", "2"], 3),
])
def test_config_r_is_the_rank_of_the_input(capsys, argv, r):
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["config"]["r"] == r


@pytest.mark.parametrize("argv", [
    ["cusps", "orbits", "--q", "2", "--r", "1", "--n", "T"],
    ["building", "neighbors", "--q", "2", "--r", "0"],
])
def test_rank_must_be_at_least_two(capsys, argv):
    err = _usage_error(capsys, argv)
    assert "below 2" in err


@pytest.mark.parametrize("argv", [
    ["theta", "coeff", "--q", "3", "--r", "2", "--n", "2T", "--a", "1",
     "--y", "2"],
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "0", "--g", "1,0;0,1"],
    ["theta", "eval", "--q", "3", "--r", "2", "--n", "2T", "--g", "1,0;0,1"],
    ["oracle", "ptheta", "--q", "3", "--r", "2", "--n", "2T"],
    ["units", "root-order", "--q", "3", "--r", "2", "--n", "0"],
    ["cusps", "orbits", "--q", "3", "--r", "2", "--n", "2T"],
    ["cusps", "order", "--q", "3", "--r", "2", "--p", "2T"],
])
def test_level_must_be_monic(capsys, argv):
    err = _usage_error(capsys, argv)
    assert "monic" in err


def test_delta_eval_without_x_is_the_value_at_zero(capsys):
    F2 = get_field(2)
    want = eval_on_mirabolic(PPoint((RatF.zero(F2),), (2,)).matrix(F2), 2, F2)
    assert want == 1
    code, doc = run_json(capsys, ["delta", "eval", "--q", "2", "--r", "2",
                                  "--y", "2"])
    assert code == EXIT_OK
    assert doc["result"] == want


@pytest.mark.parametrize("argv", [
    ["delta", "coeff", "--q", "2", "--r", "2", "--a=", "--y", "3"],
    ["theta", "coeff", "--q", "2", "--r", "2", "--n", "T", "--a=",
     "--y", "3"],
    ["theta", "coeff", "--q", "2", "--r", "3", "--n", "T", "--a", "T,",
     "--y", "3,3"],
    ["fourier", "coeff", "--q", "2", "--r", "4", "--a", "T,,1",
     "--y", "3,3,3"],
    ["units", "det-sigma", "--q", "2", "--primes", "T,", "--s", "2"],
    ["cusps", "order", "--q", "2", "--r", "2", "--p="],
    ["delta", "eval", "--q", "2", "--r", "2", "--y", "2", "--x="],
    ["delta", "eval", "--q", "2", "--r", "2", "--y", "2", "--x", "1/"],
    ["building", "neighbors", "--q", "2", "--r", "2", "--g="],
])
def test_empty_polynomial_is_a_usage_error(capsys, argv):
    # an empty text or list entry used to be read as the zero polynomial
    assert "empty" in _usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["delta", "eval", "--q", "2", "--r", "2", "--y", "1", "--x", "1/0"],
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T", "--g", "1/0,0;0,1"],
    ["oracle", "pdelta", "--q", "2", "--r", "2", "--g", "1/0,0;0,1"],
    ["delta", "eval", "--q", "2", "--r", "2", "--y", "1", "--x", "1/T+T"],
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    # T + T is zero at q = 2
    err = _usage_error(capsys, argv)
    assert "zero denominator" in err and "'1/" in err


def test_root_order_of_a_degree_0_level_is_a_usage_error(capsys):
    err = _usage_error(capsys, ["units", "root-order", "--q", "2", "--r", "2",
                                "--n", "1"])
    assert "--n '1'" in err and "degree below 1" in err


@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "1", "--g", "1,0;0,1"],
    ["theta", "coeff", "--q", "2", "--r", "2", "--n", "1", "--a", "1",
     "--y", "2"],
    ["oracle", "ptheta", "--q", "2", "--r", "2", "--n", "1",
     "--deg-bound", "2"],
])
def test_theta_at_a_degree_0_level_is_zero(capsys, argv):
    # Theta_1 = Delta / Delta = 1, so P1(Theta_1) = 0
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["result"] == 0


@pytest.mark.parametrize("N", ["-1", "-5"])
def test_eisenstein_truncation_must_be_nonnegative(capsys, N):
    err = _usage_error(capsys, ["eisenstein", "eval", "--q", "2",
                                "--n", "0,0", "--s", "2", "--N", N])
    assert f"{N} is below 0" in err


def test_eisenstein_truncation_may_be_zero(capsys):
    code, doc = run_json(capsys, ["eisenstein", "eval", "--q", "2",
                                  "--n", "0,0", "--s", "2", "--N", "0"])
    assert code == EXIT_OK
    assert doc["diagnostics"]["terms"] == 1


def test_explicit_zero_polynomial_stays_valid(capsys):
    code, doc = run_json(capsys, ["delta", "coeff", "--q", "2", "--r", "2",
                                  "--a", "0", "--y", "3"])
    assert code == EXIT_OK
    assert doc["result"] == "-1/4"
    code, doc = run_json(capsys, ["theta", "coeff", "--q", "2", "--r", "3",
                                  "--n", "T", "--a", "0,0", "--y", "1,1"])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["--h", "oracle", "--a", "1", "--y", "200"],
    ["--a", "1", "--y", "12"],
    ["--a", "T^11", "--y", "1"],
    ["--q", "3", "--r", "3", "--a", "1,1", "--y", "5,5"],
    ["--a", "1", "--y", str(10 ** 12)],
])
def test_fourier_grid_cap_is_a_usage_error(capsys, monkeypatch, argv):
    # refused before the grid, the coefficient or the evaluator is touched
    def untouchable(*args, **kwargs):
        raise AssertionError("the grid cap must come first")
    for name in ("u_grid", "fourier_coefficient"):
        monkeypatch.setattr(hb.fourier, name, untouchable)
    err = _usage_error(capsys, ["fourier", "coeff", "--q", "2", "--r", "2",
                                *argv])
    assert f"more than {MAX_GRID}" in err


def test_fourier_grid_at_the_cap_is_computed(capsys, monkeypatch):
    # q^((M-1)(r-1)) = 2^10 points at --a T^9, --y 1: exactly the cap
    assert MAX_GRID == 2 ** 10
    seen = []
    real = hb.fourier.u_grid
    monkeypatch.setattr(hb.fourier, "u_grid",
                        lambda *args: seen.append(args) or real(*args))
    code, doc = run_json(capsys, ["fourier", "coeff", "--q", "2", "--r", "2",
                                  "--a", "T^9", "--y", "1"])
    assert code == EXIT_OK
    assert seen[0][1:] == (11, 1)
    assert doc["result"] == str(doc["diagnostics"]["closed_form"])


@pytest.mark.parametrize("argv", [
    ["--q", "2", "--r", "2", "--y", "50"],
    ["--q", "3", "--r", "3", "--y", "26,25"],
    ["--q", "2", "--r", "3", "--y", "6,45", "--x", "1/T,0"],
    ["--q", "2", "--r", "4", "--y", "17,17,18"],
    ["--q", "2", "--r", "2", "--y", str(10 ** 12)],
])
def test_delta_eval_support_cap_is_a_usage_error(capsys, monkeypatch, argv):
    # a y whose divisor sum reads sum max(n_i - 1, 0) digits of x above
    # MAX_SERIES_DIGITS (49 here, or 10^12 - 1) is refused before the
    # series is touched, though no n_i alone is past the cap in the
    # last but one
    def untouchable(*args, **kwargs):
        raise AssertionError("the digit cap must come first")
    for name in ("series_eval", "fq_echelon"):
        monkeypatch.setattr(hb.discriminant, name, untouchable)
    err = _usage_error(capsys, ["delta", "eval", *argv])
    assert f"digits of x, more than {MAX_SERIES_DIGITS}" in err


def test_delta_eval_support_at_the_cap_is_computed(capsys, monkeypatch):
    # y = T^49 reads the 48 digits of x = pi^48 at pi^1..pi^48, the cap:
    # one elimination per degree k = 0..47 of d.  The window of the last
    # k + 1 digits is (0, ..., 0, 1), so d_k = 1 pairs to 1 with it, no
    # character is trivial and h = K(y) (sigma(1, 0) - sum_k q^(2k)) =
    # 6/2^49 (-4^48/3) = -2^48
    assert MAX_SERIES_DIGITS == 48
    degrees = []
    real = hb.discriminant.fq_echelon
    monkeypatch.setattr(hb.discriminant, "fq_echelon", lambda field, vs:
                        degrees.append(len(vs[0]) - 1) or real(field, vs))
    code, doc = run_json(capsys, ["delta", "eval", "--q", "2", "--r", "2",
                                  "--y", "49", "--x", "1/T^48"])
    assert code == EXIT_OK
    assert degrees == list(range(MAX_SERIES_DIGITS))
    assert doc["result"] == -2 ** 48


def test_delta_eval_past_the_old_support_cap(capsys):
    # y = (11, 11) has a support of 2^20 a-vectors, which no table
    # reached; at x = 0 every character is trivial and the divisor sum
    # collapses by degree: K(y) (sigma(2, 0) + sum_k q^(3k) (q^(2(10-k)) - 1))
    code, doc = run_json(capsys, ["delta", "eval", "--q", "2", "--r", "3",
                                  "--y", "11,11"])
    assert code == EXIT_OK
    total = Fraction(1, 1 - 2 ** 3) + sum(
        2 ** (3 * k) * (2 ** (2 * (10 - k)) - 1) for k in range(10))
    assert doc["result"] == (2 ** 3 - 1) * 2 ** 2 * total / 2 ** 22 == 6137


@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T",
     "--g", "1,0;0,T^50"],
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T+1",
     "--g", "1,0;0,T^60"],
    ["oracle", "pdelta", "--q", "2", "--r", "2", "--g", "1,0;0,T^50",
     "--check"],
    ["theta", "eval", "--q", "3", "--r", "3", "--n", "T",
     "--g", "0,T^48,0;0,T^96,1;1,0,0"],
])
def test_series_support_cap_is_a_usage_error(capsys, monkeypatch, argv):
    # y is known once g is reduced into the mirabolic cell (the last g
    # over the flipped cell, through its Gamma_0(T) witness, to y =
    # (1, 50), 49 digits); the divisor sum is refused there, before it
    # or the oracle is touched
    def untouchable(*args, **kwargs):
        raise AssertionError("the digit cap must come first")
    for name in ("fq_echelon", "sigma"):
        monkeypatch.setattr(hb.discriminant, name, untouchable)
    monkeypatch.setattr(hb.oracle, "p_delta_direct", untouchable)
    err = _usage_error(capsys, argv)
    assert f"digits of x, more than {MAX_SERIES_DIGITS}" in err


def test_theta_eval_support_at_the_cap_is_computed(capsys):
    # y = T^49 on this edge reads 48 digits of x, exactly the cap;
    # Theta_T at diag(1, T^k) is 2^(k-1), as the table route gave for
    # every k up to its cap at k = 11
    code, doc = run_json(capsys, ["theta", "eval", "--q", "2", "--r", "2",
                                  "--n", "T", "--g", "1,0;0,T^49"])
    assert code == EXIT_OK
    assert doc["result"] == 2 ** 48


@pytest.mark.parametrize("q, r", [("2", "11"), ("3", "7"), ("2", "20"),
                                  ("5", "99999999999")])
def test_neighbor_rank_cap_is_a_usage_error(capsys, monkeypatch, q, r):
    # (q^r - 1)/(q - 1) in-neighbors above the cap: refused from --q and
    # --r alone, before any edge is built
    def untouchable(*args, **kwargs):
        raise AssertionError("the rank cap must come first")
    for name in ("type_one_in_neighbors", "edge_from_rep"):
        monkeypatch.setattr(hb.building, name, untouchable)
    err = _usage_error(capsys, ["building", "neighbors", "--q", q, "--r", r])
    assert f"--r {r}" in err and f"more than {MAX_NEIGHBORS}" in err


def test_neighbor_rank_at_the_cap_is_accepted(capsys, monkeypatch):
    # 2^10 - 1 in-neighbors at q = 2, r = 10: under the cap; the edges
    # themselves are stubbed out, since listing them takes over a second
    assert MAX_NEIGHBORS == 2 ** 10
    monkeypatch.setattr(hb.building, "type_one_in_neighbors", lambda g: [])
    code, doc = run_json(capsys, ["building", "neighbors", "--q", "2",
                                  "--r", "10"])
    assert code == EXIT_OK
    assert doc["diagnostics"]["expected_count"] == 1023


def test_cusp_orbit_cap_is_a_usage_error(capsys, monkeypatch):
    # (T)(T+1)(T^4+T+1) at q = 2, r = 3: 7 * 7 * 4095 = 200655 states
    def untouchable(*args, **kwargs):
        raise AssertionError("the state cap must come first")
    monkeypatch.setattr(hb.units, "_canonical", untouchable)
    err = _usage_error(capsys, ["cusps", "orbits", "--q", "2", "--r", "3",
                                "--n", "T^6+T^5+T^3+T"])
    assert f"200655 states, more than {hb.units.MAX_CUSP_STATES}" in err


@pytest.mark.parametrize("argv, want", [
    (["--q", "2", "--r", "2", "--y", "-1"], (2, (1, 0))),
    (["--q", "2", "--r", "2", "--y", "-1", "--x", "1/T"], (2, (1, 0))),
    (["--q", "3", "--r", "3", "--y=-1,-2"], (3, (2, 1, 0))),
    (["--q", "2", "--r", "3", "--y=0,-1"], (2, (1, 1, 0))),
])
def test_delta_eval_at_nonpositive_exponents(capsys, argv, want):
    # (0, diag(T^{k_i - k_1})) is the Weyl-chamber edge of type k moved
    # into the mirabolic cell, as in criterion 1
    code, doc = run_json(capsys, ["delta", "eval", *argv])
    assert code == EXIT_OK
    assert doc["result"] == weyl_edge_value(*want)


def test_negative_exponent_list_needs_the_equals_form(capsys):
    # argparse reads a separate "-1,-2" as an option, not as --y's value
    err = _usage_error(capsys, ["delta", "eval", "--q", "3", "--r", "3",
                                "--y", "-1,-2"])
    assert "expected one argument" in err


# every refusal of an oversized exponent, and the arithmetic it comes
# before: none of these is reached
UNTOUCHED = {
    hb.building: ("weyl_edge_value",),
    hb.discriminant: ("p_delta_coefficient", "fq_echelon", "sigma"),
    hb.eisenstein: ("eisenstein_at", "eisenstein_truncated_sum",
                    "eisenstein_diagonal"),
    hb.fourier: ("fourier_coefficient",),
    hb.units: ("sigma_det_check", "root_order_theta", "cuspidal_order"),
}


@pytest.mark.parametrize("argv, flag", [
    (["delta", "coeff", "--q", "2", "--r", "2", "--a", "T",
      "--y", "99999999999"], "--y 99999999999"),
    (["theta", "coeff", "--q", "2", "--r", "2", "--n", "T", "--a", "T",
      "--y", "99999999999"], "--y 99999999999"),
    (["delta", "coeff", "--q", "2", "--r", "2", "--a", "T", "--y", "15000"],
     "--y 15000"),
    (["delta", "coeff", "--q", "3", "--r", "3", "--a", "0,0",
      "--y=-9000,0"], "--y -9000,0"),
    (["building", "weyl", "--q", "2", "--k", "99999999,0"], "--k 99999999,0"),
    (["theta", "eval", "--q", "2", "--r", "2", "--n", "T",
      "--g", "T^99999999,0;0,1"], "--g T^99999999"),
    (["delta", "eval", "--q", "2", "--r", "2", "--y", "2",
      "--x", "1/T^20000"], "--x T^20000"),
    (["delta", "coeff", "--q", "2", "--r", "2", "--a", "T^" + "9" * 5000,
      "--y", "3"], "--a T^999"),
    (["eisenstein", "eval", "--q", "2", "--n", "0,3000", "--s", "2"],
     "--n 0,3000 at --s 2 and --N 8"),
    (["eisenstein", "eval", "--q", "2", "--n", "0,99999999", "--s", "2"],
     "--n 0,99999999"),
    (["eisenstein", "eval", "--q", "2", "--n", "0,0", "--s", "99999999"],
     "--s 99999999"),
    (["eisenstein", "eval", "--q", "2", "--n", "0,0", "--s", "2",
      "--N", "99999999"], "--N 99999999"),
    (["fourier", "coeff", "--q", "2", "--r", "2", "--a", "0",
      "--y=-99999"], "--y -99999"),
    (["units", "det-sigma", "--q", "2", "--primes", "T,T+1",
      "--s", "99999999"], "--s 99999999"),
    (["units", "root-order", "--q", "2", "--r", "99999999", "--n", "T"],
     "--r 99999999"),
    (["cusps", "order", "--q", "2", "--r", "30000", "--p", "T"],
     "--r 30000"),
])
def test_oversized_exponent_is_a_usage_error(capsys, monkeypatch, argv, flag):
    # refused from the exponents alone, before any power of q is formed
    def untouchable(*args, **kwargs):
        raise AssertionError("the exponent must be refused first")
    for module, names in UNTOUCHED.items():
        for name in names:
            monkeypatch.setattr(module, name, untouchable)
    monomial = hb.poly.Poly.monomial        # no T^k list of a huge k

    def small_monomial(field, k, c=1):
        return untouchable() if k > 10 ** 5 else monomial(field, k, c)
    monkeypatch.setattr(hb.poly.Poly, "monomial", staticmethod(small_monomial))
    err = _usage_error(capsys, argv)
    assert flag in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("argv", [
    ["delta", "eval", "--q", "2", "--r", "2", "--y=-99999999"],
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T",
     "--g", "T^14000,0;0,1/T^14000"],
    ["theta", "eval", "--q", "3", "--r", "3", "--n", "T",
     "--g", "T^9000,0,0;0,1,0;0,0,1"],
])
def test_series_value_too_long_to_print_is_a_usage_error(capsys, monkeypatch,
                                                          argv):
    # y is known once g is reduced into the mirabolic cell; values at a
    # y with q^(-sum n_i) too long to print are refused there, before the
    # divisor sum is touched
    def untouchable(*args, **kwargs):
        raise AssertionError("the value size must be refused first")
    for name in ("fq_echelon", "sigma"):
        monkeypatch.setattr(hb.discriminant, name, untouchable)
    err = _usage_error(capsys, argv)
    assert "y = (" in err and "digits" in err


def test_theta_coefficient_at_a_long_a_is_computed_quickly(capsys):
    # sigma_n reads the factor degrees of a = T^37+T+1 (18 and 19) by
    # distinct-degree factorization, not by trial division up to degree 18
    start = time.perf_counter()
    code, doc = run_json(capsys, ["theta", "coeff", "--q", "2", "--r", "2",
                                  "--n", "T", "--a", "T^37+T+1", "--y", "39"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    assert doc["result"] == "412319219715/274877906944"


def test_the_digit_budget_is_the_interpreters(capsys, monkeypatch):
    # q^2201 at q = 2 has 663 digits: refused under a 640-digit limit,
    # computed under the default (and when the limit is off)
    argv = ["building", "weyl", "--q", "2", "--k", "2200,0"]
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    assert "more than 640 digits" in _usage_error(capsys, argv)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK and doc["result"] == -2 ** 2201


@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--q", "2", "--r", "2", "--n", "T",
     "--g", "T^5000,0;0,1"],
    ["building", "weyl", "--q", "2", "--k", "14000,0"],
    ["delta", "eval", "--q", "2", "--r", "2", "--y=-14000"],
    # X^2300 in the rational function: Q(X) takes it out before Euclid
    ["eisenstein", "eval", "--q", "2", "--n", "0,2300", "--s", "2"],
])
def test_large_exponents_that_print_are_computed(capsys, argv):
    code, _doc = run_json(capsys, argv)
    assert code == EXIT_OK
