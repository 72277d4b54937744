"""Command-line front end.

Every subcommand prints a single JSON document (or a terse text line
with --format text) of the shape

    {tool, version, config, op, params, result, diagnostics}

plus `paper_expected` / `match` fields when the requested value has a
published anchor.  Exit codes: 0 success, 1 internal error, 2 usage
error (including an oracle value that did not stabilize at --deg-bound
or needs a series window wider than oracle.MAX_WINDOW, exponents or
degrees over the digit bound poly.printable, and a field to tabulate of
more than fields.MAX_FIELD elements), 3 a verification or anchor
mismatch.

Each query is one cold process: importing this module loads fields and
poly only, a series query (delta, theta coeff, fourier coeff --h
builtin) adds algebra, fourier and discriminant, building comes in only
at a group element and laurent only with the oracle, and no hb module
loads dataclasses.  build_parser configures only the named leaf.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .fields import MAX_FIELD, factor_prime_power, get_field
from .poly import RatF, max_digits, over_cap, parse_poly, printable

EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_MISMATCH = 0, 1, 2, 3
# fourier coeff refuses u-grids (pi O / pi^M O)^(r-1) with more points;
# a series value reads at most discriminant.MAX_SERIES_DIGITS = 48 digits
# of x, where the slowest value took 0.07-0.08 s
MAX_GRID = 2 ** 10
# building neighbors refuses a --r with more type-1 in-neighbors: the
# 1023 of q = 2, r = 10 took 1.4 s, and each costs more as r grows
MAX_NEIGHBORS = 2 ** 10


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------- parsing

def _prime_power(cap):
    """An argparse type for the prime powers, at most cap unless cap is
    None; a larger one is refused before it is factored."""
    def parse(text):
        try:
            q = int(text)
            if cap is None or q <= cap:
                factor_prime_power(q)
                return q
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a prime power") from None
        raise argparse.ArgumentTypeError(
            f"{q}: fields of more than {cap} elements are not tabulated")
    return parse


def _int_at_least(lo):
    """An argparse type for the integers >= lo."""
    def parse(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"{n} is below {lo}")
        return n
    return parse


def _power_range(q, e, what):
    """Refuse `what`, before any arithmetic, if q^e is not poly.printable."""
    if not printable(q, e):
        raise UsageError(f"{what} needs a power of q with more than "
                         f"{max_digits()} digits")


def _parse_poly(field, text, flag):
    if not text.strip():
        raise UsageError("a polynomial is empty; write 0 for the zero "
                         "polynomial")
    # |T^d| = q^d; a d too long for int() is cut to max_digits() digits
    for deg in re.findall(r"T\^0*([0-9]+)", text):
        if not printable(field.q, int(deg[:max_digits()])):
            raise UsageError(f"{flag} T^{deg}: a degree d is refused once q^d "
                             f"has more than {max_digits()} digits")
    try:
        return parse_poly(field, text)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_level(field, text, flag="--n"):
    """A level: a monic, hence nonzero, polynomial."""
    n = _parse_poly(field, text, flag)
    if not n.is_monic():
        raise UsageError(f"{flag} {text!r}: a level must be a nonzero "
                         "monic polynomial")
    return n


def _parse_ratf(field, text, flag):
    """An element of F_q(T) as 'num' or 'num/den' in the poly syntax."""
    if "/" in text:
        num, den = text.split("/", 1)
        den = _parse_poly(field, den, flag)
        if den.is_zero():
            raise UsageError(f"entry {text!r} has a zero denominator")
        return RatF(_parse_poly(field, num, flag), den)
    return RatF(_parse_poly(field, text, flag))


def _parse_matrix(field, text, r):
    """An r x r matrix: rows separated by ';', entries by ','."""
    from .building import mat_inv
    rows = []
    for row in text.split(";"):
        rows.append(tuple(_parse_ratf(field, e, "--g") for e in row.split(",")))
    if len(rows) != r or any(len(row) != r for row in rows):
        raise UsageError(f"matrix {text!r} is not {r}x{r} for --r {r}")
    try:
        mat_inv(rows)
    except ZeroDivisionError:
        raise UsageError(f"matrix {text!r} is singular") from None
    return tuple(rows)


def _rank_vector(vec, r, flag):
    """vec, checked to have the r - 1 entries of a mirabolic coordinate."""
    if len(vec) != r - 1:
        raise UsageError(f"{flag} has {len(vec)} entries; --r {r} needs "
                         f"{r - 1}")
    return vec


def _oracle_range(args):
    """The rank, field and --deg-bound limits of the lattice-sum oracle,
    checked before any field is built."""
    from .oracle import MAX_BASIS, MAX_RANK
    if args.r > MAX_RANK:
        raise UsageError(f"--r {args.r}: lattice sums are only tractable "
                         f"for r <= {MAX_RANK}")
    if args.q ** args.r > MAX_FIELD:
        raise UsageError(f"--q {args.q} at --r {args.r}: the oracle "
                         f"tabulates F_(q^r), {args.q ** args.r} elements, "
                         f"more than {MAX_FIELD}")
    n = args.r * (args.deg_bound + 1)
    if n > MAX_BASIS:
        raise UsageError(f"--deg-bound {args.deg_bound}: the truncated "
                         f"lattice has {n} basis vectors at --r {args.r}, "
                         f"more than {MAX_BASIS}")


def _grid_range(q, avec, yexps):
    """The size limit of fourier coeff's u-grid, checked before any of
    it is built: q^((M-1)(r-1)) points at grid depth M."""
    from .fourier import grid_depth
    e = (grid_depth(avec, yexps) - 1) * len(yexps)
    if over_cap(q, e, MAX_GRID):
        raise UsageError(f"--a and --y need a u-grid of q^{e} points, "
                         f"more than {MAX_GRID}")


def _support_range(series):
    """series(), with a y that reads more digits of x than the cap, or
    values too long to print, refused as a usage error; the y of a group
    element's value is known only once the element is reduced into the
    mirabolic cell."""
    from .discriminant import SupportError
    try:
        return series()
    except SupportError as e:
        raise UsageError(str(e)) from None


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{text!r} is not a list of integers") from None


def _parse_polyvec(field, text, flag):
    return tuple(_parse_poly(field, s, flag) for s in text.split(","))


def _coefficient_range(args, avec, yexps, level=None):
    """Refuse a --y whose P1*(a, y) are not printable (value_exponent)."""
    from .discriminant import value_exponent
    e = value_exponent(yexps, args.r, max(a.deg for a in avec), level)
    _power_range(args.q, e, f"--y {args.y}")


# ---------------------------------------------------------------- output

def _jsonable(x):
    if hasattr(x, "_fields"):   # a record type: its fields, in order
        return {k: _jsonable(getattr(x, k)) for k in x._fields}
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, float, bool, str)) or x is None:
        return x
    return str(x)


def _emit(args, op, params, result, diagnostics=None, expected=None):
    doc = {
        "tool": "hb",
        "version": __version__,
        "config": {"q": getattr(args, "q", None), "r": getattr(args, "r", None)},
        "op": op,
        "params": _jsonable(params),
        "result": _jsonable(result),
        "diagnostics": _jsonable(diagnostics or {}),
    }
    code = EXIT_OK
    if expected is not None:
        doc["paper_expected"] = _jsonable(expected)
        doc["match"] = _jsonable(result) == _jsonable(expected)
        if not doc["match"]:
            code = EXIT_MISMATCH
    if args.format == "text":
        tail = "" if expected is None else \
            ("  [matches expected value]" if doc["match"]
             else f"  [MISMATCH: expected {doc['paper_expected']}]")
        print(f"{op}: {doc['result']}{tail}")
    else:
        print(json.dumps(doc, indent=2))
    return code


# ---------------------------------------------------------------- commands

def cmd_building_neighbors(args):
    from .building import mat_from_exps, type_one_in_neighbors
    # (q^r - 1)/(q - 1) > cap exactly when q^r > cap (q - 1) + 1
    if over_cap(args.q, args.r, MAX_NEIGHBORS * (args.q - 1) + 1):
        raise UsageError(f"--r {args.r}: the (q^r - 1)/(q - 1) type-1 "
                         f"in-neighbors at --q {args.q} are more than "
                         f"{MAX_NEIGHBORS}")
    field = get_field(args.q)
    g = _parse_matrix(field, args.g, args.r) if args.g is not None else \
        mat_from_exps(field, (0,) * args.r)
    edges = type_one_in_neighbors(g)
    distinct = {e.key: e for e in edges}
    shown = sorted(f"{_basis_text(e.origin.rep)} -> {_basis_text(e.terminus.rep)}"
                   for e in distinct.values())
    return _emit(args, "building.neighbors",
                 {"g": args.g or "identity"},
                 {"count": len(edges), "distinct": len(distinct)},
                 {"expected_count": (args.q ** args.r - 1) // (args.q - 1),
                  "edges": shown[:20]})


def _basis_text(rows):
    """A canonical basis as text, rows separated by ';' as in --g."""
    return "; ".join(", ".join(str(x) for x in row) for row in rows)


def cmd_building_weyl(args):
    from .building import WeylType, weyl_edge_value, weyl_exponent
    try:
        k = WeylType(_parse_ints(args.k))
    except ValueError as e:
        raise UsageError(f"--k: {e}") from None
    args.r = len(k.k)
    # (q - 1) q^e < q^(e + 1)
    _power_range(args.q, weyl_exponent(k.k) + 1, f"--k {args.k}")
    val = weyl_edge_value(args.q, k.k)
    return _emit(args, "building.weyl", {"k": list(k.k)}, val)


def cmd_fourier_coeff(args):
    from .discriminant import p_delta_coefficient, series_eval
    from .fourier import PPoint, fourier_coefficient
    if args.h == "oracle":
        _oracle_range(args)
    field = get_field(args.q)
    avec = _rank_vector(_parse_polyvec(field, args.a, "--a"), args.r, "--a")
    yexps = _rank_vector(_parse_ints(args.y), args.r, "--y")
    _grid_range(args.q, avec, yexps)
    _coefficient_range(args, avec, yexps)
    if args.h == "oracle":
        from .oracle import p_delta_direct
        h = lambda u, ye: p_delta_direct(PPoint(u, ye).matrix(field),
                                         args.q, args.r, D=args.deg_bound)
    else:
        h = lambda u, ye: series_eval(u, ye, args.r, field)
    c = _support_range(lambda: fourier_coefficient(h, avec, yexps, field))
    closed = p_delta_coefficient(avec, yexps, args.r)
    return _emit(args, "fourier.coeff",
                 {"h": args.h, "a": args.a, "y": list(yexps)},
                 str(c), {"closed_form": closed})


def cmd_eisenstein_eval(args):
    from .eisenstein import (eisenstein_at, eisenstein_diagonal,
                             eisenstein_truncated_sum, value_exponent)
    nvec = _parse_ints(args.n)
    args.r = len(nvec)
    try:
        s0 = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--s {args.s!r} is not a rational number") from None
    if s0 <= 1:
        raise UsageError(f"--s {s0}: the lattice sum needs s0 > 1")
    _power_range(args.q, value_exponent(nvec, s0, args.N),
                 f"--n {args.n} at --s {args.s} and --N {args.N}")
    try:
        closed = eisenstein_at(nvec, args.q, s0)
        ts = eisenstein_truncated_sum(nvec, args.q, s0, args.N)
    except ValueError as e:     # r*s0 or s0*sum(n) is not an integer
        raise UsageError(f"--s {s0}: {e}") from None
    diag = {"rational_function": str(eisenstein_diagonal(nvec, args.q)),
            "truncated_sum": ts.value, "tail_bound": ts.tail_bound,
            "terms": ts.terms,
            "within_tail": abs(closed - ts.value) <= ts.tail_bound}
    expected = Fraction(64, 15) if (nvec == (0, 0) and args.q == 2
                                    and s0 == 2) else None
    code = _emit(args, "eisenstein.eval",
                 {"n": list(nvec), "s": str(s0), "N": args.N},
                 closed, diag, expected)
    if not diag["within_tail"]:
        return EXIT_MISMATCH
    return code


def cmd_eisenstein_klf(args):
    from .eisenstein import identity_check_thm56
    items = identity_check_thm56()
    bad = [i for i in items if not i.ok]
    code = _emit(args, "eisenstein.check-klf-chain", {},
                 {"checked": len(items), "failed": len(bad)},
                 {"first_failures": [(i.q, i.r, i.a, i.yexps)
                                     for i in bad[:5]]})
    return EXIT_MISMATCH if bad else code


def cmd_delta_coeff(args):
    from .discriminant import p_delta_coefficient
    field = get_field(args.q)
    avec = _rank_vector(_parse_polyvec(field, args.a, "--a"), args.r, "--a")
    yexps = _rank_vector(_parse_ints(args.y), args.r, "--y")
    _coefficient_range(args, avec, yexps)
    c = p_delta_coefficient(avec, yexps, args.r)
    return _emit(args, "delta.coeff", {"a": args.a, "y": list(yexps)}, c)


def cmd_delta_eval(args):
    from .discriminant import check_support, series_eval
    field = get_field(args.q)
    yexps = _rank_vector(_parse_ints(args.y), args.r, "--y")
    _support_range(lambda: check_support(args.q, yexps, args.r))
    if args.x is not None:
        x = _rank_vector(tuple(_parse_ratf(field, s, "--x")
                               for s in args.x.split(",")), args.r, "--x")
    else:   # no --x: the value at x = 0
        x = (RatF.zero(field),) * (args.r - 1)
    v = series_eval(x, yexps, args.r, field)
    return _emit(args, "delta.eval", {"x": args.x, "y": list(yexps)}, v)


def cmd_theta_coeff(args):
    from .discriminant import p_delta_coefficient
    field = get_field(args.q)
    n = _parse_level(field, args.n)
    avec = _rank_vector(_parse_polyvec(field, args.a, "--a"), args.r, "--a")
    yexps = _rank_vector(_parse_ints(args.y), args.r, "--y")
    _coefficient_range(args, avec, yexps, n)
    c = p_delta_coefficient(avec, yexps, args.r, level=n)
    return _emit(args, "theta.coeff",
                 {"n": args.n, "a": args.a, "y": list(yexps)}, c)


def cmd_theta_eval(args):
    from .discriminant import theta_evaluator
    field = get_field(args.q)
    n = _parse_level(field, args.n)
    g = _parse_matrix(field, args.g, args.r)
    h1 = theta_evaluator(n, field, args.r)
    value = _support_range(lambda: h1(g))
    return _emit(args, "theta.eval", {"n": args.n, "g": args.g}, value)


def _oracle_diagnostics(args, windows):
    """What an oracle value rests on: its depth, the window that
    certified each of its lattices, and the certificate."""
    return {"deg_bound": args.deg_bound, "windows": windows,
            "certificate": "stabilized between consecutive truncation depths"}


def cmd_oracle_pdelta(args):
    from .building import mat_from_exps, mat_scale
    from .oracle import p_delta_direct
    _oracle_range(args)
    field = get_field(args.q)
    g = _parse_matrix(field, args.g, args.r) if args.g is not None else \
        mat_from_exps(field, (0,) * args.r)
    # the series reads only the upper triangle of g / g[0][0]; an
    # invertible upper triangular g has g[0][0] != 0
    if args.check and any(not g[i][j].is_zero()
                          for i in range(args.r) for j in range(i)):
        raise UsageError(f"--check needs an upper triangular --g; "
                         f"{args.g!r} is not")
    if args.check:   # the series first: it may refuse the support
        from .discriminant import eval_on_mirabolic
        gm = mat_scale(g, RatF.one(field) / g[0][0])
        series = _support_range(lambda: eval_on_mirabolic(gm, args.r, field))
    windows = []
    v = p_delta_direct(g, args.q, args.r, D=args.deg_bound, windows=windows)
    diag = _oracle_diagnostics(args, windows)
    if args.check:
        diag["series"] = series
        return _emit(args, "oracle.pdelta", {"g": args.g or "identity"},
                     v, diag, expected=series)
    return _emit(args, "oracle.pdelta", {"g": args.g or "identity"}, v, diag)


def cmd_oracle_ptheta(args):
    from .building import mat_from_exps
    from .oracle import p_theta_direct
    _oracle_range(args)
    field = get_field(args.q)
    n = _parse_level(field, args.n)
    g = _parse_matrix(field, args.g, args.r) if args.g is not None else \
        mat_from_exps(field, (0,) * args.r)
    windows = []
    v = p_theta_direct(n, g, args.q, args.r, D=args.deg_bound,
                       windows=windows)
    return _emit(args, "oracle.ptheta", {"n": args.n, "g": args.g or "identity"},
                 v, _oracle_diagnostics(args, windows))


def cmd_units_det_sigma(args):
    from .units import sigma_det_check, sigma_det_exponent
    field = get_field(args.q)
    primes = _parse_polyvec(field, args.primes, "--primes")
    _power_range(args.q, sigma_det_exponent(primes, args.s), f"--s {args.s}")
    try:
        rep = sigma_det_check(primes, args.s)
    except ValueError as e:     # not 1 to 3 distinct irreducibles
        raise UsageError(f"--primes {args.primes!r}: {e}") from None
    code = _emit(args, "units.det-sigma",
                 {"primes": args.primes, "s": args.s},
                 {"det": rep.det, "magnitude_ok": rep.magnitude_ok,
                  "sign": rep.sign},
                 {"expected_magnitude": rep.expected_magnitude,
                  "empirical_sign": rep.empirical_sign,
                  "stated_sign": rep.stated_sign})
    return EXIT_MISMATCH if not rep.magnitude_ok else code


def cmd_units_root_order(args):
    from .units import (root_order_delta, root_order_exponent,
                        root_order_theta)
    field = get_field(args.q)
    if args.n is None:
        return _emit(args, "units.root-order", {"series": "delta"},
                     root_order_delta(args.q))
    n = _parse_level(field, args.n)
    _power_range(args.q, root_order_exponent(n, args.r),
                 f"--n {args.n} at --r {args.r}")
    try:
        rd = root_order_theta(n, args.r)
    except ValueError as e:     # a level of degree 0
        raise UsageError(f"--n {args.n!r}: {e}") from None
    return _emit(args, "units.root-order", {"n": args.n},
                 rd.max_root,
                 {"kappa": rd.kappa, "character_order": rd.character_order,
                  "witness_level": rd.witness_level,
                  "witness_aux": rd.witness_aux, "gcd_ok": rd.gcd_ok})


def cmd_cusps_orbits(args):
    from .units import cusp_orbits
    field = get_field(args.q)
    n = _parse_level(field, args.n)
    try:
        rep = cusp_orbits(n, args.r)
    except ValueError as e:     # a level that is not squarefree, or too big
        raise UsageError(f"--n {args.n!r}: {e}") from None
    return _emit(args, "cusps.orbits", {"n": args.n},
                 rep.orbit_count,
                 {"total_states": rep.total,
                  "orbit_sizes": list(rep.orbit_sizes)})


def cmd_cusps_order(args):
    from .units import cuspidal_exponent, cuspidal_order
    field = get_field(args.q)
    p = _parse_level(field, args.p, "--p")
    _power_range(args.q, cuspidal_exponent(p, args.r),
                 f"--p {args.p} at --r {args.r}")
    try:
        rep = cuspidal_order(p, args.r)
    except ValueError as e:     # a reducible level
        raise UsageError(f"--p {args.p!r}: {e}") from None
    expected = None
    if (args.q, args.r, str(p)) == (2, 3, "T"):
        expected = 3
    elif (args.q, args.r) == (3, 2) and int(p.deg) == 3 \
            and str(p) == "T^3+T^2+2":
        expected = 13
    return _emit(args, "cusps.order", {"p": args.p}, rep.order,
                 {"theta_pole_order": rep.theta_pole_order}, expected)


def cmd_verify(args):
    from .verify import run_suite
    level = "quick" if args.quick else "full"
    reports = run_suite(level=level)
    result = [{"criterion": rep.number, "name": rep.name,
               "passed": rep.passed, "checks": rep.checks,
               "seconds": round(rep.seconds, 2)} for rep in reports]
    failures = [(rep.number, rep.failures[:3]) for rep in reports
                if not rep.passed]
    if args.format == "text":
        for rep in reports:
            mark = "ok " if rep.passed else "FAIL"
            print(f"[{mark}] {rep.number:2d} {rep.name}: "
                  f"{rep.checks} checks in {rep.seconds:.1f}s")
    else:
        _emit(args, "verify.all", {"level": level}, result,
              {"failures": failures})
    return EXIT_MISMATCH if failures else EXIT_OK


# ---------------------------------------------------------------- wiring

def _common(p, fields):
    if "q" in fields or "Q" in fields:
        cap = MAX_FIELD if "q" in fields else None
        p.add_argument("--q", type=_prime_power(cap), default=2,
                       help="base field size")
    if "r" in fields:
        p.add_argument("--r", type=_int_at_least(2), default=2,
                       help="rank")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _oracle_options(p):
    p.add_argument("--deg-bound", type=_int_at_least(1), default=6,
                   help="lattice truncation depth for the oracle")


# (path, command, configure, fields) for every leaf subcommand, in the
# order of the help output; fields names which of --q and --r the leaf
# takes: building weyl and eisenstein eval take their rank from the
# length of --k / --n, and eisenstein check-klf-chain runs one fixed grid
# of (q, r) and takes neither.  A --q of "q" is the order of a field the
# leaf tabulates, at most MAX_FIELD; one of "Q" enters integer formulas
# only, and may be any prime power
LEAVES = (
    ("building neighbors", cmd_building_neighbors,
     lambda p: p.add_argument("--g", default=None,
                              help="vertex rep 'a,b;c,d'"), "qr"),
    ("building weyl", cmd_building_weyl,
     lambda p: p.add_argument("--k", required=True,
                              help="dominant type k1,..,kr"), "Q"),
    ("fourier coeff", cmd_fourier_coeff, lambda p: (
        _oracle_options(p),
        p.add_argument("--h", choices=("builtin", "oracle"),
                       default="builtin"),
        p.add_argument("--a", required=True, help="polynomial vector"),
        p.add_argument("--y", required=True, help="diagonal exponents")),
     "qr"),
    ("eisenstein eval", cmd_eisenstein_eval, lambda p: (
        p.add_argument("--n", required=True, help="diagonal exponents"),
        p.add_argument("--s", required=True, help="evaluation point s0 > 1"),
        p.add_argument("--N", type=_int_at_least(0), default=8,
                      help="truncation terms")),
     "Q"),
    ("eisenstein check-klf-chain", cmd_eisenstein_klf, None, ""),
    ("delta coeff", cmd_delta_coeff, lambda p: (
        p.add_argument("--a", required=True),
        p.add_argument("--y", required=True)), "qr"),
    ("delta eval", cmd_delta_eval, lambda p: (
        p.add_argument("--x", default=None,
                       help="x vector, e.g. '1/T,0' (0 if omitted)"),
        p.add_argument("--y", required=True)), "qr"),
    ("theta coeff", cmd_theta_coeff, lambda p: (
        p.add_argument("--n", required=True, help="level polynomial"),
        p.add_argument("--a", required=True),
        p.add_argument("--y", required=True)), "qr"),
    ("theta eval", cmd_theta_eval, lambda p: (
        p.add_argument("--n", required=True),
        p.add_argument("--g", required=True)), "qr"),
    ("oracle pdelta", cmd_oracle_pdelta, lambda p: (
        _oracle_options(p),
        p.add_argument("--g", default=None),
        p.add_argument("--check", action="store_true",
                       help="compare against the closed-form series")), "qr"),
    ("oracle ptheta", cmd_oracle_ptheta, lambda p: (
        _oracle_options(p),
        p.add_argument("--n", required=True),
        p.add_argument("--g", default=None)), "qr"),
    ("units det-sigma", cmd_units_det_sigma, lambda p: (
        p.add_argument("--primes", required=True,
                       help="comma-separated distinct irreducibles"),
        p.add_argument("--s", type=int, required=True)), "qr"),
    ("units root-order", cmd_units_root_order,
     lambda p: p.add_argument("--n", default=None,
                              help="level (omit for Delta)"), "qr"),
    ("cusps orbits", cmd_cusps_orbits,
     lambda p: p.add_argument("--n", required=True), "qr"),
    ("cusps order", cmd_cusps_order,
     lambda p: p.add_argument("--p", required=True,
                              help="irreducible level"), "qr"),
    ("verify all", cmd_verify,
     lambda p: p.add_argument("--quick", action="store_true"), "qr"),
)


def build_parser(argv=None):
    """The hb parser.  When argv begins with a leaf path such as
    'fourier coeff', only that leaf is built, and the subcommand lists
    get the metavars the full parser derives, so help and error output
    stay the same.  Any other argv gets the full parser."""
    top = argparse.ArgumentParser(
        prog="hb",
        description="Exact harmonic-cochain computations on the "
                    "Bruhat-Tits building of PGL_r over F_q((1/T)).")
    path = " ".join(argv[:2]) if argv else None
    leaves = [leaf for leaf in LEAVES if leaf[0] == path] or LEAVES
    full = leaves is LEAVES

    def metavar(names):
        return None if full else "{" + ",".join(dict.fromkeys(names)) + "}"

    paths = [leaf[0].split() for leaf in LEAVES]
    sub = top.add_subparsers(dest="command", required=True,
                             metavar=metavar(g for g, _ in paths))
    groups = {}
    for leaf_path, fn, configure, fields in leaves:
        group, name = leaf_path.split()
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="subcommand", required=True,
                metavar=metavar(n for g, n in paths if g == group))
        p = groups[group].add_parser(name)
        _common(p, fields)
        if configure:
            configure(p)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # an oracle value not settled at --deg-bound, or not in MAX_WINDOW
        laurent = sys.modules.get("hb.laurent")     # loaded by the oracle only
        if laurent and isinstance(e, (laurent.StabilizationError,
                                      laurent.PrecisionError)):
            print(f"usage error: {type(e).__name__}: {e}", file=sys.stderr)
            return EXIT_USAGE
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
