"""The four seeded workloads.

A workload hands out jobs one block at a time.  A block holds a fixed
multiset of job shapes (the parameters that set the amount of work:
q, r, truncation depth D, grid depth, query kind) in a fixed order; the
seed picks the concrete inputs inside each shape.  So two seeds give
different inputs but the same load, and a run made of whole blocks
measures the same mix whatever its length.  Where a discrete choice
inside a shape sets much of a job's cost (an edge family, the exponents
of a coset rep), it is dealt from _Decks, so every seed draws each
option equally often over a run and only the pairing and order differ.

Each job's `run` is the timed call into hb; `check` compares its output
with an independent route outside the timed region and returns None
when it agrees, or a message naming the disagreement.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hb.building import (canonical_vertex, check_harmonic_def,
                         check_harmonic_gl, extend_cochain, flip_matrix,
                         mat_from_exps, mat_mul)
from hb.discriminant import (eval_on_mirabolic, p_delta_coefficient,
                             series_eval, theta_evaluator)
from hb.fields import embedding, get_field
from hb.fourier import (FourierTable, PPoint, expand, fourier_coefficient,
                        poly_key, table_support)
from hb.algebra import CycRat
from hb.oracle import p_delta_direct, p_theta_direct
from hb.poly import Poly, RatF, parse_poly

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Job:
    kind: str
    shape: tuple
    label: str
    run: object      # () -> result: the timed call
    check: object    # result -> None, or a message when the result is wrong


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


class _Decks:
    """One deck per key, dealt in seeded shuffled rounds: each option once
    a round, so n draws hold every option floor(n / len) times or more."""

    def __init__(self, rng):
        self.rng = rng
        self.cards = {}

    def draw(self, key, options):
        cards = self.cards.get(key)
        if not cards:
            cards = self.cards[key] = list(options)
            self.rng.shuffle(cards)
        return cards.pop()


def _pi_series(field, draw, key, degrees):
    """A nonzero sum of c_k pi^k over the given k, with the c_k dealt from
    the deck `key` of nonzero coefficient vectors."""
    cs = draw(key, [cs for cs in itertools.product(range(field.q),
                                                   repeat=len(degrees))
                    if any(cs)])
    x = RatF.zero(field)
    for k, c in zip(degrees, cs):
        if c:
            x = x + RatF(Poly.const(field, c)) * RatF.pi_power(field, k)
    return x


# ---------------------------------------------------------------- oracle

class Oracle:
    """Lattice-sum valuations P1(Delta_2) and P1(Theta_n) on seeded
    diagonal and mirabolic edges, checked against the closed-form series.

    Each depth D is one at which every edge that can be drawn for its
    slot stabilizes (D-1 and D agree)."""

    name = "oracle"
    # (kind, q, D, jobs per block); the six D = 6 jobs of a block are the
    # six edges drawn at D >= 6, one each, dealt from one deck
    SLOTS = (("delta", 2, 4, 4), ("delta", 2, 5, 10), ("delta", 2, 6, 6),
             ("delta", 2, 7, 1), ("delta", 3, 3, 3), ("delta", 3, 4, 1),
             ("theta", 2, 4, 3))
    LEVELS = ("T", "T+1", "T^2+T+1")
    TAIL_PERCENTILE = 80
    TRACE_BLOCKS = 1

    def __init__(self, seed):
        self.rng = _rng(self.name, seed)
        self.draw = _Decks(self.rng).draw
        for q in (2, 3):
            embedding(q, q * q)           # F_q -> F_{q^2} tables
        field = get_field(2)
        self.theta = {s: (parse_poly(field, s), theta_evaluator(
            parse_poly(field, s), field, 2)) for s in self.LEVELS}

    def _edge(self, q, D, kind):
        field = get_field(q)
        zero = RatF.zero(field)
        if D >= 6:
            # mirabolic edges with x != 0 cost up to twice the others here,
            # which would make the tail a measure of the draw, not of D
            diag, ns, zeros = (0, 1, 2), (), (-1, 1, 2)
        elif kind == "theta":
            diag, ns, zeros = (0, 1), (1, 2, 3), (-1, 0, 1, 2, 3)
        elif q == 2:
            diag, ns, zeros = (0, 1, 2, 3), (1, 2, 3), (-1, 0, 1, 2, 3)
        else:
            diag, ns, zeros = (0, 1, 2), (1, 2), (-1, 0, 1, 2)
        options = ([("diag", k) for k in diag] + [("P", n) for n in ns]
                   + [("P0", n) for n in zeros])
        fam, k = self.draw((q, D, kind), options)
        if fam == "diag":
            return f"diag(T^{k},1)", mat_from_exps(field, (k, 0))
        x = zero if fam == "P0" else \
            _pi_series(field, self.draw, ("x", q, D, kind), (1, 2))
        return f"P(x={x},n={k})", PPoint((x,), (k,)).matrix(field)

    def block(self):
        jobs = []
        for kind, q, D, count in self.SLOTS:
            for i in range(count):
                label, g = self._edge(q, D, kind)
                if kind == "delta":
                    jobs.append(self._delta(q, D, label, g))
                else:
                    jobs.append(self._theta(self.LEVELS[i], D, label, g))
        return jobs

    def _delta(self, q, D, label, g):
        field = get_field(q)

        def check(value):
            scale = RatF.one(field) / g[0][0]
            gm = tuple(tuple(x * scale for x in row) for row in g)
            want = eval_on_mirabolic(gm, 2, field)
            return None if value == want else f"oracle {value} != series {want}"
        return Job("delta", (q, 2, D), f"q={q} D={D} {label}",
                   lambda: p_delta_direct(g, q, 2, D=D), check)

    def _theta(self, level, D, label, g):
        n, h1 = self.theta[level]

        def check(value):
            want = h1(g)
            return None if value == want else f"oracle {value} != series {want}"
        return Job("theta", (2, 2, D), f"n={level} D={D} {label}",
                   lambda: p_theta_direct(n, g, 2, 2, D=D), check)


# ----------------------------------------------------------- harmonicity

class Harmonicity:
    """Both harmonicity formulations for Theta_T: the GL coset-sum
    identities at seeded coset reps and the defining flag-sum conditions
    at seeded vertices.  Each block starts fresh evaluators and cochains,
    whose caches then serve every job of the block, as they serve every
    check of one `hb verify` criterion; so a block costs the same
    whether it is the first of a run or the tenth."""

    name = "harmonicity"
    # (check, q, r, jobs per block).  The cheap r = 2 GL checks are 48 of
    # the 70 jobs of a block, so its median falls inside them rather than
    # on the step up to the next group, and p95 falls inside the q = r = 3
    # GL checks, whose 24 (exps, flip) pairs every two blocks deal in full.
    SLOTS = (("gl", 2, 2, 24), ("gl", 3, 2, 24), ("gl", 2, 3, 3),
             ("gl", 3, 3, 12), ("def", 2, 2, 3), ("def", 3, 2, 3),
             ("def", 2, 3, 1))
    TAIL_PERCENTILE = 95
    TRACE_BLOCKS = 2

    def __init__(self, seed):
        self.rng = _rng(self.name, seed)
        self.draw = _Decks(self.rng).draw
        for _kind, q, _r, _count in self.SLOTS:
            get_field(q)

    def _coset_rep(self, q, r):
        field = get_field(q)
        # exponents up to 2 at r = 3 send a few reps into witness searches
        # a hundred times longer than the rest, so one draw would set a run;
        # exps and flip (none, before, after) are dealt as a pair because
        # the cost depends on the pair
        exps, flip = self.draw(("gl rep", q, r), itertools.product(
            itertools.product(range(5 - r), repeat=r), range(3)))
        g = mat_from_exps(field, exps)
        if flip == 1:
            g = mat_mul(flip_matrix(field, r), g)
        elif flip == 2:
            g = mat_mul(g, flip_matrix(field, r))
        rows = [[RatF.one(field) if i == j else RatF.zero(field)
                 for j in range(r)] for i in range(r)]
        x = _pi_series(field, self.draw, ("gl x", q, r), (1, 2))
        rows[0][1] = x
        g = mat_mul(tuple(tuple(row) for row in rows), g)
        return f"exps={exps} flip={flip} x={x}", g

    def _vertex(self, q, r):
        field = get_field(q)
        rng = self.rng
        exps = self.draw(("def exps", q, r),
                         itertools.product(range(3), repeat=r))
        shear = RatF(Poly(field, [rng.randrange(q), rng.randrange(q)]))
        rows = [list(row) for row in mat_from_exps(field, exps)]
        rows[0][r - 1] = rows[0][r - 1] + shear
        return (f"exps={exps} shear={shear}",
                canonical_vertex(tuple(tuple(row) for row in rows)))

    def block(self):
        jobs = []
        for kind, q, r, count in self.SLOTS:
            field = get_field(q)
            h1 = theta_evaluator(parse_poly(field, "T"), field, r,
                                 bound=None if kind == "gl" else 6)
            h = extend_cochain(h1, r, field)
            for _ in range(count):
                if kind == "gl":
                    label, g = self._coset_rep(q, r)
                    run = (lambda h1=h1, g=g: check_harmonic_gl(h1, g))
                else:
                    label, v = self._vertex(q, r)
                    run = (lambda h=h, v=v, field=field:
                           check_harmonic_def(h, v, field, max_flags=6))
                jobs.append(Job(kind, (q, r), f"q={q} r={r} {label}", run,
                                _all_ok))
        return jobs


def _all_ok(items):
    bad = [f"{i.condition}: {i.note or i.residual}" for i in items if not i.ok]
    if not items:
        return "no conditions checked"
    return "; ".join(bad) if bad else None


# ---------------------------------------------------------------- fourier

class Fourier:
    """Coefficient/expansion round trips on seeded random tables, and
    coefficient extraction from the closed-form series compared with the
    closed-form coefficient, at fixed grid depths."""

    name = "fourier"
    # (q, yexps, jobs per block): round trips over the whole support.
    # The counts put the median and p95 of a block inside a group of
    # jobs of one cost, not on the step between two groups.
    ROUND_TRIPS = ((2, (3,), 4), (3, (3,), 2), (2, (2, 2), 4),
                   (2, (3, 2), 2), (2, (4,), 1))
    # (q, r, yexps, jobs per block): one extraction each; the grid depth
    # is max(yexps) because every a is drawn from the table support
    EXTRACTIONS = ((2, 2, (4,), 2), (2, 2, (5,), 1), (3, 2, (3,), 2),
                   (3, 2, (4,), 2), (2, 3, (3, 2), 1))
    TAIL_PERCENTILE = 95
    TRACE_BLOCKS = 3

    def __init__(self, seed):
        self.rng = _rng(self.name, seed)
        self.support = {}
        for q, yexps, _count in self.ROUND_TRIPS:
            self.support[q, yexps] = table_support(get_field(q), yexps)
        for q, _r, yexps, _count in self.EXTRACTIONS:
            self.support[q, yexps] = table_support(get_field(q), yexps)

    def block(self):
        jobs = []
        for q, yexps, count in self.ROUND_TRIPS:
            for _ in range(count):
                jobs.append(self._round_trip(q, yexps))
        for q, r, yexps, count in self.EXTRACTIONS:
            for _ in range(count):
                jobs.append(self._extraction(q, r, yexps))
        return jobs

    def _round_trip(self, q, yexps):
        field = get_field(q)
        rng = self.rng
        support = self.support[q, yexps]
        values = [Fraction(rng.randint(-9, 9), q ** rng.randint(0, 3))
                  for _ in support]
        entries = {poly_key(a): CycRat.from_rational(field.p, q, v)
                   for a, v in zip(support, values)}
        tbl = FourierTable(field, yexps, entries)

        def run():
            h = lambda u, _y: expand(tbl, u)
            return [fourier_coefficient(h, a, yexps, field) for a in support]

        def check(got):
            bad = [a for a, c in zip(support, got) if c != entries[poly_key(a)]]
            return f"{len(bad)} coefficients differ" if bad else None
        return Job("roundtrip", (q, yexps, max(max(yexps), 1)),
                   f"q={q} y={yexps} values={values}", run, check)

    def _extraction(self, q, r, yexps):
        field = get_field(q)
        avec = self.rng.choice(self.support[q, yexps])

        def run():
            h = lambda u, ye: series_eval(u, ye, r, field)
            return fourier_coefficient(h, avec, yexps, field)

        def check(c):
            want = p_delta_coefficient(avec, yexps, r)
            got = c.rational()
            return None if got == want else f"extracted {c} != closed {want}"
        return Job("extraction", (q, r, yexps, max(yexps)),
                   f"q={q} r={r} y={yexps} a={[str(a) for a in avec]}",
                   run, check)


# -------------------------------------------------------------------- cli

def _weyl(q, k):
    return -(q - 1) * q ** ((len(k) - 1) * (k[0] + 1) - sum(k[1:]))


class Cli:
    """The README's cheap commands, each as its own `python -m hb.cli`
    child against this checkout's src/.  With in_process=True the same
    queries go through hb.cli.main in this process instead."""

    name = "cli"
    KINDS = ("building neighbors", "building weyl", "delta coeff",
             "delta eval", "theta coeff", "theta eval", "eisenstein anchor",
             "eisenstein eval", "units root-order", "units det-sigma",
             "cusps orbits", "cusps order", "fourier coeff")
    TAIL_PERCENTILE = 60
    TRACE_BLOCKS = 1

    def __init__(self, seed, in_process=False):
        self.rng = _rng(self.name, seed)
        self.in_process = in_process
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        import hb.cli                      # part of the set-up a query pays
        self.main = hb.cli.main
        for q in (2, 3):
            get_field(q)

    def block(self):
        return [self._query(kind) for kind in self.KINDS]

    def _query(self, kind):
        rng = self.rng
        q = rng.choice((2, 3))
        r = rng.choice((2, 3))
        want = {"result": RATIONAL}        # fields of the document to compare
        if kind == "building neighbors":
            argv = ["building", "neighbors", "--q", q, "--r", r]
            count = (q ** r - 1) // (q - 1)
            want = {"result": {"count": count, "distinct": count}}
        elif kind == "building weyl":
            r = rng.choice((2, 3, 4))
            k = sorted((rng.randrange(4) for _ in range(r - 1)),
                       reverse=True) + [0]
            argv = ["building", "weyl", "--q", q, "--k",
                    ",".join(map(str, k))]
            want = {"result": _weyl(q, k)}
        elif kind == "delta coeff":
            argv = ["delta", "coeff", "--q", q, "--r", 2,
                    "--a", self._poly(q, 1), "--y", rng.choice((2, 3))]
        elif kind == "delta eval":
            y = [rng.randrange(2) for _ in range(r - 1)]
            argv = ["delta", "eval", "--q", q, "--r", r,
                    "--y", ",".join(map(str, y))]
            want = {"result": Fraction(-(q - 1)) * Fraction(q) ** (r - 1 - sum(y))}
        elif kind == "theta coeff":
            argv = ["theta", "coeff", "--q", q, "--r", 2,
                    "--n", rng.choice(("T", "T+1")), "--a", self._poly(q, 0),
                    "--y", rng.choice((2, 3))]
        elif kind == "theta eval":
            argv = ["theta", "eval", "--q", q, "--r", 2,
                    "--n", rng.choice(("T", "T+1")),
                    "--g", rng.choice(("0,1;1,0", "1,0;0,1", "T,0;0,1",
                                       "1,1/T;0,1", "T,1;0,1"))]
        elif kind == "eisenstein anchor":
            argv = ["eisenstein", "eval", "--q", 2, "--n", "0,0", "--s", 2]
            want = {"result": Fraction(64, 15), "match": True,
                    "diagnostics.within_tail": True}
        elif kind == "eisenstein eval":
            n = [rng.randint(-2, 2) for _ in range(r)]
            argv = ["eisenstein", "eval", "--q", q,
                    "--n=" + ",".join(map(str, n)), "--s", rng.choice((2, 3))]
            want = {"diagnostics.within_tail": True}
        elif kind == "units root-order":
            r = rng.choice((2, 3, 4))
            n = rng.choice(("T", "T+1", "T^2+T+1" if q == 2 else "T^2+1"))
            deg = 2 if "^2" in n else 1
            argv = ["units", "root-order", "--q", q, "--r", r, "--n", n]
            want = {"result": (q - 1) * (q ** math.gcd(deg, r) - 1)}
        elif kind == "units det-sigma":
            argv = ["units", "det-sigma", "--q", q, "--primes", "T,T+1",
                    "--s", rng.choice((1, 2, 3))]
            want = {"result.magnitude_ok": True}
        elif kind == "cusps orbits":
            n, s = rng.choice((("T", 1), ("T+1", 1), ("T^2+T", 2)))
            argv = ["cusps", "orbits", "--q", q, "--r", r, "--n", n]
            want = {"result": 2 ** s}
        elif kind == "cusps order":
            q, r, p, order = rng.choice(((2, 3, "T", 3),
                                         (3, 2, "T^3+T^2+2", 13)))
            argv = ["cusps", "order", "--q", q, "--r", r, "--p", p]
            want = {"result": order, "match": True}
        elif kind == "fourier coeff":
            argv = ["fourier", "coeff", "--q", q, "--r", 2, "--h", "builtin",
                    "--a", self._poly(q, 1), "--y", 3]
            want = {"result": lambda doc: doc["diagnostics"]["closed_form"]}
        argv = [str(a) for a in argv]
        run = self._in_process(argv) if self.in_process else self._child(argv)
        return Job(kind, (kind,), " ".join(argv), run,
                   lambda out: _check_document(out, want))

    def _poly(self, q, deg):
        cs = [self.rng.randrange(q) for _ in range(deg)] + \
            [1 + self.rng.randrange(q - 1)]
        return str(Poly(get_field(q), cs))

    def _child(self, argv):
        cmd = [sys.executable, "-m", "hb.cli", *argv]

        def run():
            p = subprocess.run(cmd, env=self.env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
            return p.returncode, p.stdout, p.stderr
        return run

    def _in_process(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.main(argv)
            return code, out.getvalue(), err.getvalue()
        return run


def _lookup(doc, path):
    for part in path.split("."):
        doc = doc[part]
    return doc


def _as_value(x):
    return Fraction(x) if isinstance(x, (int, str)) and not isinstance(x, bool) \
        else x


RATIONAL = object()   # expected value: any rational number; a callable
                      # expected value is computed from the document


def _check_document(out, want):
    code, stdout, stderr = out
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"unparseable output: {stdout[:200]!r}"
    if doc.get("match") is False:
        return f"match false: {doc.get('result')} vs {doc.get('paper_expected')}"
    for path, expected in want.items():
        got = _lookup(doc, path)
        if expected is RATIONAL:
            try:
                _as_value(got)
                continue
            except (ValueError, TypeError, ZeroDivisionError):
                return f"{path} = {got!r} is not a rational number"
        if callable(expected):
            expected = expected(doc)
        if isinstance(expected, (dict, bool)) or isinstance(got, dict):
            ok = got == expected
        else:
            ok = _as_value(got) == _as_value(expected)
        if not ok:
            return f"{path} = {got!r}, expected {expected!r}"
    return None


WORKLOADS = {cls.name: cls for cls in (Oracle, Harmonicity, Fourier, Cli)}


def make(name, seed, **kwargs):
    return WORKLOADS[name](seed, **kwargs)
