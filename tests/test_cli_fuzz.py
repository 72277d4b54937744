"""A fuzz test of the CLI: argv drawn from a small grammar per
subcommand, run in-process through hb.cli.main.

Every draw must exit 0, 2 or 3 (never 1, an internal error); an exit of
2 prints nothing on stdout; a matrix or vector of the wrong shape
never exits 0; and an entry with a zero denominator, a degree-0
`units root-order --n`, a negative `eisenstein eval --N`, a
one-entry `building weyl --k` or an exponent whose power of q has more
digits than Python prints (an entry T^99999, a --y, --n, --k or --s
entry of 99999 or beyond) exits 2.  A `delta eval` or `theta eval`
drawn past the earlier support caps (a --y entry, or a diagonal entry
T^k of --g, with k = 16 or 60) either answers or exits 2 naming the
cap on the digits of x that the divisor sum reads.
The grammar keeps each call cheap: `verify all` is left out,
`--deg-bound` is at most 3 and levels have degree at most 2.
"""

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

import hb.cli
from hb.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from hb.discriminant import MAX_SERIES_DIGITS

ENTRIES = ("0", "1", "2", "T", "T+1", "T^2", "1/T", "T/T^2+1")
HUGE = "99999"      # q^99999 has 30,103 digits or more
POLYS = ("0", "1", "2", "T", "T+1", "T^2+T")
LEVELS = ("T", "T+1", "T^2", "T^2+1", "T^2+T+1", "2T", "0")
SCALARS = ("2", "3/2", "5/3", "1", "s")
# past the earlier caps on the support, 2^10 a-vectors, and on the
# divisor sum, q^(max n_i - 1) up to 2^14: an entry 16 is computed, and
# an entry 60 reads 59 digits of x, past MAX_SERIES_DIGITS
DEEP = ("16", "60")


class Grammar:
    """Draws the arguments of one argv and remembers whether a matrix or
    vector of the wrong shape, or an argument that must be refused, went
    into it."""

    def __init__(self, draw, r):
        self.draw = draw
        self.r = r
        self.wrong_shape = False
        self.refused = False
        self.deep = False

    def _refuse(self, odds):
        """Is this one of the one in `odds` draws that must exit 2?"""
        refuse = self.draw(st.integers(1, odds)) == 1
        self.refused |= refuse
        return refuse

    def entries(self, n):
        """n F_q(T) entries; in one list of four, one has a zero
        denominator, and in one of eight one is T^99999."""
        items = [self.draw(st.sampled_from(ENTRIES)) for _ in range(n)]
        if n and self._refuse(4):
            items[self.draw(st.integers(0, n - 1))] = "T/0"
        if n and self._refuse(8):
            items[self.draw(st.integers(0, n - 1))] = "T^" + HUGE
        return items

    def _wrong(self):
        """Is this one of the one in four matrices or vectors drawn with
        the wrong shape?"""
        wrong = self.draw(st.integers(0, 3)) == 0
        self.wrong_shape |= wrong
        return wrong

    def matrix(self):
        lengths = [self.r] * self.r
        if self._wrong():
            i = self.draw(st.integers(0, self.r))   # a row, or the row count
            step = self.draw(st.sampled_from((-1, 1)))
            if i < self.r:
                lengths[i] += step
            elif step < 0:
                lengths.pop()
            else:
                lengths.append(self.r)
        items = iter(self.entries(sum(lengths)))
        return ";".join(",".join(next(items) for _ in range(n))
                        for n in lengths)

    def vector(self, items=None):
        """r - 1 entries drawn from items, or F_q(T) entries by entries()."""
        n = self.r - 1
        if self._wrong():
            n += self.draw(st.sampled_from((-1, 1)))
        if items is None:
            return ",".join(self.entries(n))
        return ",".join(self.draw(st.sampled_from(items)) for _ in range(n))

    def _deep(self):
        """Is this one of the one in four draws past the old support cap?"""
        deep = self.draw(st.integers(1, 4)) == 1
        self.deep |= deep
        return deep

    def deep_exponents(self, items):
        """vector(items), or one time in four a --y with one entry of DEEP
        (a vector drawn empty, of the wrong shape, stays empty)."""
        text = self.vector(items)
        if not text or not self._deep():
            return text
        entries = text.split(",")
        entries[self.draw(st.integers(0, len(entries) - 1))] = \
            self.draw(st.sampled_from(DEEP))
        return ",".join(entries)

    def deep_matrix(self):
        """matrix(), or one time in four an upper triangular --g with one
        diagonal entry T^k, k in DEEP, the others 1, and entries() above
        the diagonal: invertible, and past the old support cap."""
        if not self._deep():
            return self.matrix()
        r = self.r
        diag = ["1"] * r
        diag[self.draw(st.integers(0, r - 1))] = \
            "T^" + self.draw(st.sampled_from(DEEP))
        above = iter(self.entries(r * (r - 1) // 2))
        return ";".join(",".join(diag[i] if j == i else next(above)
                                 if j > i else "0" for j in range(r))
                        for i in range(r))

    def ints(self, lo, hi, n):
        return ",".join(str(self.draw(st.integers(lo, hi))) for _ in range(n))

    def exponents(self, text, huge=HUGE):
        """The comma list text, or one time in eight each of its entries
        replaced by huge: a power of q too long to print."""
        if self._refuse(8):
            return ",".join(huge for _ in text.split(","))
        return text

    def level(self, flag="--n"):
        return [flag, self.draw(st.sampled_from(LEVELS))]

    def root_order_level(self):
        """A level, or one time in four the unit 1, which has no largest
        root."""
        return ["--n", "1"] if self._refuse(4) else self.level()

    def truncation(self):
        """--N from 0 to 3, or one time in four a negative one."""
        n = self.draw(st.integers(0, 3))
        return ["--N", str(-1 - n if self._refuse(4) else n)]

    def weyl_type(self):
        """--k with r entries, or one time in four a single entry: a
        rank-1 building has no edges."""
        n = 1 if self._refuse(4) else self.r
        k = self.ints(0, 2, n)
        return ["--k", HUGE + ",0" * (n - 1) if self._refuse(8) else k]

    def optional(self, args):
        """args(), or nothing; args is drawn only when it is used."""
        return args() if self.draw(st.booleans()) else []

    def oracle(self):
        return ["--deg-bound", str(self.draw(st.integers(1, 3)))]


LEAVES = {
    "building neighbors": lambda G: G.optional(lambda: ["--g", G.matrix()]),
    "building weyl": lambda G: G.weyl_type(),
    "fourier coeff": lambda G: [
        "--a", G.vector(POLYS),
        "--y=" + G.exponents(G.vector(("0", "1", "2", "3")), "-" + HUGE)]
        + G.optional(lambda: ["--h", "oracle"] + G.oracle()),
    "eisenstein eval": lambda G: [
        "--n=" + G.exponents(G.ints(-1, 2, G.r)),
        "--s", G.draw(st.sampled_from(SCALARS))]
        + G.truncation(),
    "eisenstein check-klf-chain": lambda G: [],
    "delta coeff": lambda G: [
        "--a", G.vector(POLYS),
        "--y=" + G.exponents(G.vector(("-1", "0", "2", "3")))],
    "delta eval": lambda G: [
        "--y=" + G.exponents(G.deep_exponents(("-1", "0", "2", "3")),
                             "-" + HUGE)]
        + G.optional(lambda: ["--x", G.vector()]),
    "theta coeff": lambda G: G.level() + [
        "--a", G.vector(POLYS),
        "--y=" + G.exponents(G.vector(("0", "2", "3")))],
    "theta eval": lambda G: G.level() + ["--g", G.deep_matrix()],
    "oracle pdelta": lambda G: G.oracle()
        + G.optional(lambda: ["--g", G.matrix()])
        + G.optional(lambda: ["--check"]),
    "oracle ptheta": lambda G: G.level() + G.oracle()
        + G.optional(lambda: ["--g", G.matrix()]),
    "units det-sigma": lambda G: [
        "--primes", ",".join(G.draw(st.lists(st.sampled_from(LEVELS),
                                             min_size=1, max_size=3))),
        "--s", G.exponents(str(G.draw(st.integers(1, 3))))],
    "units root-order": lambda G: G.optional(G.root_order_level),
    "cusps orbits": lambda G: G.level(),
    "cusps order": lambda G: G.level("--p"),
}


# leaves that take their rank from --k or --n, and one that reads neither
# --q nor --r (it runs one fixed, slow check, so only --format varies)
UNRANKED = ("building weyl", "eisenstein eval")
FIXED = ("eisenstein check-klf-chain",)


@st.composite
def argvs(draw, leaf):
    """(argv, whether a matrix or vector in it has the wrong shape,
    whether it must be refused, whether it is past the old support
    cap)."""
    argv = leaf.split()
    r = 2
    if leaf not in FIXED:
        argv += ["--q", draw(st.sampled_from(("2", "3")))]
        r = draw(st.sampled_from((2, 3)))
    if leaf not in UNRANKED + FIXED:
        argv += ["--r", str(r)]
    grammar = Grammar(draw, r)
    argv += LEAVES[leaf](grammar) \
        + grammar.optional(lambda: ["--format", "text"])
    return argv, grammar.wrong_shape, grammar.refused, grammar.deep


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes(capsys, leaf, data):
    argv, wrong_shape, refused, deep = data.draw(argvs(leaf))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH), argv
    if code == EXIT_USAGE:
        assert out == "", argv
    if wrong_shape:
        assert code != EXIT_OK, argv
    if refused:
        assert code == EXIT_USAGE, argv
    if deep and not (wrong_shape or refused) and code == EXIT_USAGE:
        assert f"digits of x, more than {MAX_SERIES_DIGITS}" in err, argv


@pytest.mark.parametrize("leaf, flag, refused_value", [
    ("delta eval", "--x", lambda x: "/0" in x),
    ("theta eval", "--g", lambda g: "/0" in g),
    ("oracle pdelta", "--g", lambda g: "/0" in g),
    ("units root-order", "--n", lambda n: n == "1"),
    ("eisenstein eval", "--N", lambda n: n.startswith("-")),
    ("building weyl", "--k", lambda k: "," not in k),
    *(pytest.param(leaf, flag, refused, id=f"{leaf} {flag} {HUGE}")
      for leaf, flag, refused in [
          ("building weyl", "--k", lambda k: k.startswith(HUGE)),
          ("theta eval", "--g", lambda g: "T^" + HUGE in g),
          ("delta eval", "--x", lambda x: "T^" + HUGE in x),
          ("delta coeff", "--y", lambda y: HUGE in y),
          ("theta coeff", "--y", lambda y: HUGE in y),
          ("delta eval", "--y", lambda y: HUGE in y),
          ("fourier coeff", "--y", lambda y: HUGE in y),
          ("eisenstein eval", "--n", lambda n: HUGE in n),
          ("units det-sigma", "--s", lambda s: s == HUGE)]),
])
def test_the_grammar_draws_each_refusal(capsys, leaf, flag, refused_value):
    # the examples the fuzz test draws may miss a refusal; one is found
    # here, its flag given as `--flag value` or `--flag=value`
    def has(drawn):
        argv = drawn[0]
        values = [v for a, v in zip(argv, argv[1:]) if a == flag]
        values += [a[len(flag) + 1:] for a in argv
                   if a.startswith(flag + "=")]
        return any(refused_value(v) for v in values)
    argv, _wrong_shape, refused, _deep = find(argvs(leaf), has)
    assert refused
    assert main(argv) == EXIT_USAGE, argv
    assert capsys.readouterr().out == ""


def test_the_grammar_covers_every_leaf_but_verify():
    assert set(LEAVES) == {path for path, *_ in hb.cli.LEAVES} - {"verify all"}


@pytest.mark.parametrize("leaf", ["delta eval", "theta eval"])
@pytest.mark.parametrize("answers", [True, False])
def test_the_grammar_draws_past_the_old_support_cap(capsys, leaf, answers):
    # a deep draw that answers, and one refused at the digit cap
    def deep(drawn):
        argv, wrong_shape, refused, deep = drawn
        if not deep or wrong_shape or refused:
            return False
        code = main(argv)
        err = capsys.readouterr().err
        return code == EXIT_OK if answers else \
            code == EXIT_USAGE and \
            f"digits of x, more than {MAX_SERIES_DIGITS}" in err
    find(argvs(leaf), deep)
