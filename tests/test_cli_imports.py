"""Cold start of the CLI: each query is one fresh process, so `hb.cli`
loads only the base arithmetic layers and each command imports its own,
a series query loads neither the building nor the oracle's series
layer, and no hb module loads the stdlib `dataclasses` (with `inspect`
behind it); and the parser built for one leaf subcommand prints the
same help and errors as the full parser."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hb.cli import LEAVES, build_parser

SRC = str(Path(__file__).resolve().parent.parent / "src")
HB = {path.stem for path in Path(SRC, "hb").glob("*.py")} - {"__init__"}


def _modules(lines):
    """The modules a fresh process holds after running lines; a module
    of hb by its name in hb."""
    lines = ["import json, sys", *lines,
             "print(json.dumps(sorted(sys.modules)))"]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {m[3:] if m.startswith("hb.") else m for m in json.loads(out)}


def _loaded(argv=None):
    """The hb modules a fresh process holds after `import hb.cli` and,
    given argv, one `main(argv)`, which must exit 0."""
    lines = ["import hb.cli"]
    if argv is not None:
        lines += ["import contextlib, io",
                  "with contextlib.redirect_stdout(io.StringIO()):",
                  f"    assert hb.cli.main({argv!r}) == 0"]
    return _modules(lines) & HB


def test_cli_import_loads_only_the_base_layers():
    # none of building, discriminant, fourier, algebra, eisenstein,
    # laurent, oracle, units or verify
    assert _loaded() == {"cli", "fields", "poly"}


def test_no_hb_module_loads_dataclasses():
    # record types are namedtuples or __slots__ classes
    loaded = _modules([f"import hb.{name}" for name in sorted(HB)])
    assert HB <= loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv, absent", [
    (["building", "weyl", "--q", "2", "--k", "2,1,0"], {"discriminant"}),
    (["units", "root-order", "--q", "3", "--r", "2", "--n", "T"],
     {"building"}),
    (["cusps", "order", "--q", "3", "--r", "2", "--p", "T^3+T^2+2"],
     {"building"}),
    (["eisenstein", "eval", "--q", "2", "--n", "0,0", "--s", "2"],
     {"building", "oracle"}),
    (["fourier", "coeff", "--q", "2", "--r", "2", "--h", "builtin",
      "--a", "T", "--y", "3"], {"oracle", "building", "laurent"}),
    # the series queries: coefficients and values at (x, y)
    (["delta", "coeff", "--q", "2", "--r", "2", "--a", "T", "--y", "3"],
     {"building", "laurent"}),
    (["delta", "eval", "--q", "3", "--r", "3", "--y", "1,2", "--x", "1/T,0"],
     {"building", "laurent"}),
    (["theta", "coeff", "--q", "2", "--r", "2", "--n", "T", "--a", "1",
      "--y", "2"], {"building", "laurent"}),
])
def test_a_command_loads_only_its_layers(argv, absent):
    assert not _loaded(argv) & absent


def _output(argv, parser):
    """Exit status, stdout and stderr of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            status = None
        except SystemExit as e:
            status = e.code
    return status, out.getvalue(), err.getvalue()


PATHS = [leaf[0].split() for leaf in LEAVES]


@pytest.mark.parametrize("path", PATHS, ids=" ".join)
def test_leaf_parser_help_matches_full_parser(path):
    argv = path + ["--help"]
    leaf = _output(argv, build_parser(argv))
    assert leaf[0] == 0 and leaf[1].startswith(f"usage: hb {' '.join(path)}")
    assert leaf == _output(argv, build_parser())


@pytest.mark.parametrize("tail", [["--bogus"], ["--q", "6"], ["--r"],
                                  ["--format", "xml"]], ids=" ".join)
@pytest.mark.parametrize("path", PATHS, ids=" ".join)
def test_leaf_parser_errors_match_full_parser(path, tail):
    argv = path + tail
    leaf = _output(argv, build_parser(argv))
    assert leaf[0] == 2 and "error" in leaf[2]
    assert leaf == _output(argv, build_parser())


@pytest.mark.parametrize("argv", [None, [], ["--help"], ["fourier"],
                                  ["fourier", "--help"], ["fourier", "coef"],
                                  ["nonsense", "coeff"]], ids=str)
def test_other_argv_gets_the_full_parser(argv):
    parser = build_parser(argv)
    for path in PATHS:
        got = _output(path + ["--help"], parser)
        assert got[0] == 0
        assert got == _output(path + ["--help"], build_parser())
