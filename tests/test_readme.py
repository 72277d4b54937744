"""The README's CLI examples, run in-process through hb.cli.main.

Each line of the command block must exit 0 and print one JSON document,
and a value annotated after `#` must be that document's result.
`hb verify all` is left to test_acceptance, which pins its check counts.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from hb.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, annotated value or None) for each line of the block that
    follows the README's CLI heading."""
    text = README.read_text()
    block = re.search(r"^## CLI$.*?^```\n(.*?)^```$", text,
                      re.M | re.S).group(1)
    out = []
    for line in block.splitlines():
        command, _, note = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "hb", line
        if argv[1:3] != ["verify", "all"]:
            out.append((argv[1:], note.strip() or None))
    return out


EXAMPLES = _examples()
# each example's id is its leaf; a leaf's later examples are numbered
LEAVES = [" ".join(argv[:2]) for argv, _want in EXAMPLES]
IDS = [leaf if LEAVES.index(leaf) == i
       else f"{leaf} {LEAVES[:i + 1].count(leaf)}"
       for i, leaf in enumerate(LEAVES)]


def test_the_block_is_found():
    assert len(EXAMPLES) == 16
    assert [want for _argv, want in EXAMPLES if want] == ["64/15", "9/4",
                                                          "-512", "768", "13"]


@pytest.mark.parametrize("argv, want", EXAMPLES, ids=IDS)
def test_readme_example(capsys, argv, want):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["tool"] == "hb"
    if want is not None:
        assert str(doc["result"]) == want
