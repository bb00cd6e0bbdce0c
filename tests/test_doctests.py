"""Documented examples run as tests, so they fail when they drift.

The ``permcore`` docstrings run through ``doctest``, and so do the
``python`` code blocks of README.md's library tour; the blocks are cut out
at their fences, which doctest would otherwise read as expected output.
The README's CLI lines that state their output in a comment run through
``cli.main``.
"""
import doctest
import re
import shlex
from pathlib import Path

from permobius import cli, permcore

README = Path(__file__).resolve().parents[1] / "README.md"


def test_permcore_docstrings():
    result = doctest.testmod(permcore)
    assert result.attempted > 0 and result.failed == 0


def test_readme_library_tour():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0
    )
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples and runner.failures == 0


def test_readme_cli_examples(capsys):
    # "permobius ARGS  # OUTPUT", or "# TEXT -> OUTPUT"
    examples = re.findall(r"^permobius (.+?)\s+# (.+)$", README.read_text(), re.M)
    assert len(examples) == 4
    for args, comment in examples:
        expected = comment.split("->")[-1].strip()
        assert cli.main(shlex.split(args)) == cli.EXIT_OK, args
        assert capsys.readouterr().out == expected + "\n", args
