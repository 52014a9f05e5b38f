"""The README's library and command-line examples run as written."""

import pathlib
import re
import shlex

from treebed.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    d_hyp, d_tree = map(float, capsys.readouterr().out.split())
    assert d_hyp > 0 and d_tree > 0


def test_command_line_example_prints_what_it_says(capsys):
    # The one example documented with its output, e.g. `... # prints 3`.
    examples = re.findall(r"^treebed (.*?)\s+# prints (\S+)$", README.read_text(), re.M)
    assert examples == [("tree-dist --n 1 --p 5 --u 0,1,2 --v 0,1,3", "3")]
    (argv, printed), = examples
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == printed + "\n"
