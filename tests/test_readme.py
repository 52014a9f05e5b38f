"""The README's library and command-line examples run as written."""

import argparse
import ast
import pathlib
import re
import shlex
import sys

from treebed.cli import build_parser, main

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


def test_command_line_flags_exist():
    # Every flag the command-line section names is accepted somewhere, so a
    # deleted option cannot linger in the docs.
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Library example")]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = set(ap._option_string_actions)
    for parser in sub.choices.values():
        accepted.update(parser._option_string_actions)
    assert flags and flags <= accepted, sorted(flags - accepted)


def test_runtime_imports_only_the_standard_library():
    # README promises a stdlib-only runtime; every absolute import says so.
    sources = sorted((README.parent / "src" / "treebed").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_every_import_is_used():
    # An import a module no longer reads is dead code that still loads.
    sources = sorted((README.parent / "src" / "treebed").glob("*.py"))
    for path in sources:
        if path.name == "__init__.py":  # re-exports the package's names
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
        assert not unused, unused
