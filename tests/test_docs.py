"""The package's exported names, the README's library example and
command-line block, and the oldest Python grammar the sources keep to."""

import ast
import re
import shlex
from pathlib import Path

import liechar
from liechar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from liechar import *", namespace)
    assert len(set(liechar.__all__)) == len(liechar.__all__)
    for name in liechar.__all__:
        assert namespace[name] is getattr(liechar, name)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$",
                      text, re.M | re.S)
    assert block is not None
    # pad with the lines before the block, so tracebacks cite README lines
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(code, str(README), "exec"), {})


# the commands of the command-line block whose comment states their output;
# a " ... " in the comment stands for the lines between the first and last
_STATED_OUTPUT = {"dim", "bcoeffs", "char", "delta1-apply"}


def test_readme_command_line_block_runs(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```$",
                      text, re.M | re.S)
    assert block is not None
    monkeypatch.delenv("LIECHAR_CACHE", raising=False)
    # the block names the fixture file from the root of the checkout
    monkeypatch.chdir(README.parent)
    for line in block.group(1).splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "liechar", line
        assert cli.main(argv[1:]) == 0, line
        out, err = capsys.readouterr()
        assert err == "", line
        if argv[1] in _STATED_OUTPUT:
            first, _, last = line.partition("# ")[2].partition(" ... ")
            lines = out.splitlines()
            assert lines[0] == first and lines[-1] == (last or first), line


def test_sources_parse_under_the_oldest_supported_grammar():
    # pyproject.toml declares requires-python >= 3.10; patterns are checked
    # by test_zpoly's test_patterns_need_no_python_3_11_syntax
    root = README.parent
    paths = sorted((root / "src" / "liechar").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    assert len(paths) > 15
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
