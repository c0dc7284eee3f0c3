"""The package's exported names and the README's library example."""

import re
from pathlib import Path

import liechar

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
