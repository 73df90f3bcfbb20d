"""Package surface: module exports and the README's library example."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import edgeanomaly

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(edgeanomaly.__path__) if name != "__main__"
)
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"edgeanomaly.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    # a missing name would make `from edgeanomaly.<name> import *` raise
    assert not missing, f"edgeanomaly.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(edgeanomaly.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        module = importlib.import_module(f"edgeanomaly.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert not unexported, f"edgeanomaly.{node.module} does not export {unexported}"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library usage"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under Library usage"
    exec(compile(block.group(1), f"{README}:Library usage", "exec"), {})
    assert "edges flagged" in capsys.readouterr().out
