"""The README's Python examples run as written, with warnings as errors,
and every constant it names exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import trimech

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source, capsys):
    exec(compile(source, f"{README.name} python block", "exec"), {})
    assert capsys.readouterr().out


def test_readme_constants_exist():
    """Every backticked ALL_CAPS name in README.md is an attribute of some
    trimech module, so a constant deleted from the code leaves no stale
    mention behind."""
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", README.read_text(encoding="utf-8")))
    modules = [importlib.import_module(f"trimech.{info.name}")
               for info in pkgutil.iter_modules(trimech.__path__)]
    assert len(names) >= 20
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []
