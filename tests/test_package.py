"""Package surface: every advertised name resolves, and the README's library example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import waveobs

MODULES = ["waveobs"] + [
    f"waveobs.{info.name}"
    for info in pkgutil.iter_modules(waveobs.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name deleted from its module but left in __all__ shows here
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.splitlines()]
    claimed = re.findall(r"#[^\n]*~ ([\d.]+)", block)  # "~ 46.94": the value to the digits shown
    assert len(printed) == len(claimed) == 4
    for got, want in zip(printed, claimed):
        digits = len(want.partition(".")[2])
        assert round(got, digits) == float(want), (got, want)
