"""The package namespace and its __all__ name the same public API, and the
README's library quick start runs as printed."""

import inspect
from pathlib import Path

import entroscope


def test_every_name_in_all_resolves_once():
    names = entroscope.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(entroscope, name), name


def test_every_public_attribute_is_in_all():
    public = {
        name for name, value in vars(entroscope).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - set(entroscope.__all__) == set()


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    atom, violations = capsys.readouterr().out.splitlines()
    assert atom == "-1.0"
    assert violations.startswith("((('Q',), ('Q', 'A1', 'A2')), ")
