"""The package namespace and its __all__ name the same public API."""

import inspect

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
