import importlib
import pkgutil

import pytest

import agemix

MODULES = sorted(m.name for m in pkgutil.iter_modules(agemix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"agemix.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_exist_and_are_exported():
    # every name of the package's lazy export table resolves on the package to
    # its submodule's object, and is in that submodule's __all__
    assert agemix._SUBMODULE
    for name, module_name in agemix._SUBMODULE.items():
        module = importlib.import_module(f"agemix.{module_name}")
        assert getattr(agemix, name) is getattr(module, name), name
        assert name in module.__all__, f"{module_name}.{name}"
        assert name in dir(agemix), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_mapp'"):
        agemix.fit_mapp
