"""The package exports the union of its modules' public names, and one
error type covers every input error."""

import importlib

import numpy as np
import pytest

import qwline
from qwline.cli import ConfigError
from qwline.errors import first_fault

MODULES = ("closedform", "coin", "errors", "evolution", "gauge", "invariance",
           "observables", "state")
LIBRARY_ERRORS = ("TotalityError", "ParityError", "UnsupportedParameterError",
                  "PhaseConditionError", "GridError", "TableError")


def _modules():
    return [importlib.import_module(f"qwline.{name}") for name in MODULES]


def test_no_public_name_is_declared_in_two_modules():
    """A name in two modules' ``__all__`` would be shadowed silently by the
    package's star imports."""
    owner, twice = {}, []
    for module in _modules():
        for name in module.__all__:
            if name in owner:
                twice.append(f"{name}: {owner[name]} and {module.__name__}")
            owner[name] = module.__name__
    assert twice == []


def test_package_names_are_the_module_objects():
    declared = ["__version__"]
    for module in _modules():
        for name in module.__all__:
            assert getattr(qwline, name) is getattr(module, name), name
            declared.append(name)
    assert sorted(qwline.__all__) == sorted(declared)


def test_input_error_catches_every_library_error():
    assert issubclass(qwline.InputError, ValueError)
    for cls in [getattr(qwline, name) for name in LIBRARY_ERRORS] + [ConfigError]:
        args = (1, 2) if cls is qwline.TotalityError else ("bad input",)
        with pytest.raises(qwline.InputError):
            raise cls(*args)


def test_first_fault_names_the_first_entry_then_its_first_mask():
    ok = np.ones((2, 3), dtype=bool)
    assert first_fault([ok, ok]) is None
    late, early = ok.copy(), ok.copy()
    late[1, 2] = early[1, 0] = False
    # C order: entry (1, 0) precedes (1, 2), whichever mask fails there
    assert first_fault([late, early]) == (1, 3)
    both = early.copy()
    assert first_fault([late, both, early]) == (1, 3)
    assert first_fault([early, both]) == (0, 3)
    # a scalar mask is broadcast over every entry
    assert first_fault([ok, np.False_]) == (1, 0)
    assert first_fault([np.False_]) == (0, 0)
