import importlib
from pathlib import Path

import pytest

import ietistokes

MODULES = ("analysis", "assembly", "bspline", "cli", "domains", "geometry", "ieti", "linalg")


@pytest.mark.parametrize("name", ("ietistokes",) + tuple("ietistokes." + m for m in MODULES))
def test_every_export_resolves(name):
    # a name removed from a module must leave its __all__, and the
    # package's, with it: `from ietistokes import *` fails on a stale one
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_module_is_checked():
    src = Path(ietistokes.__file__).parent
    assert {p.stem for p in src.glob("*.py")} - {"__init__"} == set(MODULES)
