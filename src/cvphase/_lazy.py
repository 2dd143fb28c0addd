"""Engine modules registered at import and loaded when first used.

Most tables are closed forms and the quadrature engine is pure Python, so a
command that never runs an engine need not compile it, nor import numpy for
it.  ``cli`` binds each engine as ``grid = lazy_import("cvphase.grid")``: a
module that is in ``sys.modules`` at once but runs its code on its first
attribute access.  An ``import`` statement anywhere in the package would
load the module at once, since importlib reads the module's ``__spec__``
and that attribute access starts the load.

So ``import cvphase.cli`` registers every layer of the package but runs only
``cli``, ``errors``, ``model`` and ``stats``; ``cvphase`` itself resolves each
public name on first use (``__getattr__`` in ``__init__``).  Only the grid
and Monte-Carlo modules import numpy; every entry point of theirs builds
arrays, so numpy loads only when a command first runs one of them.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``: the loaded one if there is one, else a module
    registered in ``sys.modules`` that loads itself on its first attribute
    access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
