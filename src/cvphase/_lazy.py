"""numpy, loaded when the package first uses it.

Most tables are closed forms and the quadrature engine is pure Python, so a
command that never builds an array need not pay numpy's import.  Modules
bind ``np = lazy_numpy()`` instead of importing numpy: an ``import numpy``
statement anywhere in the package would load it at once, since importlib
reads the module's ``__spec__`` and that attribute access starts the load.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_numpy() -> ModuleType:
    """The numpy module: the loaded one if there is one, else a module
    registered in ``sys.modules`` that loads itself on its first attribute
    access."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module
