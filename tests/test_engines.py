"""The three engines stay independent, held by a test rather than by review.

The closed forms (``stats``), the quadrature (``quadrature``) and the grid
circuit (``grid``) compute one detection probability three ways, and each
checks the others only while none of them borrows another's
special-function code.  So, read from the source of ``src/cvphase``:

* no engine imports another engine;
* only ``stats`` names ``erf``, ``erfc`` or ``lgamma``, and only ``grid``
  names an FFT;
* ``model``, which all three import, holds no special function at all.

Two more rules read the same source: every value type is a named tuple, so
no module imports ``dataclasses``; and the package registers its layers
itself, so no module names ``lazy_import`` or reads a layer as an
attribute of ``cli`` (``cli.grid``).

The stage-by-stage circuit is a test oracle, ``tests/circuit_oracle.py``,
and stays one: it takes from ``grid`` only the rules the sweep shares with
it, it never names the sweep it checks, and no module of ``src/cvphase``
names anything it defines.

A name counts wherever the code spells it: an attribute (``math.erf``), a
bare name, an import, or a string naming it (``getattr(math, "erf")``,
``importlib.import_module("cvphase.grid")``).  Comments and docstrings are
not code.
"""

import ast
import re
from pathlib import Path

import pytest

import cvphase

SOURCE = Path(cvphase.__file__).parent
ORACLE = Path(__file__).parent / "circuit_oracle.py"
# what the oracle takes from grid: the Gaussian, the conjugate layout and
# the mask's runs of cells, the rules the sweep applies alike
SHARED_WITH_GRID = {"_support_gaussian", "_gaussian", "_conjugate_layout", "_runs_of_ones"}
ENGINES = ("stats", "quadrature", "grid")
ERF_NAMES = frozenset({"erf", "erfc", "lgamma"})
# numpy.fft, scipy.fft and their transforms: fft, ifft, rfft, irfft, hfft,
# the 2-d and n-d ones and fftn
_FFT = re.compile(r"^(i?[rh]?fft[2n]?|fftpack|pocketfft)$")
# what model may not name beyond those: the gamma family and scipy.special
SPECIAL_NAMES = ERF_NAMES | {"gamma", "special"}
# the layers the package registers, each named once in its table of names
LAYERS = frozenset(cvphase._SUBMODULE.values())


def _tree(module: str) -> ast.Module:
    return ast.parse((SOURCE / f"{module}.py").read_text(), f"{module}.py")


def _modules() -> list[str]:
    return sorted(path.stem for path in SOURCE.glob("*.py"))


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and functions."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                skipped.add(id(body[0].value))
    return skipped


def _names(tree: ast.Module) -> set[str]:
    """Every dotted part of every name the code spells."""
    parts = set()
    skipped = _docstrings(tree)

    def add(dotted: str) -> None:
        parts.update(dotted.split("."))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            add(node.id)
        elif isinstance(node, ast.Attribute):
            add(node.attr)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
                add(alias.asname or "")
        elif isinstance(node, ast.ImportFrom):
            add(node.module or "")
            for alias in node.names:
                add(alias.name)
                add(alias.asname or "")
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and re.fullmatch(r"[\w.]+", node.value)
        ):
            add(node.value)
    parts.discard("")
    return parts


def _imported_modules(tree: ast.Module) -> set[str]:
    """The cvphase modules the code imports, relatively or by full name, or
    names in a string such as importlib.import_module's."""
    found = set()

    def package_part(dotted: str) -> None:
        head, _, rest = dotted.partition(".")
        if head == "cvphase" and rest:
            found.add(rest.split(".")[0])

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package_part(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:  # from . import stats
                    found.update(alias.name for alias in node.names)
            elif node.module == "cvphase":
                found.update(alias.name for alias in node.names)
            elif node.module:
                package_part(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"cvphase\.\w+", node.value):
                package_part(node.value)
    return found


def _layers_through_cli(tree: ast.Module) -> set[str]:
    """The layers the code reads as an attribute of cli, as ``cli.grid`` or
    ``cvphase.cli.grid``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYERS:
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "cli") or (
                isinstance(base, ast.Attribute) and base.attr == "cli"
            ):
                found.add(node.attr)
    return found


def test_the_engines_are_all_there():
    assert set(ENGINES) <= set(_modules())


@pytest.mark.parametrize("engine", ENGINES)
def test_no_engine_imports_another(engine):
    others = set(ENGINES) - {engine}
    assert not _imported_modules(_tree(engine)) & others


@pytest.mark.parametrize("module", _modules())
def test_only_stats_names_erf(module):
    if module != "stats":
        assert not _names(_tree(module)) & ERF_NAMES


@pytest.mark.parametrize("module", _modules())
def test_only_grid_names_an_fft(module):
    if module != "grid":
        assert not {name for name in _names(_tree(module)) if _FFT.match(name)}


def test_model_holds_no_special_function():
    names = _names(_tree("model"))
    assert not names & SPECIAL_NAMES
    assert not {name for name in names if _FFT.match(name)}
    assert not _imported_modules(_tree("model")) & set(ENGINES)


@pytest.mark.parametrize("module", _modules())
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in _names(_tree(module))


@pytest.mark.parametrize("module", _modules())
def test_no_module_reaches_a_layer_through_cli(module):
    tree = _tree(module)
    assert "lazy_import" not in _names(tree)
    assert not _layers_through_cli(tree)


def _oracle_tree() -> ast.Module:
    return ast.parse(ORACLE.read_text(), ORACLE.name)


def _public_definitions(tree: ast.Module) -> set[str]:
    """The public names the module's top level defines or assigns."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in defined if not name.startswith("_")}


def test_the_circuit_oracle_takes_only_the_shared_rules_from_grid():
    tree = _oracle_tree()
    from_grid = [
        node for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "cvphase.grid"
    ]
    assert {alias.name for node in from_grid for alias in node.names} == SHARED_WITH_GRID
    # no other route to grid: no module import, attribute or string naming it
    rest = ast.Module([node for node in tree.body if node not in from_grid], [])
    assert "grid" not in _names(rest)
    assert not _names(tree) & {"phase_response", "PhaseResponse"}


@pytest.mark.parametrize("module", _modules())
def test_no_module_names_what_the_circuit_oracle_defines(module):
    defined = _public_definitions(_oracle_tree())
    assert defined
    assert not _names(_tree(module)) & defined


def test_the_reader_sees_what_it_must():
    # each rule reads the spellings it guards against
    tree = ast.parse(
        "import math\n"
        "from math import erf as e\n"
        "import numpy.fft\n"
        "from . import grid\n"
        "from .stats import prob_x0\n"
        "x = getattr(math, 'lgamma')\n"
        "y = importlib.import_module('cvphase.quadrature')\n"
        "def f():\n"
        "    '''erf in a docstring is prose'''\n"
        "    return np.fft.rfft(x)\n"
    )
    names = _names(tree)
    assert {"erf", "lgamma", "fft", "rfft"} <= names
    assert _imported_modules(tree) == {"grid", "stats", "quadrature"}
    prose = ast.parse("def f():\n    '''erf'''\n")
    assert "erf" not in _names(prose)
    routed = ast.parse(
        "from . import cli\n"
        "n = cli.experiments.sample_outcomes(p, trials, seed)\n"
        "g = cvphase.cli.grid\n"
        "e = cli._emit\n"
    )
    assert _layers_through_cli(routed) == {"experiments", "grid"}
