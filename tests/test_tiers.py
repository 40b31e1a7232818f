"""The two tiers never mix: read each module's imports and check the boundary.

The symbolic modules reach neither the oracle nor dense states, and the
oracle modules reach no symbolic module beyond the Pauli strings the oracle
applies; both name states by the ``labels`` of the shared core.  Only
``checks`` and ``cli`` use both tiers; the package ``__init__`` imports
nothing.

Within the symbolic tier, a numpy-free core (``errors``, ``labels``,
``counting``, ``pauli``, ``rotations``) is all that the CLI module loads,
so the integer-only commands start without numpy; ``cli`` imports numpy
nowhere, and only its two listing commands import the renderers of
``listing``, which run on ``poles`` alone.  ``poles``, ``lhv`` and
``listing`` load no numpy either: only the functions that build arrays
import it, when they run.  Every module-level name of the
package has a caller in the package, or the benchmark traces it and it is
listed as kept by the tracer alone, and only ``errors`` defines a size cap
or raises its refusal; README's Caps table lists exactly those caps.  Only
``errors`` defines :class:`Check`, and each verdict line is written once.
"""

import ast
import functools
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ghzverify"

SYMBOLIC = ["pauli", "poles", "counting", "lhv", "rotations", "listing"]
ORACLE = ["states", "oracle"]
BOTH = {"checks", "cli"}
CORE = ["errors", "labels", "counting", "pauli", "rotations"]
NUMPY_BACKED = (set(SYMBOLIC) | set(ORACLE) | {"checks"}) - set(CORE)


@functools.cache
def _imports(module, top_level=False):
    """(imported module, imported name or None) for each import, read once.

    A ghzverify module is named without its package prefix, any other by
    its full name.  ``top_level`` keeps only the imports that run when the
    module loads: none inside a function or an ``if TYPE_CHECKING`` block.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("ghzverify"):
                found.extend((node.module, alias.name) for alias in node.names)
                continue
            target = (node.module or "").removeprefix("ghzverify").lstrip(".")
            for alias in node.names:
                if target:
                    found.append((target, alias.name))
                else:  # from . import oracle
                    found.append((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name.removeprefix("ghzverify."), None))
    return tuple(found)


def test_every_module_is_placed():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == (set(SYMBOLIC) | set(ORACLE) | BOTH
                       | {"errors", "labels", "__init__", "__main__"})


@pytest.mark.parametrize("module", SYMBOLIC)
def test_symbolic_modules_stay_off_the_oracle(module):
    reached = {target for target, _ in _imports(module)}
    assert not reached & set(ORACLE), f"{module} reaches {reached & set(ORACLE)}"


@pytest.mark.parametrize("module", ["poles", "lhv", "listing"])
def test_symbolic_modules_load_no_numpy(module):
    # lhv's reports and both listings run on ints; the array routes
    # (enumerate_pole, eigenvalue_column, the exhaustive sweep) import numpy
    # inside the function
    assert not [target for target, _ in _imports(module, top_level=True)
                if target.split(".")[0] == "numpy"]


def test_labels_have_one_home():
    # every module that names a label imports it from labels, and no other
    # module defines or re-exports one
    for path in PACKAGE.glob("*.py"):
        for target, name in _imports(path.stem):
            if name in ("GhzLabel", "parse_label"):
                assert target == "labels", f"{path.stem} imports {name} from {target}"


@pytest.mark.parametrize("module", ORACLE)
def test_oracle_modules_stay_off_the_symbolic_tier(module):
    # the oracle applies Pauli strings, so pauli is the one symbolic import allowed
    reached = {target for target, _ in _imports(module) if target in SYMBOLIC}
    assert reached <= {"pauli"}


@pytest.mark.parametrize("module", CORE)
def test_core_modules_import_no_numpy(module):
    reached = {target.split(".")[0] for target, _ in _imports(module)}
    assert "numpy" not in reached
    assert not reached & NUMPY_BACKED, f"{module} reaches {reached & NUMPY_BACKED}"


def test_cli_loads_only_the_stdlib_and_the_core():
    for target, name in _imports("cli", top_level=True):
        top = target.split(".")[0]
        # from . import __version__ reads as a module named __version__
        assert top in sys.stdlib_module_names or top in CORE or top == "__version__", \
            f"cli imports {target} when it loads"


def test_the_reader_finds_imports():
    assert ("oracle", None) in _imports("checks")
    assert ("pauli", "PauliOperator") in _imports("oracle")
    assert ("numpy", None) in _imports("poles")
    # cli imports listing only inside the commands that stream a listing
    assert ("listing", None) in _imports("cli")
    assert ("listing", None) not in _imports("cli", top_level=True)
    assert ("counting", None) in _imports("cli", top_level=True)


def test_cli_imports_no_numpy_anywhere():
    # not at load, inside a function or under TYPE_CHECKING: the numpy
    # renderers live in listing
    assert not [target for target, _ in _imports("cli") if target.split(".")[0] == "numpy"]


def test_listing_stays_off_the_oracle_tier():
    assert not {target for target, _ in _imports("listing")} & set(ORACLE)


def test_listing_imports_only_poles_at_run_time():
    # lhv's Contradictions is read under TYPE_CHECKING alone, so enumerate
    # loads neither lhv nor the pauli it binds
    tree = ast.parse((PACKAGE / "listing.py").read_text())
    typing_only = {id(node) for block in tree.body
                   if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
    package = {path.stem for path in PACKAGE.glob("*.py")}
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            reached |= {node.module} if node.module else {alias.name for alias in node.names}
    assert reached & package == {"poles"}


def test_only_the_listing_commands_import_listing():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        # the innermost function around each node; ast.walk visits outer ones first
        scopes = {id(node): function.name for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "listing" in ast.unparse(node):
                importers.add((path.stem, scopes.get(id(node))))
    assert importers == {("cli", "cmd_enumerate"), ("cli", "cmd_lhv")}


def test_package_binds_only_its_version():
    # each name has one import path: the module that defines it
    _docstring, *body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Assign]
    assert [target.id for target in body[0].targets] == ["__version__"]


def test_cli_copies_no_library_cap():
    # each limit is refused once, by the library function that does the
    # work; the CLI names no cap, and runs the exhaustive sweep before the
    # reports so that the sweep's own cap refuses first
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    caps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.endswith("_CAP"):
            caps.add(f"{ast.unparse(node.value)}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id.endswith("_CAP"):
            caps.add(node.id)
        elif isinstance(node, ast.alias) and node.name.endswith("_CAP"):
            caps.add(node.name)
    assert caps == set()


def test_only_errors_defines_or_refuses_a_cap():
    # one capacity model: every cap is a Cap in the errors table, and
    # Cap.check is the one place that raises CapacityError
    defining, raising = set(), []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.alias):
                names = [node.asname or ""]
            else:
                names = []
            if any(name.endswith("_CAP") for name in names):
                defining.add(path.stem)
            if isinstance(node, ast.Raise) and "CapacityError" in ast.unparse(node):
                raising.append(path.stem)
    assert defining == {"errors"}
    assert raising == ["errors"]
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    (cap,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Cap"]
    (check,) = [node for node in cap.body if isinstance(node, ast.FunctionDef)]
    assert check.name == "check"
    assert any(isinstance(node, ast.Raise) for node in ast.walk(check))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id.endswith("_CAP"):
            assert ast.unparse(node.value.func) == "Cap", ast.unparse(node)


#: The last line of a judged command's table.
VERDICT_LINES = ("all checks passed", "CHECK FAILURES PRESENT")


def test_one_verdict_type_and_one_verdict_line():
    # Check is defined in errors alone, and each verdict line is one string
    # constant, in the one cli helper that closes every judged command
    classes, constants = defaultdict(list), defaultdict(list)
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name].append(path.stem)
            elif isinstance(node, ast.Constant) and node.value in VERDICT_LINES:
                constants[node.value].append(path.stem)
    assert classes["Check"] == ["errors"]
    assert constants == {line: ["cli"] for line in VERDICT_LINES}


def test_readme_caps_table_is_the_errors_table():
    # README's Caps table lists every Cap of errors with its qubits, and no other row
    from ghzverify import errors

    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            base, _, exponent = cells[1].partition("^")
            listed[cells[0].strip("`")] = int(base) ** int(exponent) if exponent else int(base)
    assert listed == {name: value.qubits for name, value in vars(errors).items()
                      if isinstance(value, errors.Cap)}


def _uses(tree):
    """The ids of the nodes that name each bare ``name`` and each
    ``module.name`` attribute in a module, keyed ``name`` and ``(module, name)``."""
    uses = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id].add(id(node))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses[(node.value.id, node.attr)].add(id(node))
    return uses


def _has_caller(uses, module, name, definition):
    """Whether package code outside the definition loads ``module.name`` (or
    the bare name, in ``module`` or a module importing it); ``uses`` holds
    :func:`_uses` of each module."""
    inside = {id(node) for node in ast.walk(definition)}
    # _imports reads "from . import __version__" as a module named __version__
    binding = (name, None) if module == "__init__" else (module, name)
    for other, other_uses in uses.items():
        found = other_uses.get((module, name), set())
        if other == module or binding in _imports(other):
            found = found | other_uses.get(name, set())
        if found - inside:
            return True
    return False


def test_every_package_name_has_a_caller_or_is_traced():
    # a function, class or constant that only tests reach belongs in references
    from test_traced_names import _traced

    traced = {(layer, qualname.split(".")[0]) for layer, qualname in _traced()}
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    uses = {module: _uses(tree) for module, tree in trees.items()}
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [target.id for target in ast.walk(node)
                         if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)]
            else:
                names = []
            uncalled |= {(module, name) for name in names
                         if not _has_caller(uses, module, name, node)}
    assert uncalled - traced == set()
    # names that only the benchmark's tracer keeps; one that loses its last
    # caller is listed here on purpose.  check_eigen and rotated_dense are
    # the tests' dense references for the pair route that verify runs
    # (build_state keeps one caller, rotated_dense)
    assert uncalled & traced == {("oracle", "materialize"), ("oracle", "observable_matrix"),
                                 ("states", "apply_rotations"), ("oracle", "check_eigen"),
                                 ("states", "rotated_dense")}
