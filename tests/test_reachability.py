"""Every public function and class of the package is reached from the CLI.

The walk starts at `cli.main` and follows names through the package source
alone: a top-level definition (function, class or assigned name) reaches
every package definition its body names, directly or through a
`from .module import name`.  A public definition the walk never meets is
code that no experiment and no hard check runs.  `__init__` is left out,
since its re-exports name everything.
"""

import ast
from pathlib import Path

import incidencelab

PACKAGE_DIR = Path(incidencelab.__file__).parent

# Public names allowed to stay unreached; keep it empty.
ALLOWED_UNREACHED = frozenset()


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"}


def _definitions(tree) -> dict:
    """{name: node} for the top-level functions, classes and assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _imports(tree) -> dict:
    """{local name: (module, name)} for the package-relative imports."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def reachability() -> tuple:
    """(reached, public): sets of (module, name) pairs."""
    modules = _modules()
    defs = {mod: _definitions(tree) for mod, tree in modules.items()}
    imports = {mod: _imports(tree) for mod, tree in modules.items()}

    def resolve(mod, name):
        if name in defs[mod]:
            return mod, name
        return imports[mod].get(name)

    reached = set()
    frontier = [("cli", "main")]
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                target = resolve(mod, node.id)
                if target is not None and target not in reached:
                    frontier.append(target)
    public = {(mod, name) for mod, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              for name in [node.name] if not name.startswith("_")}
    return reached, public


def test_every_public_definition_is_reached_from_the_cli():
    reached, public = reachability()
    unreached = sorted(f"{mod}.{name}" for mod, name in public - reached)
    assert [name for name in unreached if name not in ALLOWED_UNREACHED] == []


def test_walk_follows_imports_and_the_experiment_table():
    reached, _ = reachability()
    # cli.main -> harness.run -> EXPERIMENTS -> _run_spectrum -> spectra
    assert ("harness", "EXPERIMENTS") in reached
    assert ("spectra", "spectrum_report") in reached
    assert ("incidence", "value_blocks") in reached
