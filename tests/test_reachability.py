"""Every public function and class of the package is reached from the CLI,
and every option and attribute it offers is used inside the package.

The walk starts at `cli.main` and follows names through the package source
alone: a top-level definition (function, class or assigned name) reaches
every package definition its body names, directly or through a
`from .module import name`.  A public definition the walk never meets is
code that no experiment and no hard check runs.  `__init__` is left out,
since its re-exports name everything.

One level down, a parameter with a default must be passed (by keyword or
by position) by some call in the package, and a public method or property
must be read as an attribute somewhere in it; otherwise the option or
attribute serves only the tests.
"""

import ast
from pathlib import Path

import incidencelab

PACKAGE_DIR = Path(incidencelab.__file__).parent

# Public names allowed to stay unreached.
ALLOWED_UNREACHED = frozenset({
    # the tests' oracle for unrank_gl2; the benchmark's CACHES reads its
    # cache_info() and its tests build a family from it, so it goes with
    # the next benchmark change
    "charsums.enumerate_gl2",
})


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


def test_unreached_allowlist_names_only_unreached_entries():
    reached, public = reachability()
    assert {f"{mod}.{name}" for mod, name in reached} & ALLOWED_UNREACHED == set()
    assert ALLOWED_UNREACHED <= {f"{mod}.{name}" for mod, name in public}


def test_walk_follows_imports_and_the_experiment_table():
    reached, _ = reachability()
    # cli.main -> harness.run -> EXPERIMENTS -> _run_spectrum -> spectra
    assert ("harness", "EXPERIMENTS") in reached
    assert ("spectra", "spectrum_report") in reached
    assert ("incidence", "value_blocks") in reached


# Options and attributes allowed to stay unused inside the package.
ALLOWED_UNUSED = frozenset({
    # the console entry point: the console script calls main() with no
    # arguments, tests pass argv
    "cli.main(argv)",
    # the benchmark's zaremba_set hook reads the bound `alternate`, so the
    # option goes with the next benchmark change
    "zaremba.zaremba_set(alternate)",
})


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _called_name(call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_parameters(mod, tree):
    """(label, function name, position or None, keyword) per parameter that
    has a default; the position skips `self`/`cls` on methods."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        offset = 1 if id(node) in methods else 0
        first_default = len(positional) - len(args.defaults)
        for index in range(first_default, len(positional)):
            name = positional[index].arg
            yield f"{mod}.{node.name}({name})", node.name, index - offset, name
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{mod}.{node.name}({arg.arg})", node.name, None, arg.arg


def _passes(call, position, keyword) -> bool:
    if any(kw.arg in (keyword, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > position


def unused_options_and_attributes() -> list:
    """Defaulted parameters no package call passes, and public methods and
    properties no package code reads as an attribute, matched by name."""
    trees = _trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    unused = set()
    for mod, tree in trees.items():
        for label, func, position, keyword in _defaulted_parameters(mod, tree):
            if not any(_called_name(call) == func and _passes(call, position, keyword)
                       for call in calls):
                unused.add(label)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in attributes):
                    unused.add(f"{mod}.{cls.name}.{node.name}")
    return sorted(unused)


def test_every_option_is_passed_and_every_attribute_is_read():
    assert [name for name in unused_options_and_attributes()
            if name not in ALLOWED_UNUSED] == []


def test_allowlist_names_only_unused_entries():
    assert ALLOWED_UNUSED <= set(unused_options_and_attributes())
