"""Package surface tests: each module's ``__all__``, the names the package re-exports and its imports."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import loadtrack
from loadtrack import algorithms, cli, harness, loads
from test_tracing_contract import WRAPPED

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"  # the benchmark's span tracer


def _modules_with_all():
    modules = [importlib.import_module(f"loadtrack.{info.name}")
               for info in pkgutil.iter_modules(loadtrack.__path__)]
    return {m.__name__.rsplit(".", 1)[1]: m for m in modules if hasattr(m, "__all__")}


def test_every_name_in_all_resolves():
    modules = _modules_with_all()
    assert {"algorithms", "core", "harness", "loads"} <= set(modules)
    for name, module in modules.items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_package_imports_only_names_in_their_module_all():
    modules = _modules_with_all()
    imported = {}
    for node in ast.parse(inspect.getsource(loadtrack)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    assert imported
    for name, names in imported.items():
        assert name in modules, name
        outside = sorted(set(names) - set(modules[name].__all__))
        assert not outside, (name, outside)
        assert all(getattr(loadtrack, attr) is getattr(modules[name], attr) for attr in names)


def _unused_imports(module) -> list:
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(getattr(module, "__all__", ())))


def test_every_module_uses_what_it_imports():
    names = [info.name for info in pkgutil.iter_modules(loadtrack.__path__)]
    assert {"algorithms", "cli", "core", "harness", "loads"} <= set(names)
    unused = {name: _unused_imports(importlib.import_module(f"loadtrack.{name}")) for name in names}
    assert not {name: found for name, found in unused.items() if found}


TEST_ONLY_PACKAGES = {"scipy", "hypothesis", "pytest", "tracemalloc"}  # references and tools for tests, not deps


def _imported_packages(module) -> set:
    packages = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_no_module_imports_a_test_only_package():
    names = [info.name for info in pkgutil.iter_modules(loadtrack.__path__)]
    modules = [loadtrack] + [importlib.import_module(f"loadtrack.{name}") for name in names]
    assert {"numpy", "argparse"} <= set().union(*map(_imported_packages, modules))
    found = {m.__name__: sorted(_imported_packages(m) & TEST_ONLY_PACKAGES) for m in modules}
    assert not {name: packages for name, packages in found.items() if packages}


LAYERS = ("core", "algorithms", "loads", "harness", "cli")  # lowest first


def _package_modules_imported(module) -> set:
    """The loadtrack modules that ``module`` imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("loadtrack."))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "loadtrack":
                    continue
                base = base.partition(".")[2]
            if base:
                found.add(base.split(".")[0])
            else:  # from the package root: a module by name, or a name such as __version__
                found.update(alias.name for alias in node.names if alias.name in LAYERS)
    return found


def test_each_module_imports_package_modules_only_from_lower_layers():
    assert {info.name for info in pkgutil.iter_modules(loadtrack.__path__)} == set(LAYERS)
    assert _package_modules_imported(importlib.import_module("loadtrack.harness")) == {"core", "algorithms", "loads"}
    for rank, name in enumerate(LAYERS):
        upward = _package_modules_imported(importlib.import_module(f"loadtrack.{name}")) - set(LAYERS[:rank])
        assert not upward, (name, sorted(upward))



def _wrapped_by(tracer, install, *args) -> set:
    """The (owner, attribute) pairs that ``install(tracer, *args)`` replaces, each put back before returning."""
    modules = (cli, harness, algorithms, loads)
    owners = [*modules, *(value for m in modules for value in vars(m).values()
                          if inspect.isclass(value) and value.__module__ == m.__name__)]

    def attributes():
        return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}

    before = attributes()
    try:
        install(tracer, *args)
        after = attributes()
    finally:
        assert tracer.restore()
    assert attributes() == before
    return {key for key, value in after.items() if before.get(key) is not value}


def test_tracing_contract_pins_exactly_what_the_benchmark_tracer_wraps():
    # Loaded by path: the tracer is a script beside the package, not part of it.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = _wrapped_by(tracing.Tracer(), tracing.install_layers, cli, harness, algorithms, loads)
    assert layers == {(owner, attr) for owner, attrs in WRAPPED for attr in attrs}
    clock = _wrapped_by(tracing.Tracer(), tracing.install_trial_clock, harness)
    assert clock == {(harness, "run_trial"), (harness, "empirical_regret")}
