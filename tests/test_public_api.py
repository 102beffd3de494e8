"""The declared public names of every lumaforge module resolve.

`__all__` lists are strings, so a name deleted from a module but left in its
`__all__` only fails on `from module import *`. This walks every module of the
package, and the package itself. It also checks that no module keeps an import
or a private name that nothing in it uses, that every file a command
writes is opened in one place, that an output directory is made and a
failed run's files are removed in one place, that every metrics report
is built in one place, that JSON is rendered only for a report and a config digest, that
the config digest is the one hash, taken without OpenSSL, that a gray
frame is promoted to color in one place, that no module warns, and that no
module reads the process environment.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lumaforge

MODULES = ["lumaforge"] + [
    f"lumaforge.{info.name}" for info in pkgutil.iter_modules(lumaforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    declared = getattr(module, "__all__", None)
    if declared is None:
        return
    assert len(set(declared)) == len(declared), "duplicate names in __all__"
    assert [n for n in declared if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    declared = getattr(importlib.import_module(name), "__all__", None)
    if declared is not None:
        assert set(declared) <= set(namespace)


def test_package_reexports_are_declared_public():
    """Every name the package takes from a module is in that module's __all__."""
    for name in dir(lumaforge):
        value = getattr(lumaforge, name)
        home = getattr(value, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("lumaforge."):
            continue
        declared = getattr(importlib.import_module(home), "__all__", None)
        if declared is not None:
            assert name in declared, f"lumaforge.{name} is not in {home}.__all__"


SOURCES = sorted(Path(lumaforge.__file__).parent.glob("*.py"))


def _checked_names(tree: ast.Module, imports: bool):
    """Module-level imports if `imports`, and module-level names that are private but not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if imports and getattr(node, "module", None) != "__future__":
                yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        else:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports_or_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # a string that is exactly a name, as in __all__, counts as a use
    used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    # the package's own imports are its public API
    checked = _checked_names(tree, imports=path.name != "__init__.py")
    assert [name for name in checked if name not in used] == []


def _calls(path: Path):
    """(scope, called name, call) for each call in a module; scope is module.function, or module.Class.method."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        scope, node = [], parents[call]
        while not isinstance(node, ast.Module):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope.insert(0, node.name)
            node = parents[node]
        yield ".".join([path.stem, *scope]), name, call


def _file_writes(path: Path):
    """(scope, call) for each call in a module that can create or change a file."""
    for scope, name, call in _calls(path):
        func = call.func
        if name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            what = "os.open"
        elif name == "open":
            # builtin open(file, mode) or Path.open(mode); a mode that is no literal counts as writing
            positional = call.args[1:] if isinstance(func, ast.Name) else call.args
            mode = next((k.value for k in call.keywords if k.arg == "mode"), positional[0] if positional else None)
            if mode is None or isinstance(mode, ast.Constant) and not set("wax+") & set(str(mode.value)):
                continue
            what = "open"
        elif name in ("write_bytes", "write_text"):
            what = name
        else:
            continue
        yield scope, what


def test_one_write_path():
    # every command writes through pipeline._write; netpbm.write_image is library API no command calls
    writes = {write for path in SOURCES for write in _file_writes(path)}
    assert writes == {("pipeline._write", "os.open"), ("netpbm.write_image", "write_bytes")}


def test_one_writer():
    # a command makes its output directory and removes the files of a failed run only in its writer context
    calls = {(scope, name) for path in SOURCES for scope, name, _ in _calls(path)
             if name in ("mkdir", "makedirs", "unlink", "remove", "rmdir", "rmtree")}
    assert calls == {("pipeline._writing", "mkdir"), ("pipeline._writing", "unlink")}


def test_one_report_path():
    # run and metrics build their report in pipeline._report, and every PSNR is taken in PsnrResult.pooled
    made = {(scope, name) for path in SOURCES for scope, name, _ in _calls(path) if name in ("MetricsReport", "log10")}
    assert made == {("pipeline._report", "MetricsReport"), ("quality_metrics.PsnrResult.pooled", "log10")}


def test_one_promotion():
    # a frame keeps the kind it is stored in; a gray one becomes color only where a color path starts
    promotions = {
        scope for path in SOURCES for scope, name, call in _calls(path)
        if name == "_adopt" and isinstance(call.func, ast.Attribute)
        and getattr(call.func.value, "id", None) == "ColorBuffer"
    }
    assert promotions == {"pipeline._promoted"}


def test_one_json_rendering():
    # a report is rendered only by MetricsReport.to_json_bytes, and a config only for its digest
    dumps = {
        scope for path in SOURCES for scope, name, call in _calls(path)
        if name == "dumps" and isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) == "json"
    }
    assert dumps == {"quality_metrics.MetricsReport.to_json_bytes", "pipeline.PipelineConfig.digest"}


def test_one_hash():
    # the config digest is the one hash. hashlib and ssl start OpenSSL, so each is imported only as the
    # fallback for a build without the interpreter's own SHA-256; a hash over frame bytes, where OpenSSL
    # is several times faster, is to be chosen on purpose
    hashes = {scope for path in SOURCES for scope, name, _ in _calls(path) if name == "sha256"}
    assert hashes == {"pipeline.PipelineConfig.digest"}
    openssl = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if {module.split(".")[0] for module in modules} & {"hashlib", "_hashlib", "ssl", "_ssl"}:
                openssl.add((path.stem, type(parents[node]).__name__, *modules))
    assert openssl == {("pipeline", "ExceptHandler", "hashlib")}


def test_no_warnings():
    # a value the library cannot use is refused with a ConfigurationError, not taken with a warning
    def top_names(node):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        return {name.split(".")[0] for name in names}

    importers = {path.stem for path in SOURCES for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and "warnings" in top_names(node)}
    assert importers == set()


def test_no_environment_reads():
    # a command's bytes depend only on its argv, its config file and its frames, so no shell setting may move them
    environment = {"environ", "environb", "getenv"}
    reads = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in environment:
                reads.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads |= {(path.stem, alias.name) for alias in node.names if alias.name in environment}
    assert reads == set()
