"""Module boundaries of the package, read from the syntax trees of its sources."""

import ast
from pathlib import Path

import segreode

# The coefficient storage of a series and the kernel's calling convention:
# only series.py, which owns them, and backend.py, the kernel, name these.
STORAGE = {"pack", "unpack", "_raw", "_cut", "_content_normalize", "_scale_coeffs",
           "_product"}
OWNERS = {"series.py", "backend.py"}
# The one name of backend.py another module may import: the public label
# that the package re-exports.
LABEL = "BACKEND_NAME"


def _from_backend(node):
    """The names a node imports from the backend module (the module itself
    counts as its own name)."""
    if isinstance(node, ast.ImportFrom):
        if (node.module or "").split(".")[-1] == "backend":
            return [a.name for a in node.names]
        return [a.name for a in node.names if a.name == "backend"]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[-1] == "backend"]
    return []


def _bound(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def test_only_series_knows_the_storage_and_every_import_is_used():
    sources = sorted(Path(segreode.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= OWNERS | {"segre.py", "hypersurface.py"}
    leaks, unused = [], []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        imported = [(n.lineno, name) for n in nodes
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for name in _bound(n)]
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        used = set(names)
        for n in nodes:                         # a re-export counts as a use
            if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "__all__":
                used |= set(ast.literal_eval(n.value))
        unused += [f"{path.name}:{line} {name}" for line, name in imported if name not in used]
        if path.name in OWNERS:
            continue
        named = (names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                 | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
        leaks += [f"{path.name}: {name}" for name in sorted(named & STORAGE)]
        leaks += [f"{path.name}:{n.lineno} imports {name} from backend" for n in nodes
                  for name in _from_backend(n) if name != LABEL]
    assert not leaks, leaks
    assert not unused, unused


# Public names that no command, claim or benchmark workload reads, kept on
# purpose.  recovered_to_ode is criterion 03's Segre round trip (ODE ->
# family -> ODE); as a CLI claim it would add a report to the pipeline's
# reports.json and so change the artifact bytes the benchmark pins.
UNREACHED_ON_PURPOSE = {"recovered_to_ode"}


def _public_definitions(tree):
    """Each public top-level function and class, and each public method of
    a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (n for n in node.body if isinstance(n, ast.FunctionDef)
                            and not n.name.startswith("_"))


def _reads(tree):
    """(name, line) of each name the tree loads, as a name or an attribute,
    or imports."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr, n.lineno
        elif isinstance(n, ast.ImportFrom):
            yield from ((a.name, n.lineno) for a in n.names)


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    package = Path(segreode.__file__).parent
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    workloads = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert workloads
    bench = {name for p in workloads for name, _ in _reads(ast.parse(p.read_text(), str(p)))}
    reads = {(name, path, line) for path, tree in trees.items() for name, line in _reads(tree)}
    unread = [f"{path}:{node.lineno} {node.name}" for path, tree in trees.items()
              for node in _public_definitions(tree)
              if node.name not in bench | UNREACHED_ON_PURPOSE
              and not any(name == node.name
                          and (where != path or not node.lineno <= line <= node.end_lineno)
                          for name, where, line in reads)]
    assert not unread, unread
