"""Every function, method and class of `group_pdo` is reached from a command, read from its source with `ast`.

The walk starts at `cli.COMMANDS`, `cli.main`, `selftest.run_all` and every module-level statement
(so registries such as `BUILDER_KEYS` count).  A reached function or method reaches what its body
names: a bare name through the module's own definitions and its relative imports, an attribute `.x`
every method named `x` in the package (conservative: the receiver's type is not inferred).  A reached
class reaches its decorators, bases, class-level statements and dunder methods.  A name nothing
reaches is carried only by tests; it belongs in `tests/` or nowhere, unless `ALLOWED` says why it stays.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "group_pdo"
ROOTS = ("group_pdo.cli.main", "group_pdo.selftest.run_all")  # cli.COMMANDS is a module-level statement

# qualified name -> why it stays although no command reaches it
ALLOWED = {
    "group_pdo.groups.su2.SU2.inverse": "y^-1 of the kernel formula K(x, y) that test_quantize checks against",
    "group_pdo.groups.torus.Torus.inverse": "y^-1 of the kernel formula K(x, y) that test_quantize checks against",
    "group_pdo.groups.su2.quat_inverse": "the quaternion inverse behind SU2.inverse",
    "group_pdo.groups.dual.DualIndex.weight": "read by the per-dual reference loops; Duals.weights is pinned to it",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def parse_package():
    """(trees, definitions, imports, methods): module -> tree; qualified name -> (module, node);
    module -> {name: (source module, name)} for its relative imports; method name -> qualified names."""
    trees, definitions, imports, methods = {}, {}, {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        mod = module_name(path)
        tree = trees[mod] = ast.parse(path.read_text(), filename=str(path))
        package = mod if path.name == "__init__.py" else mod.rpartition(".")[0]
        imports[mod] = {}
        for node in ast.walk(tree):  # imports inside functions too
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package.rsplit(".", node.level - 1)[0]  # one package up per level past the first
                source = f"{base}.{node.module}" if node.module else base
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (source, alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{mod}.{node.name}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qualified = f"{mod}.{node.name}.{item.name}"
                        definitions[qualified] = (mod, item)
                        methods.setdefault(item.name, []).append(qualified)
    return trees, definitions, imports, methods


def reached_names() -> tuple[set, dict]:
    trees, definitions, imports, methods = parse_package()

    def resolve(mod: str, name: str):
        """The qualified definition `name` means in `mod`, through relative imports; None if outside."""
        if f"{mod}.{name}" in definitions:
            return f"{mod}.{name}"
        if name in imports.get(mod, {}):
            return resolve(*imports[mod][name])
        return None

    reached, todo = set(), []

    def visit(mod: str, nodes) -> None:
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    targets = [resolve(mod, node.id)]
                elif isinstance(node, ast.Attribute):
                    targets = methods.get(node.attr, [])
                else:
                    continue
                todo.extend(t for t in targets if t is not None)

    for mod, tree in trees.items():
        visit(mod, [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))])
    todo.extend(ROOTS)
    while todo:
        qualified = todo.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        mod, node = definitions[qualified]
        if isinstance(node, ast.ClassDef):
            defs = [s for s in node.body if isinstance(s, ast.FunctionDef)]
            visit(mod, [*node.decorator_list, *node.bases, *node.keywords, *(s for s in node.body if s not in defs)])
            todo.extend(f"{qualified}.{s.name}" for s in defs if is_dunder(s.name))
        else:
            visit(mod, [node])
    return reached, definitions


def unreached() -> list[str]:
    reached, definitions = reached_names()
    return sorted(q for q in definitions if q not in reached and not is_dunder(q.rpartition(".")[2]))


def test_every_definition_is_reached_from_a_command():
    assert [q for q in unreached() if q not in ALLOWED] == []


def test_allowlist_names_only_unreached_definitions():
    assert sorted(ALLOWED) == [q for q in unreached() if q in ALLOWED]
