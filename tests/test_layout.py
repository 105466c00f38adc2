"""Source-layout guards, read with ``ast``: production code in
``src/domainlearn`` is kept alive by production callers, not by its own
tests, and each name is imported from the module that defines it."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "domainlearn"
# Code that counts as a caller: the package, the benchmark and the scripts,
# without the benchmark's own tests.
CALLER_DIRS = ("src", "bench", "scripts")

# Public definitions allowed to have no production caller, with the reason.
NO_CALLER_NEEDED: dict[str, str] = {}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def references(tree: ast.Module):
    """(name, line) of every identifier use: names, attributes, imported
    names, and string constants that spell an identifier (the benchmark's
    span targets name functions as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def caller_files() -> list[Path]:
    return [
        path
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if not path.name.startswith("test_")
    ]


def test_every_public_definition_has_a_caller():
    trees = {path: parse(path) for path in caller_files()}
    uses = [(name, path, line) for path, tree in trees.items() for name, line in references(tree)]
    defined, uncalled = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in public_definitions(trees[path]):
            key = f"{path.name}:{qualified}"
            defined.add(key)
            called = any(
                name == node.name
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for name, where, line in uses
            )
            if not called and key not in NO_CALLER_NEEDED:
                uncalled.append(key)
    assert uncalled == [], "public definitions that only tests reach"
    assert set(NO_CALLER_NEEDED) <= defined


def test_names_are_imported_from_their_modules():
    package = parse(PACKAGE / "__init__.py")
    assert len(package.body) == 1 and isinstance(package.body[0].value, ast.Constant)
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    top_level_imports = [
        (path.relative_to(ROOT).as_posix(), alias.name)
        for directory in (*CALLER_DIRS, "tests")
        for path in sorted((ROOT / directory).rglob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.module == "domainlearn"
        for alias in node.names
    ]
    assert [entry for entry in top_level_imports if entry[1] not in submodules] == []


def imported_modules(tree: ast.Module):
    """Every module an ``import`` or ``from ... import`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_scripts_import_the_package_only_through_the_cli():
    # a script that plays through cli.main cannot grow its own play path
    imports = [
        (path.name, module)
        for path in sorted((ROOT / "scripts").glob("*.py"))
        for module in imported_modules(parse(path))
        if module.split(".")[0] == "domainlearn"
    ]
    assert [entry for entry in imports if entry[1] != "domainlearn.cli"] == []


def test_modules_import_no_private_name_of_another():
    # a private name is its own module's business; other modules use the public ones
    imports = [
        (path.name, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "domainlearn")
        for alias in node.names
    ]
    assert [entry for entry in imports if entry[1].startswith("_")] == []


def test_only_learners_compares_with_a_kind_name():
    # a strategy is its class: what a kind promises is read from its class,
    # never from a branch on its name
    from domainlearn.learners import LEARNERS

    compares = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "learners.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for part in ast.walk(operand)
        if isinstance(part, ast.Constant) and isinstance(part.value, str) and part.value in LEARNERS
    ]
    assert compares == []


def uses_outside_verify(name: str, *allowed: str) -> list[str]:
    """``file:line`` of each reference to ``name`` in the package, imports
    aside, outside ``experiments.verify_experiment`` and the files
    ``allowed``."""
    (verify,) = [
        node
        for node in parse(PACKAGE / "experiments.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_experiment"
    ]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        imports = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        found += [
            f"{path.name}:{line}"
            for used, line in references(tree)
            if used == name
            and line not in imports
            and path.name not in allowed
            and not (path.name == "experiments.py" and verify.lineno <= line <= verify.end_lineno)
        ]
    return found


def test_only_verify_reads_ground_truth():
    # measured runs read their m from the Session's record of the round;
    # only verify's checks compare against the revealed graph
    assert uses_outside_verify("peek_ground_truth") == []


def test_only_verify_checks_the_oracle_limit():
    # the oracle defines its limit and only verify consults the oracle, so
    # no other play or config is refused for it
    assert uses_outside_verify("ORACLE_VERTEX_LIMIT", "oracle.py") == []


def test_teacher_reads_only_the_world_contract():
    # a world is its row table and reveal(); the teacher derives the rest,
    # ground truth's sources included, so a new world implements only these
    (teacher,) = [
        node
        for node in parse(PACKAGE / "teacher.py").body
        if isinstance(node, ast.ClassDef) and node.name == "SyntheticTeacher"
    ]
    # the world is the ``world`` argument and every self attribute bound to it
    held = {
        target.attr
        for node in ast.walk(teacher)
        if isinstance(node, ast.Assign) and getattr(node.value, "id", None) == "world"
        for target in node.targets
        if isinstance(target, ast.Attribute)
    }

    def is_world(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return getattr(node.value, "id", None) == "self" and node.attr in held
        return getattr(node, "id", None) == "world"

    reads = {
        node.attr
        for node in ast.walk(teacher)
        if isinstance(node, ast.Attribute) and is_world(node.value)
    }
    assert reads == {"rows", "row_of", "reveal"}


# Defaulted parameters allowed to have no production caller, with the reason.
NO_PASSER_NEEDED: dict[str, str] = {}


def defaulted_parameters(tree: ast.Module):
    """(qualified name, called name, position, parameter) of each defaulted
    parameter of a public definition and of a public class's ``__init__``.
    ``position`` counts the arguments a call passes positionally, the bound
    ``self`` or ``cls`` aside, and is None for a keyword-only parameter."""
    for qualified, node in public_definitions(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield from _defaulted(f"{qualified}.__init__", node.name, item, bound=True)
        else:
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            yield from _defaulted(qualified, node.name, node, "." in qualified and not static)


def _defaulted(qualified: str, called: str, node: ast.FunctionDef, bound: bool):
    positional = [*node.args.posonlyargs, *node.args.args][bound:]
    for index in range(len(positional) - len(node.args.defaults), len(positional)):
        yield qualified, called, index, positional[index].arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield qualified, called, None, arg.arg


def passes(call: ast.Call, position: int | None, parameter: str) -> bool:
    """Whether ``call`` passes ``parameter``, by keyword or at ``position``;
    an unpacked ``*args`` or ``**kwargs`` counts as passing it."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > position


def called_names(tree: ast.Module):
    """(called name, call) of every call whose function is a name or an
    attribute; a name imported under an alias counts as the imported name,
    and ``cls`` inside a class body as that class."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls":
                    yield node.name, call
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield aliases.get(node.func.id, node.func.id), node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # a default that no production call overrides is a knob only tests turn
    calls = [entry for path in caller_files() for entry in called_names(parse(path))]
    defined, unpassed = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, called, position, parameter in defaulted_parameters(parse(path)):
            key = f"{path.name}:{qualified}:{parameter}"
            defined.add(key)
            passed = any(
                name == called and passes(call, position, parameter) for name, call in calls
            )
            if not passed and key not in NO_PASSER_NEEDED:
                unpassed.append(key)
    assert unpassed == [], "defaulted parameters that only tests pass"
    assert set(NO_PASSER_NEEDED) <= defined


# Defaulted parameters allowed to be passed by every production call, with the reason.
NO_DEFAULT_NEEDED: dict[str, str] = {}


def test_no_default_is_overridden_by_every_production_call():
    # a default that every production call overrides serves only tests:
    # the parameter should be required, and the tests pass it too
    calls = [entry for path in caller_files() for entry in called_names(parse(path))]
    defined, always_passed = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, called, position, parameter in defaulted_parameters(parse(path)):
            key = f"{path.name}:{qualified}:{parameter}"
            defined.add(key)
            passed = [passes(call, position, parameter) for name, call in calls if name == called]
            if passed and all(passed) and key not in NO_DEFAULT_NEEDED:
                always_passed.append(key)
    assert always_passed == [], "defaulted parameters that every production call passes"
    assert set(NO_DEFAULT_NEEDED) <= defined
