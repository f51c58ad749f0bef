"""Engine-invariant lint pass over the ``repro`` sources.

The engine's reliability story rests on a few repository-wide invariants that
ordinary tests cannot enforce (they are properties of the *source*, not of any
particular execution).  This tool walks the Python AST of every file under the
checked trees and reports violations:

``E100`` — bare ``assert`` outside tests.  Asserts vanish under ``python -O``
    and raise untyped ``AssertionError`` instead of the engine's typed error
    hierarchy; engine code must raise :class:`ExecutionError` (or a subclass)
    explicitly.

``E200`` — broad exception swallowing.  An ``except`` clause catching
    ``Exception``/``BaseException`` (or a bare ``except:``) whose handler body
    never re-raises can silently swallow :class:`ExecutionError` subclasses,
    turning typed engine failures into wrong answers.  Handlers that re-raise
    (any ``raise`` statement in the handler body) are fine.  Deliberate
    swallow sites annotate the ``except`` line with
    ``# lint: allow-broad-except`` and a rationale in surrounding comments.

``E300`` — wall-clock or randomness in ``relalg/``.  The relational engine
    must be deterministic and virtual-time only: ``time.time()``,
    ``time.monotonic()``, ``time.perf_counter()`` and any use of the
    ``random`` module inside ``src/repro/relalg`` break replay/differential
    testing and the simulated-cost model.

``E400`` — a nested function in ``relalg/`` that calls itself by name.  It
    reaches itself through its own closure cell, so every call of the
    enclosing function leaves a reference cycle (the closure, its cells and
    everything they hold) that only the cyclic garbage collector frees.  On
    the statement path that is once per execution.  Recurse through a
    module-level function or a method with explicit arguments instead, or
    build the closure once per plan (see ``planner._level_loops``).

``E500`` — an unused module-level import.  A name an import statement at
    the top level of a module binds, and that the module never reads, is
    dead weight on the import path and hides the module's real
    dependencies.  A package's ``__init__.py`` (which imports to re-export),
    names listed in ``__all__`` and names read only inside an annotation,
    quoted or not, are exempt; ``from __future__`` and star imports are not
    checked.  The check resolves scopes as Python does (:mod:`symtable`):
    only a read that resolves to the module global counts, so a function's
    local of the same name does not hide an unused import.

Run as ``python -m tools.lint_engine [paths...]`` (default: ``src/repro``).
Exit status 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import ast
import symtable
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple

ALLOW_BROAD_EXCEPT_PRAGMA = "lint: allow-broad-except"

_E300_TIME_CALLS = {"time", "monotonic", "perf_counter", "process_time"}


class Violation(NamedTuple):
    path: Path
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_test_path(path: Path) -> bool:
    parts = {part.lower() for part in path.parts}
    if "tests" in parts or "test" in parts:
        return True
    return path.name.startswith("test_") or path.name == "conftest.py"


def _is_relalg_path(path: Path) -> bool:
    return "relalg" in path.parts


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception`` and ``except BaseException``
    (including tuple forms that contain either)."""
    broad = {"Exception", "BaseException"}

    def is_broad_name(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in broad

    if handler.type is None:
        return True
    if is_broad_name(handler.type):
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(is_broad_name(element) for element in handler.type.elts)
    return False


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """True when any statement inside the handler body is a ``raise``."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _line_has_pragma(source_lines: List[str], lineno: int) -> bool:
    if 1 <= lineno <= len(source_lines):
        return ALLOW_BROAD_EXCEPT_PRAGMA in source_lines[lineno - 1]
    return False


def _imported_random_aliases(tree: ast.Module) -> set:
    """Names bound to the ``random`` module or its members at import time."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _nested_functions(node: ast.AST, in_function: bool = False):
    """Every function defined in the body of another function (a class body
    is a scope of its own: its methods are not closures)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _nested_functions(child, False)
            continue
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function and in_function:
            yield child
        yield from _nested_functions(
            child, in_function or is_function or isinstance(child, ast.Lambda)
        )


def _calls_itself(function: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == function.name
        for statement in function.body
        for node in ast.walk(statement)
    )


def _module_level_imports(tree: ast.Module):
    """``(name, line)`` of every name an import statement at the top level
    of the module binds."""
    for statement in tree.body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                yield alias.asname or alias.name.split(".")[0], statement.lineno
        elif isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
            for alias in statement.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, statement.lineno


def _global_reads(scope: symtable.SymbolTable) -> Iterator[str]:
    """The names ``scope`` and the scopes nested in it read from the module's
    globals (a module-level name is a global of the module scope itself)."""
    for symbol in scope.get_symbols():
        if symbol.is_referenced() and symbol.is_global():
            yield symbol.get_name()
    for child in scope.get_children():
        yield from _global_reads(child)


def _names_read(tree: ast.Module, scopes: symtable.SymbolTable) -> set:
    """Every module-level name the module reads, the names inside its
    annotations, quoted or not (``x: Plan``, ``List["Plan"]``), and the
    entries of ``__all__``."""
    names = set(_global_reads(scopes))
    # Annotations and the value of ``__all__``: every name in them counts as
    # read, and so does every name a string in them reads when parsed as an
    # expression.
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            quoted.append(node.value)
    for expression in quoted:
        for node in ast.walk(expression):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)
                )
    return names


def _lint_file(path: Path) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
        scopes = symtable.symtable(source, str(path), "exec")
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "E000", f"syntax error: {exc.msg}")]
    source_lines = source.splitlines()
    violations: List[Violation] = []

    in_tests = _is_test_path(path)
    in_relalg = _is_relalg_path(path)
    random_aliases = _imported_random_aliases(tree) if in_relalg else set()

    for node in ast.walk(tree):
        if isinstance(node, ast.Assert) and not in_tests:
            violations.append(
                Violation(
                    path, node.lineno, "E100",
                    "bare assert in engine code (vanishes under -O; raise a "
                    "typed engine error instead)",
                )
            )
        elif isinstance(node, ast.ExceptHandler) and _catches_broadly(node):
            if _handler_reraises(node):
                continue
            if _line_has_pragma(source_lines, node.lineno):
                continue
            violations.append(
                Violation(
                    path, node.lineno, "E200",
                    "broad except swallows exceptions (may hide "
                    "ExecutionError subclasses); re-raise or annotate with "
                    f"'# {ALLOW_BROAD_EXCEPT_PRAGMA}'",
                )
            )
        elif in_relalg and isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _E300_TIME_CALLS
            ):
                violations.append(
                    Violation(
                        path, node.lineno, "E300",
                        f"wall-clock call time.{func.attr}() in relalg/ "
                        "(engine must stay deterministic/virtual-time)",
                    )
                )
        if in_relalg and isinstance(node, ast.Name) and node.id in random_aliases:
            violations.append(
                Violation(
                    path, node.lineno, "E300",
                    "use of the random module in relalg/ (engine must stay "
                    "deterministic)",
                )
            )
    if not in_tests and path.name != "__init__.py":
        read = _names_read(tree, scopes)
        for name, line in _module_level_imports(tree):
            if name not in read:
                violations.append(
                    Violation(
                        path, line, "E500",
                        f"{name!r} is imported but never used (delete the "
                        "import, or list the name in __all__ if it is "
                        "re-exported)",
                    )
                )
    if in_relalg:
        for function in _nested_functions(tree):
            if _calls_itself(function):
                violations.append(
                    Violation(
                        path, function.lineno, "E400",
                        f"nested function {function.name!r} calls itself by "
                        "name: it holds itself through its closure cell, so "
                        "each call of the enclosing function leaves a "
                        "reference cycle; recurse at module or method level "
                        "with explicit arguments",
                    )
                )
    return violations


def _python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[Path]) -> List[Violation]:
    violations: List[Violation] = []
    for path in _python_files(paths):
        violations.extend(_lint_file(path))
    return violations


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    targets = [Path(arg) for arg in args] or [Path("src/repro")]
    missing = [target for target in targets if not target.exists()]
    if missing:
        for target in missing:
            print(f"lint_engine: path not found: {target}", file=sys.stderr)
        return 2
    violations = lint_paths(targets)
    for violation in violations:
        print(violation.render())
    checked = len(_python_files(targets))
    if violations:
        print(f"lint_engine: {len(violations)} violation(s) in {checked} file(s)")
        return 1
    print(f"lint_engine: clean ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
