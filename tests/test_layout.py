"""Every function, class and method under ``src/mitlplan`` is used there.

A definition counts as used when its name is read somewhere in the package
outside the definition itself, as a plain name or as an attribute.  Imports
do not count, and neither does a recursive call.  A helper that only the
tests call belongs in ``tests/oracles.py`` or in the test that uses it.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mitlplan"

# name -> why it stays although nothing in the package reads it
ALLOWED = {
    "unroll": "bench/ and tests/oracles.py read it",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions_and_uses():
    """Each defined name with where it is defined, and every name read
    outside a definition of that name."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()

    def visit(node, path, enclosing):
        if isinstance(node, _DEFINITIONS):
            defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            if node.id not in enclosing:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr not in enclosing:
                used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path,
              frozenset())
    return defined, used


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_used_in_the_package():
    defined, used = _definitions_and_uses()
    unused = {name: places for name, places in defined.items()
              if name not in used and name not in ALLOWED
              and not _is_dunder(name)}
    assert not unused, f"defined but never used under src/mitlplan: {unused}"


def test_the_allowlist_names_only_unused_definitions():
    defined, used = _definitions_and_uses()
    for name in ALLOWED:
        assert name in defined, f"{name} is no longer defined"
        assert name not in used, f"{name} is used now; drop it from ALLOWED"


def _enclosing(predicate, kind=ast.ClassDef):
    """The innermost definition of ``kind`` around each node under the
    package that satisfies ``predicate``, as ``module.name``, or ``None``
    outside every such definition."""
    found = []

    def visit(node, path, owner):
        if isinstance(node, kind):
            owner = f"{path.stem}.{node.name}"
        if predicate(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    return found


def _calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_one_product_steps_automata_and_builds_product_states():
    steps = _enclosing(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "step")
    builds = _enclosing(_calls("ProductState"))
    assert steps == ["product.AutomatonProduct"]
    assert builds and set(builds) == {"product.AutomatonProduct"}


def test_one_pass_of_the_search_starts_from_the_initial_states():
    # find_accepting_lasso and live_states are the same SCC pass
    readers = [owner for owner in _enclosing(
        lambda node: (isinstance(node, ast.Attribute)
                      and node.attr == "initial_states"), ast.FunctionDef)
        if owner is not None and owner.startswith("search.")]
    assert readers == ["search._components"]


def test_the_products_import_nothing_from_the_search():
    # solve runs the live-state pass and hands the team layer its sets
    tree = ast.parse((PACKAGE / "product.py").read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [getattr(node, "module", None) or ""] + [
                    alias.name for alias in node.names]:
                parts.update(name.split("."))
    assert "search" not in parts


def test_one_compiler_decides_every_boolean_formula():
    # labels, guards, invariants and the evaluator's propositional
    # subformulas are all decided by the code that compile_formula builds
    assert _enclosing(_calls("eval"), ast.FunctionDef) == \
        ["mitl.compile_formula"]


def test_every_exception_of_the_package_is_an_input_error():
    # apart from a search that ran out of budget and a plan that fails its
    # re-validation, which is a bug
    import importlib
    from mitlplan.core import InputError
    others = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mitlplan.{path.stem}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__
                    and not issubclass(value, InputError)):
                others.add(f"{path.stem}.{name}")
    assert others == {"search.ExplorationLimitError", "search.ProjectionError"}


def test_no_dataclass_declares_a_private_field():
    # a cache is an attribute set in __post_init__: as a field it would be
    # a constructor parameter, and compared by ==
    import dataclasses
    import importlib
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mitlplan.{path.stem}")
        for name, value in vars(module).items():
            if (dataclasses.is_dataclass(value) and isinstance(value, type)
                    and value.__module__ == module.__name__):
                private += [f"{path.stem}.{name}.{item.name}"
                            for item in dataclasses.fields(value)
                            if item.name.startswith("_")]
    assert private == []


def test_one_writer_indents_json():
    # with indent= json encodes in pure Python; cli.indented_json writes
    # the same bytes
    indenting = _enclosing(
        lambda node: (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("dump", "dumps")
                      and any(keyword.arg == "indent"
                              for keyword in node.keywords)),
        ast.FunctionDef)
    assert indenting == []


def _caught(handler: ast.ExceptHandler) -> set:
    """The names of the exception classes ``handler`` catches."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(handler.type)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_main_catches_input_errors_only():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert [_caught(node) for node in ast.walk(main)
            if isinstance(node, ast.ExceptHandler)] == [{"InputError"}]
    # ValueError would turn a bug in the program into "invalid input"
    assert not any("ValueError" in _caught(node) for node in ast.walk(tree)
                   if isinstance(node, ast.ExceptHandler))


def _holds_successor_lists(value, depth=2) -> bool:
    """Whether ``value``, or a container in it down to ``depth`` levels,
    is a non-empty sequence of ``(weight, state)`` pairs."""
    from mitlplan.product import ProductState, TeamState
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (tuple, list, set, frozenset)) or not value:
        return False
    if all(isinstance(item, tuple) and len(item) == 2
           and type(item[0]) is int
           and isinstance(item[1], (ProductState, TeamState))
           for item in value):
        return True
    return depth > 0 and any(_holds_successor_lists(item, depth - 1)
                             for item in value)


def test_only_the_local_layer_memoizes_successors(monkeypatch):
    from mitlplan import cli
    from mitlplan.product import GlobalProduct
    defined, _ = _definitions_and_uses()
    assert "_MemoizedGraph" not in defined
    assert "_compute_successors" not in defined
    built = []

    class Recorded(GlobalProduct):
        def __init__(self, team, automaton):
            super().__init__(team, automaton)
            built.append(self)

    monkeypatch.setattr(cli, "GlobalProduct", Recorded)
    problem = cli.load_problem(PACKAGE.parent.parent / "fixtures"
                               / "grid_meet.json")
    assert cli.solve(problem).status == "success"
    (global_product,) = built
    team = global_product.graph
    for layer in (global_product, team):
        holding = [name for name, value in vars(layer).items()
                   if _holds_successor_lists(value)]
        assert not holding, f"{type(layer).__name__} keeps {holding}"
    assert all(any(_holds_successor_lists(value)
                   for value in vars(local).values())
               for local in team.locals)


def test_every_module_parses_at_the_python_floor():
    # the stdlib calls the floor needs are checked only by reading the code
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=(\d+)\.(\d+)[.\d]*"$',
                          text, re.M)
    version = tuple(int(part) for part in floor)
    with pytest.raises(SyntaxError):  # except* is 3.11 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=version)
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=version)


def test_the_model_constructors_only_build():
    # a model from outside the program is checked once, by the reader that
    # takes it in; the automata and systems the program builds are well formed
    builders = ["tba.TimedBuchiAutomaton.__post_init__",
                "wts.WeightedTransitionSystem.__post_init__",
                "wts.grid_system", "wts.collective_word_of"]
    raises = {}  # module.function or module.class.method -> whether it raises
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(path.stem, tree)] + [
            (f"{path.stem}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for prefix, scope in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef):
                    raises[f"{prefix}.{node.name}"] = any(
                        isinstance(inner, ast.Raise) for inner in ast.walk(node))
    assert {name: raises.get(name) for name in builders} == dict.fromkeys(
        builders, False)


def test_an_accepted_command_line_loads_no_argparse():
    # cli.main reads a plain command line from its table; argparse is
    # imported only for help texts and refusals
    import subprocess
    import sys
    script = "\n".join([
        "import io, sys",
        "from contextlib import redirect_stdout",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "from mitlplan import cli",
        "with redirect_stdout(io.StringIO()):",
        "    code = cli.main(['translate', 'F p', '--alphabet', 'p,q'])",
        "print(code, *(name in sys.modules",
        "              for name in ('argparse', 'gettext', 'locale')))"])
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False", "False", "False"]


def test_the_evaluator_decides_through_its_tables_alone():
    # the quantifier tables are the evaluator's one decider: no second
    # judge reads a temporal node one position at a time
    temporal = {"Next", "Eventually", "Always", "Until"}
    tree = ast.parse((PACKAGE / "mitl.py").read_text())
    evaluator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "_Evaluator")
    scopes = [(f"_Evaluator.{node.name}", node) for node in evaluator.body
              if isinstance(node, ast.FunctionDef)]
    scopes += [(node.name, node) for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(inner, ast.Name) and inner.id == "_Evaluator"
                       for inner in ast.walk(node))]
    reads = {}  # scope -> the temporal kinds it reads
    for name, scope in scopes:
        kinds = {node.id for node in ast.walk(scope)
                 if isinstance(node, ast.Name) and node.id in temporal}
        if kinds:
            reads[name] = kinds
    assert reads.keys() <= {"_Evaluator.table", "_Evaluator._window",
                            "first_violation"}, reads
    assert {"_Evaluator.table", "_Evaluator._window"} <= reads.keys()
    assert reads.get("first_violation", set()) <= {"Always"}
