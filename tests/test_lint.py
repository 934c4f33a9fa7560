"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fusionwitt"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == ["line 1: os", "line 2: lcm"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def self_calling_closures(source: str) -> list[str]:
    """Functions nested in a function that call themselves by name.

    Such a function's closure cell holds the function, which holds the
    cell: a reference cycle, made anew on every call of the enclosing
    function, that only the garbage collector frees.
    """
    found = []

    def visit(node, path: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (n for n in ast.walk(child) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name))
                if in_function and any(call.func.id == child.name for call in calls):
                    found.append(f"line {child.lineno}: {'.'.join((*path, child.name))}")
                visit(child, (*path, child.name), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, (*path, child.name), False)
            else:
                visit(child, path, in_function)

    visit(ast.parse(source), (), False)
    return found


def test_self_calling_closures_are_found():
    source = (
        "def walk(n):\n"
        "    def down(k):\n"
        "        return 0 if k == 0 else down(k - 1)\n"
        "    def once(k):\n"
        "        return walk(k)\n"
        "    return down(n) + once(n)\n"
    )
    assert self_calling_closures(source) == ["line 2: walk.down"]


def test_recursion_at_module_or_class_level_is_no_closure():
    source = (
        "def down(k):\n"
        "    return 0 if k == 0 else down(k - 1)\n"
        "class Tree:\n"
        "    def down(self, k):\n"
        "        return down(k)\n"
    )
    assert self_calling_closures(source) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_nested_function_calls_itself(path):
    assert self_calling_closures(path.read_text(encoding="utf-8")) == []


def unused_nested_functions(source: str) -> list[str]:
    """Functions nested in a function that it never loads by name.

    Such a function is dead code, and the enclosing function still
    builds it on every call.  A load inside the nested function itself,
    a recursive call, does not count.
    """
    found = []

    def visit(node, path: tuple[str, ...], enclosing) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if enclosing is not None:
                    own = set(map(id, ast.walk(child)))
                    loads = {n.id for n in ast.walk(enclosing)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in own}
                    if child.name not in loads:
                        found.append(f"line {child.lineno}: {'.'.join((*path, child.name))}")
                visit(child, (*path, child.name), child)
            elif isinstance(child, ast.ClassDef):
                visit(child, (*path, child.name), None)
            else:
                visit(child, path, enclosing)

    visit(ast.parse(source), (), None)
    return found


def test_unused_nested_functions_are_found():
    source = (
        "def outer(n):\n"
        "    def called(k):\n"
        "        return k\n"
        "    def passed(k):\n"
        "        return k\n"
        "    def unused(k):\n"
        "        def inner():\n"
        "            return k\n"
        "        return k\n"
        "    def recursive(k):\n"
        "        return recursive(k - 1) if k else 0\n"
        "    return called(n) + sum(map(passed, [n]))\n"
    )
    assert unused_nested_functions(source) == ["line 6: outer.unused", "line 7: outer.unused.inner",
                                               "line 10: outer.recursive"]


def test_module_and_class_level_functions_need_no_caller():
    source = (
        "def helper():\n"
        "    return 1\n"
        "def outer():\n"
        "    class Local:\n"
        "        def method(self):\n"
        "            return 2\n"
        "    return Local\n"
    )
    assert unused_nested_functions(source) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_nested_function_is_used(path):
    assert unused_nested_functions(path.read_text(encoding="utf-8")) == []


SOURCES = sorted(PACKAGE.parent.rglob("*.py"))


def oracle_definitions(source: str) -> list[str]:
    """Functions, classes and variables named *_oracle that source defines.

    An oracle is the independent check a test compares a fast path
    against, and it lives under tests/, not in the package it checks.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if name.endswith("_oracle"):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_oracle_definitions_are_found():
    source = (
        "def dense_reduce_oracle(v):\n"
        "    return v\n"
        "class Table_oracle:\n"
        "    pass\n"
        "for step_oracle in ():\n"
        "    pass\n"
        "cached_oracle = dense_reduce_oracle\n"
    )
    assert oracle_definitions(source) == [
        "line 1: dense_reduce_oracle", "line 3: Table_oracle", "line 5: step_oracle", "line 7: cached_oracle",
    ]


def test_names_that_only_use_or_mention_an_oracle_are_no_definition():
    source = (
        "from checks import factorizes_oracle\n"
        "oracle_limit = 3\n"
        "def run_oracle_check(oracle):\n"
        "    return factorizes_oracle(oracle_limit)\n"
    )
    assert oracle_definitions(source) == []


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(PACKAGE.parent)) for p in SOURCES])
def test_package_defines_no_oracle(path):
    assert oracle_definitions(path.read_text(encoding="utf-8")) == []


ARGPARSE_PRIVATE = {"_subparsers", "_group_actions", "_actions", "_option_string_actions"}


def argparse_private_reads(source: str) -> list[str]:
    """Attributes of argparse's own bookkeeping that source reads.

    They are no part of argparse's interface and may change between
    Python versions; a subparsers action's choices map is.
    """
    reads = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr in ARGPARSE_PRIVATE]
    return [f"line {node.lineno}: .{node.attr}" for node in sorted(reads, key=lambda n: (n.lineno, n.end_col_offset))]


def test_argparse_private_reads_are_found():
    source = (
        "action = parser._subparsers._group_actions[0]\n"
        "flags = {a.dest: a for a in parser._actions}\n"
        "help = parser._option_string_actions['-h']\n"
        "verbs = sub.choices\n"
    )
    assert argparse_private_reads(source) == [
        "line 1: ._subparsers", "line 1: ._group_actions", "line 2: ._actions", "line 3: ._option_string_actions",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_no_argparse_private_attribute(path):
    assert argparse_private_reads(path.read_text(encoding="utf-8")) == []


STREAMS = {"stdout", "stderr"}


def output_writes(source: str) -> list[str]:
    """The print calls in source, and its names of sys.stdout and sys.stderr.

    Only cli.py renders a report and writes it out: every other module
    returns values or raises, so a report is rendered in one place.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((node.lineno, node.col_offset, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append((node.lineno, node.col_offset, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, node.col_offset, f"sys.{a.name}") for a in node.names if a.name in STREAMS]
    return [f"line {line}: {name}" for line, _, name in sorted(found)]


def test_output_writes_are_found():
    source = (
        "import sys\n"
        "from sys import stderr, argv\n"
        "def report(x):\n"
        "    print(x, file=sys.stderr)\n"
        "    sys.stdout.write(str(x))\n"
        "    return argv, sys.exit, self.print, 'print'\n"
    )
    assert output_writes(source) == ["line 2: sys.stderr", "line 4: print", "line 4: sys.stderr",
                                     "line 5: sys.stdout"]


NON_CLI = [path for path in SOURCES if path.name != "cli.py"]


@pytest.mark.parametrize("path", NON_CLI, ids=[str(p.relative_to(PACKAGE.parent)) for p in NON_CLI])
def test_only_cli_writes_output(path):
    assert output_writes(path.read_text(encoding="utf-8")) == []


def metric_group_constructions(source: str) -> list[str]:
    """The calls of MetricGroup in source, by its name or as an attribute.

    metric_group.py builds every metric group a verb sees through one
    integer constructor, which checks the invariant-factor chain, the
    congruences and the element cap; a group built anywhere else would
    skip those checks.
    """
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "MetricGroup":
                calls.append((node.lineno, node.col_offset, ast.unparse(node.func)))
    return [f"line {line}: {name}" for line, _, name in sorted(calls)]


def test_metric_group_constructions_are_found():
    source = (
        "from .metric_group import MetricGroup\n"
        "def build(orders, gram):\n"
        "    a = MetricGroup(orders, 1, gram, True)\n"
        "    b = metric_group.MetricGroup(orders, 1, gram, True)\n"
        "    return a, b, isinstance(a, MetricGroup), metric_group.metric_group(orders, ())\n"
    )
    assert metric_group_constructions(source) == ["line 3: MetricGroup", "line 4: metric_group.MetricGroup"]


NOT_METRIC_GROUP = [path for path in SOURCES if path.name != "metric_group.py"]


@pytest.mark.parametrize("path", NOT_METRIC_GROUP, ids=[str(p.relative_to(PACKAGE.parent)) for p in NOT_METRIC_GROUP])
def test_only_metric_group_builds_a_metric_group(path):
    assert metric_group_constructions(path.read_text(encoding="utf-8")) == []
