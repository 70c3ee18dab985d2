"""The package's public surface: every exported name resolves, and every
function the package defines is reached from somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import hilbcalc
from test_tracing_targets import tracing_targets

SRC = Path(hilbcalc.__file__).resolve().parent
ROOT = SRC.parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def test_every_exported_name_resolves():
    assert len(set(hilbcalc.__all__)) == len(hilbcalc.__all__)
    assert [n for n in hilbcalc.__all__ if not hasattr(hilbcalc, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from hilbcalc import *", namespace)
    assert set(hilbcalc.__all__) <= namespace.keys()


def definitions():
    """(module, qualified name, definition node) of every module-level
    function and class method in the package, dunders excluded."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions):
                yield path.stem, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("__"):
                        yield path.stem, f"{node.name}.{item.name}", item


def identifiers(tree: ast.AST) -> Counter:
    """Every name a tree reads or writes: Name ids, Attribute attrs and
    string constants that are identifiers, as getattr and the tracer use."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def documented_names() -> set[str]:
    """The words of every inline code span in README.md and docs/*.md,
    outside fenced blocks and outside the "API change:" paragraphs, which
    name what was deleted."""
    words: set[str] = set()
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"), flags=re.S)
        for paragraph in re.split(r"\n\s*\n", text):
            if paragraph.lstrip().startswith("API change:"):
                continue
            for span in re.findall(r"`([^`\n]+)`", paragraph):
                words.update(re.findall(r"\w+", span))
    return words


def test_deleted_names_do_not_count_as_documented():
    # the "API change:" paragraphs name methods that are gone; a later
    # test-only method of the same name must not pass the guard below
    deleted = {"monic", "replacement", "leading_monomial", "division_row", "old_index"}
    assert deleted.isdisjoint(documented_names())


def test_every_function_is_named_outside_its_definition():
    # a function no code in the package, its scripts or its benchmark names
    # outside its own body, and that neither the exports, the tracer nor
    # the documentation name, is code only the tests can reach; the dsl
    # statement handlers are looked up by a built string
    used: Counter = Counter()
    for path in [*SRC.glob("*.py"), *SCRIPTS.glob("*.py"), *PERFBENCH.glob("*.py")]:
        used.update(identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    documented = documented_names()
    traced = {(module, attribute) for module, attribute, _ in tracing_targets()}
    unnamed = [
        f"{module}.{qualified}"
        for module, qualified, node in definitions()
        if used[node.name] == identifiers(node)[node.name]
        and node.name not in documented
        and node.name not in hilbcalc.__all__
        and (module, qualified) not in traced
        and not (module == "dsl" and node.name.startswith("_parse_"))
    ]
    assert unnamed == []
