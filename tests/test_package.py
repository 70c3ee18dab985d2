"""The package's public surface: every exported name resolves, and every
function the package defines is reached from somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import hilbcalc
from test_tracing_targets import tracing_targets

SRC = Path(hilbcalc.__file__).resolve().parent
SCRIPTS = SRC.parent.parent / "scripts"


def test_every_exported_name_resolves():
    assert len(set(hilbcalc.__all__)) == len(hilbcalc.__all__)
    assert [n for n in hilbcalc.__all__ if not hasattr(hilbcalc, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from hilbcalc import *", namespace)
    assert set(hilbcalc.__all__) <= namespace.keys()


def definitions():
    """(module, qualified name, name) of every module-level function and
    class method in the package, dunders excluded."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions):
                yield path.stem, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("__"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_function_is_named_outside_its_definition():
    # a name the package writes only where it defines it, and that its
    # scripts, its exports and the benchmark's tracer never name, is code
    # only the tests can reach; the dsl statement handlers are looked up
    # by name
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in SRC.glob("*.py"))))
    script_words = set(re.findall(r"\w+", "\n".join(p.read_text() for p in SCRIPTS.iterdir())))
    traced = {(module, attribute) for module, attribute, _ in tracing_targets()}
    unnamed = [
        f"{module}.{qualified}"
        for module, qualified, name in definitions()
        if words[name] == 1
        and name not in script_words
        and name not in hilbcalc.__all__
        and (module, qualified) not in traced
        and not (module == "dsl" and name.startswith("_parse_"))
    ]
    assert unnamed == []
