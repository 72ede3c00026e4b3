"""Every module-level function and class in src/srifkit is used by src/.

A definition that only tests, demos or the benchmark call is surface the
engine does not need: it belongs beside the other references in tests/, or
nowhere. A name counts as used when another place in src/ loads it,
imports it or reads it as an attribute. Exempt are the console entry point
`cli.main` and the functions the benchmark's tracer rebinds by name
(`TARGETS` in `perfbench/spans.py`).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import srifkit

SRC = Path(srifkit.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def modules():
    """(module, syntax tree) of each file of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def definitions():
    """(module, name) of each module-level def and class."""
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name


def used_names():
    """Every name src/ loads, imports or reads as an attribute, other than
    inside the module-level definition of that name (a recursive call or a
    class naming itself does not count)."""
    used = set()
    for _, tree in modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != getattr(top, "name", None):
                    used.add(name)
    return used


def span_targets():
    """(defining module, name) of each function the benchmark rebinds."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.TARGETS:
        fn = getattr(importlib.import_module(modname), attr)
        yield fn.__module__.rsplit(".", 1)[-1], fn.__name__


def test_every_definition_in_src_is_used_by_src():
    exempt = set(span_targets()) | {("cli", "main")}
    used = used_names()
    unused = [f"{module}.{name}" for module, name in definitions()
              if name not in used and (module, name) not in exempt]
    assert unused == []


def test_the_walk_sees_the_definitions():
    # the kernels, the engine and the entry point, so the check above
    # is not vacuous
    found = {f"{module}.{name}" for module, name in definitions()}
    assert {"linalg.householder_qr", "filters.marginalize_block",
            "vins.VinsEstimator", "cli.main"} <= found
