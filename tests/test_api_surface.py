"""Every module-level function and class in src/srifkit is used by src/,
every dataclass field is read, and every kernel counts its FLOPs.

A definition that only tests, demos or the benchmark call is surface the
engine does not need: it belongs beside the other references in tests/, or
nowhere. A name counts as used when another place in src/ loads it,
imports it or reads it as an attribute. Exempt are the console entry point
`cli.main` and the functions the benchmark's tracer rebinds by name
(`TARGETS` in `perfbench/spans.py`). A field of a `@dataclass` in src/
counts as read when src/, perfbench/ or demos/ reads an attribute of its
name; one that only tests read is carried for nothing. A kernel has no
uncounted mode: its `flops` is never compared with None, and a defaulted
`flops` parameter defaults to `UNCOUNTED`, the counter that discards.
No re-embedding goes through numpy's fancy-index builders `np.ix_` or
`np.r_`: a block copy per run writes the same bits at a fraction of the
interpreter cost. The engine and its filters keep the square-root factor
as LAPACK leaves it: no memory-order conversion (`np.asfortranarray`,
`np.ascontiguousarray`) and no row-sign normalization appears in
`filters.py` or `vins.py`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import srifkit

SRC = Path(srifkit.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
SPANS = REPO / "perfbench" / "spans.py"


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


def dataclass_fields():
    """(module, class, field) of each annotated field of a module-level
    `@dataclass` class."""
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "dataclass"
                    for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        yield module, node.name, stmt.target.id


def attributes_read():
    """Every attribute name src/, perfbench/ and demos/ read."""
    read = set()
    for path in [*SRC.glob("*.py"), *(REPO / "perfbench").glob("*.py"),
                 *(REPO / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    return read


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


def test_every_dataclass_field_is_read():
    read = attributes_read()
    unread = [f"{module}.{cls}.{name}"
              for module, cls, name in dataclass_fields() if name not in read]
    assert unread == []


def test_the_walk_sees_the_fields():
    found = {f"{module}.{cls}.{name}"
             for module, cls, name in dataclass_fields()}
    assert {"linalg.FlopCounter.count", "vins.RunResult.flops",
            "vins.FilterConfig.window", "sim.ScenarioSpec.seed"} <= found


def _name(node):
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def flops_modes():
    """(where, what) of each comparison of a `flops` with None in src/, and
    the default of each defaulted `flops` parameter."""
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if ("flops" in map(_name, operands) and any(
                        isinstance(x, ast.Constant) and x.value is None
                        for x in operands)):
                    yield f"{module}:{node.lineno}", "compares flops with None"
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                params = (positional[len(positional) - len(a.defaults):]
                          + a.kwonlyargs)
                for arg, default in zip(params, a.defaults + a.kw_defaults):
                    if arg.arg == "flops" and default is not None:
                        yield (f"{module}.{getattr(node, 'name', 'lambda')}",
                               f"defaults flops to {ast.unparse(default)}")


def test_flops_are_always_counted():
    modes = list(flops_modes())
    assert [m for m in modes if m[1] != "defaults flops to UNCOUNTED"] == []
    # the kernels are seen, so the check is not vacuous
    assert {"linalg.householder_qr", "filters.kf_update",
            "filters.spai_inverse"} <= {where for where, _ in modes}


def index_builders(trees):
    """(where, what) of each use of numpy's `ix_` or `r_` in the
    (module, syntax tree) pairs."""
    for module, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("ix_", "r_")
                    and _name(node.value) in ("np", "numpy")):
                yield f"{module}:{node.lineno}", f"np.{node.attr}"
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and {a.name for a in node.names} & {"ix_", "r_"}):
                yield f"{module}:{node.lineno}", "imports ix_ or r_"


def test_no_fancy_index_builders():
    assert list(index_builders(modules())) == []


def test_the_walk_sees_index_builders():
    # the check above is not vacuous
    tree = ast.parse("import numpy as np\nfrom numpy import r_\n"
                     "P[np.ix_(k, k)] = np.r_[0:3, 5]\n")
    assert sorted(index_builders([("snippet", tree)])) == [
        ("snippet:2", "imports ix_ or r_"), ("snippet:3", "np.ix_"),
        ("snippet:3", "np.r_")]


CONVERSIONS = ("asfortranarray", "ascontiguousarray")


def factor_rewrites(trees):
    """(where, what) of each memory-order conversion through numpy and each
    name that mentions sign normalization in the (module, syntax tree)
    pairs."""
    for module, tree in trees:
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr in CONVERSIONS
                    and _name(node.value) in ("np", "numpy")):
                yield where, f"np.{node.attr}"
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and {a.name for a in node.names} & set(CONVERSIONS)):
                yield where, "imports a conversion"
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                    else "")
            if "sign_normalize" in name:
                yield where, name


def test_the_factor_stays_as_lapack_leaves_it():
    engine = [(m, t) for m, t in modules() if m in ("filters", "vins")]
    assert [m for m, _ in engine] == ["filters", "vins"]
    assert list(factor_rewrites(engine)) == []


def test_the_walk_sees_factor_rewrites():
    # the check above is not vacuous
    tree = ast.parse("import numpy as np\nfrom numpy import asfortranarray\n"
                     "R = np.ascontiguousarray(np.asfortranarray(R))\n"
                     "linalg.sign_normalize_rows(R)\n"
                     "def sign_normalize(R):\n    pass\n")
    assert sorted(factor_rewrites([("snippet", tree)])) == [
        ("snippet:2", "imports a conversion"),
        ("snippet:3", "np.ascontiguousarray"), ("snippet:3", "np.asfortranarray"),
        ("snippet:4", "sign_normalize_rows"), ("snippet:5", "sign_normalize")]
