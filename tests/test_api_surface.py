"""Every module-level function and class in src/srifkit is used by src/,
every dataclass field is read, and every kernel counts its FLOPs.

A definition that only tests, demos or the benchmark call is surface the
engine does not need: it belongs beside the other references in tests/, or
nowhere. A name counts as used when another place in src/ loads it,
imports it or reads it as an attribute. Exempt are the console entry point
`cli.main` and the functions the benchmark's tracer rebinds by name
(`TARGETS` in `perfbench/spans.py`). A field of a `@dataclass` or a
`NamedTuple` in src/ counts as read when src/, perfbench/ or demos/ reads
an attribute of its name; one that only tests read is carried for
nothing. A kernel has no uncounted mode: its `flops` is never compared
with None, and a defaulted `flops` parameter defaults to `UNCOUNTED`, the
counter that discards.
No re-embedding goes through numpy's fancy-index builders `np.ix_` or
`np.r_`: a block copy per run writes the same bits at a fraction of the
interpreter cost. The engine and its filters keep the square-root factor
as LAPACK leaves it: no memory-order conversion (`np.asfortranarray`,
`np.ascontiguousarray`) and no row-sign normalization appears in
`filters.py` or `vins.py`. PC-SRIF's SPAI block is six component
triangles: `filters.py` caches no mask (`functools.lru_cache`) and takes
no slice with step 6, the stride of the interleaved 6l x 6l triangle.
The estimator's phases make no diagnostics: `VinsEstimator.__init__`,
`_propagate`, `_marginalize` and `_update` name neither the record nor its
stride or worker, which `run()` alone owns.
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
    `@dataclass` or `NamedTuple` class."""
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(m, ast.Name)
                    and m.id in ("dataclass", "NamedTuple")
                    for m in [*node.decorator_list, *node.bases]):
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
            "vins.FilterConfig.window", "sim.ScenarioSpec.seed",
            "models.Projection.jac", "state.Layout.n_poses"} <= found


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


def interleaved_spai(trees):
    """(where, what) of each `lru_cache` and each slice with step 6 in the
    (module, syntax tree) pairs."""
    for module, tree in trees:
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if (_name(node) == "lru_cache" or isinstance(node, ast.alias)
                    and node.name.rsplit(".", 1)[-1] == "lru_cache"):
                yield where, "lru_cache"
            elif (isinstance(node, ast.Slice)
                  and isinstance(node.step, ast.Constant)
                  and node.step.value == 6):
                yield where, "a slice with step 6"


def test_the_spai_block_is_six_component_triangles():
    filters = [(m, t) for m, t in modules() if m == "filters"]
    assert len(filters) == 1
    assert list(interleaved_spai(filters)) == []


def test_the_walk_sees_interleaved_spai():
    # the check above is not vacuous
    tree = ast.parse("import functools\nfrom functools import lru_cache\n"
                     "@functools.lru_cache(maxsize=8)\ndef mask(p):\n"
                     "    return inv[k::6, k::6], x[::2], y[1:7]\n")
    assert sorted(interleaved_spai([("snippet", tree)])) == [
        ("snippet:2", "lru_cache"), ("snippet:3", "lru_cache"),
        ("snippet:5", "a slice with step 6"),
        ("snippet:5", "a slice with step 6")]


PHASES = ("__init__", "_propagate", "_marginalize", "_update")
DIAGNOSTICS = ("SVD_STRIDE", "record_conditioning", "_condition", "_snapshot",
               "ThreadPoolExecutor", "submit")


def phase_methods(tree):
    """Each of `VinsEstimator`'s methods in PHASES, by name."""
    return {fn.name: fn for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "VinsEstimator"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name in PHASES}


def diagnostics_in_phases(tree):
    """(method, name) of each name in DIAGNOSTICS that a phase loads or
    reads as an attribute."""
    for method, fn in phase_methods(tree).items():
        for node in ast.walk(fn):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and _name(node) in DIAGNOSTICS):
                yield method, _name(node)


def test_the_phases_make_no_diagnostics():
    vins = dict(modules())["vins"]
    assert set(phase_methods(vins)) == set(PHASES)
    assert list(diagnostics_in_phases(vins)) == []


def test_the_walk_sees_diagnostics_in_phases():
    # the check above is not vacuous
    tree = ast.parse(
        "class VinsEstimator:\n"
        "    def __init__(self):\n"
        "        self.pool = ThreadPoolExecutor(1)\n"
        "    def _update(self, frame):\n"
        "        if frame.index % SVD_STRIDE == 0:\n"
        "            self.pool.submit(self._condition, *self._snapshot(frame))\n"
        "    def run(self):\n"
        "        record_conditioning()\n")
    assert sorted(diagnostics_in_phases(tree)) == [
        ("__init__", "ThreadPoolExecutor"), ("_update", "SVD_STRIDE"),
        ("_update", "_condition"), ("_update", "_snapshot"),
        ("_update", "submit")]
