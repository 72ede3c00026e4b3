"""Spans around the calls into srifkit's public functions.

`instrument(tracer)` rebinds each function in `TARGETS` at the name its
caller looks up, so the program itself is not edited. Every call then
records a span (name, start, end, parent, frame index) in the tracer's
in-memory lists; `FlopCounter.add` is only counted, because the square-root
backends call it about half a million times per minute of data and a span
each would swamp the numbers being measured. The original bindings are put
back when the `with` block ends, also on error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _rows(args):
    """Rows and columns of an update's Jacobian, the second argument."""
    return args[1].shape


def _scalars(args):
    """Number of scalar states marginalized."""
    return len(args[1]), 0


# (module whose attribute the caller looks up, attribute, (amount, width)
# of work per call). The metric name is the defining module and the
# function name, as in `linalg.householder_qr`, wherever the binding lives.
TARGETS = (
    # the engine reaches these through the `filters` module, and filters'
    # own functions call each other through its globals
    ("srifkit.filters", "pcsrif_update", _rows),
    ("srifkit.filters", "srif_update_partitioned", _rows),
    ("srifkit.filters", "kf_update", _rows),
    ("srifkit.filters", "kf_propagate", None),
    ("srifkit.filters", "srif_augment", None),
    ("srifkit.filters", "marginalize_block", _scalars),
    ("srifkit.filters", "build_preconditioner", None),
    ("srifkit.filters", "apply_preconditioner_inverse", None),
    ("srifkit.filters", "apply_preconditioner_right", None),
    ("srifkit.filters", "preconditioner_solve_vec", None),
    ("srifkit.filters", "householder_qr", None),
    ("srifkit.filters", "solve_upper", None),
    ("srifkit.filters", "form_normal_half", None),
    ("srifkit.filters", "cholesky_upper", None),
    ("srifkit.filters", "givens_triangularize", None),
    # VinsEstimator._reanchor imports this one inside the method
    ("srifkit.linalg", "givens_triangularize", None),
    # names vins imports directly
    ("srifkit.vins", "imu_transition", None),
    ("srifkit.vins", "project_feature", None),
    ("srifkit.vins", "triangulate_inverse_depth", None),
    ("srifkit.vins", "msckf_nullspace_project", None),
    ("srifkit.vins", "reanchor_feature", None),
    ("srifkit.vins", "record_conditioning", None),
    ("srifkit.vins", "boxplus", None),
    ("srifkit.vins", "layout_of", None),
)


def layer_name(fn):
    """`filters.pcsrif_update` for srifkit.filters.pcsrif_update."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans of one traced pass, kept in parallel lists until written out."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []     # index of the enclosing span, -1 at the root
        self.frame = []      # frame index current when the span opened
        self.failed = []     # the call raised
        self.amount = []     # rows or scalars handed to the call, else 0
        self.width = []      # columns of the update Jacobian, else 0
        self.flops = []      # change of the FlopCounter passed in, else 0
        self.frame_index = -1
        self.flop_adds = 0
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.frame.append(self.frame_index)
        self.failed.append(False)
        self.amount.append(0)
        self.width.append(0)
        self.flops.append(0)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def save(self, path):
        """Write the spans as arrays (names by index into `name_table`)."""
        table = sorted(set(self.names))
        ids = {nm: k for k, nm in enumerate(table)}
        np.savez_compressed(
            path, name_table=np.array(table),
            name=np.array([ids[nm] for nm in self.names], dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            frame=np.array(self.frame, dtype=np.int64),
            failed=np.array(self.failed))


def _wrap(tracer, fn, amount):
    name = layer_name(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        fc = kwargs.get("flops")
        before = fc.total() if fc is not None else 0
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            tracer.failed[i] = True
            raise
        finally:
            tracer.close(i)
            if fc is not None:
                tracer.flops[i] = fc.total() - before
            if amount is not None:
                tracer.amount[i], tracer.width[i] = amount(args)
    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Rebind every target to a span-recording wrapper for the block."""
    from srifkit.linalg import FlopCounter

    saved = []
    try:
        for modname, attr, amount in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, amount))
        add = FlopCounter.add
        saved.append((FlopCounter, "add", add))

        def counted_add(self, *args, **kwargs):
            tracer.flop_adds += 1
            return add(self, *args, **kwargs)

        FlopCounter.add = counted_add
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def self_times(start, end, parent):
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so a span's self time is never negative.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        ivs = sorted((max(start[k], start[p]), min(end[k], end[p]))
                     for k in kids)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def layer_totals(tracer):
    """Per span name: calls, self seconds, inclusive seconds, failures,
    summed amount, and counted FLOPs."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    tot = defaultdict(lambda: dict(calls=0, s=0.0, incl_s=0.0, fail=0,
                                   amount=0, flops=0))
    for i, name in enumerate(tracer.names):
        t = tot[name]
        t["calls"] += 1
        t["s"] += float(selfs[i])
        t["incl_s"] += tracer.end[i] - tracer.start[i]
        t["fail"] += int(tracer.failed[i])
        t["amount"] += tracer.amount[i]
        t["flops"] += tracer.flops[i]
    return dict(tot)
