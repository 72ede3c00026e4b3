"""Host-speed calibration: a fixed kernel timed next to each operation.

A shared host changes speed by up to 1.6x for minutes at a time, and
process CPU time tracks wall time through it, so neither clock alone
separates the program's cost from the host's mood. Before each timed
operation the benchmark runs one tick of a fixed kernel that does not use
srifkit: small-array numpy arithmetic in a Python loop, as the engine's
models do, and a BLAS QR, as the update kernels do. Over six minutes on a
2-core Xeon host, per-pass engine times ranged 1.37x raw and 1.11x when
divided by the ticks run between their frames.

An operation's latency is reported at the reference speed: its wall time
times TICK_REF_S over the median of the ticks around it. On a host where a
tick takes TICK_REF_S the reported time is the wall time.
"""

from __future__ import annotations

import time

import numpy as np

TICK_REF_S = 2.0e-3     # one tick on the 2-core Xeon host the bounds came from
HALF_WINDOW = 10        # an operation is scaled by the median of 21 ticks
SMALL_STEPS = 60
WARMUP_TICKS = 5


class Calibrator:
    """Runs ticks of the fixed kernel and keeps their wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(20150713)
        self.rot = [np.linalg.qr(rng.normal(size=(3, 3)))[0]
                    for _ in range(8)]
        self.vec = [rng.normal(size=3) for _ in range(8)]
        self.tall = rng.normal(size=(200, 60))
        self.ticks = []
        for _ in range(WARMUP_TICKS):
            self._kernel()

    def _kernel(self):
        eye = np.eye(3)
        for i in range(SMALL_STEPS):
            rot, vec = self.rot[i & 7], self.vec[i & 7]
            w = rot @ vec
            k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                          [-w[1], w[0], 0.0]])
            jac = np.hstack((rot, k))
            np.linalg.solve(jac @ jac.T + eye, w)
        np.linalg.qr(self.tall)
        self.tall.T @ self.tall

    def tick(self):
        """Run the kernel once; returns and keeps its wall seconds."""
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.ticks.append(dt)
        return dt

    def timed(self, fn, ticks):
        """Call fn between `ticks` ticks before and as many after; returns
        its result and its wall seconds at the reference speed, scaled by
        the median of those ticks."""
        before = [self.tick() for _ in range(ticks)]
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        after = [self.tick() for _ in range(ticks)]
        return out, dt * TICK_REF_S / float(np.median(before + after))


def local_scales(ticks, half=HALF_WINDOW):
    """Per operation i, TICK_REF_S over the median of ticks[i-half:i+half+1]
    (clipped at the ends); ticks[i] ran just before operation i."""
    ticks = np.asarray(ticks, dtype=float)
    return np.array([
        TICK_REF_S / np.median(ticks[max(0, i - half):i + half + 1])
        for i in range(ticks.size)])
