"""Wall-clock comparison of the scan strategies."""

from __future__ import annotations

import time

import numpy as np

from .ssm import _scan_states_chunked, _scan_states_sequential


def bench_scan(t: int, dp: int, w: int, chunks, seed: int = 0, repeats: int = 3):
    """Time both strategies on one seeded problem; returns CSV-ready rows.

    Each row is (strategy, T, Dp, W, chunk, wall_ms); sequential rows use
    chunk 0.  The reported time is the best of ``repeats`` runs after one
    warmup.
    """
    rng = np.random.default_rng(seed)
    a = 0.1 + 0.85 * rng.random((1, t, dp, w))
    inj = rng.normal(size=(1, t, dp, w))

    def clock(fn):
        fn()  # warmup
        best = float("inf")
        for _ in range(repeats):
            tic = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - tic)
        return best * 1e3

    rows = [("sequential", t, dp, w, 0, clock(lambda: _scan_states_sequential(a, inj)))]
    for chunk in chunks:
        rows.append(("parallel", t, dp, w, chunk,
                     clock(lambda: _scan_states_chunked(a, inj, chunk))))
    return rows


def rows_to_csv(rows) -> str:
    lines = ["strategy,T,Dp,W,chunk,wall_ms"]
    for strategy, t, dp, w, chunk, ms in rows:
        lines.append(f"{strategy},{t},{dp},{w},{chunk},{ms:.3f}")
    return "\n".join(lines) + "\n"
