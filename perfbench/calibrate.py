"""A fixed numpy kernel that measures how fast the machine runs right now.

The machine this benchmark was written on shares its vCPUs.  Its speed
drifts by up to +-30% over tens of seconds, which is about one run, so raw
medians of separate runs disagree by more than any useful bound.  run.py
times this kernel a few times before every round and rescales the run's
timings by KERNEL_REFERENCE_S / (median kernel time in the run).  The
kernel draws and folds broadcast colourings the way the samplers do, but
shares no code with treecolor, so a change to the program shows in full.
"""
from __future__ import annotations

import time

import numpy as np

#: median kernel time on the reference machine (see README, "Noise")
KERNEL_REFERENCE_S = 0.040


def kernel() -> float:
    """Seconds taken by one pass: 40 broadcast rows of a 4096-leaf binary
    tree with k=3, then a 12-level log-domain fold back to the root."""
    start = time.perf_counter()
    gen = np.random.default_rng(12345)
    level = gen.integers(1, 4, size=(40, 1), dtype=np.int16)
    for _ in range(12):
        parents = np.repeat(level, 2, axis=1)
        r = gen.integers(1, 3, size=parents.shape, dtype=np.int16)
        level = r + (r >= parents)
    msgs = np.eye(3)[level.astype(np.int64) - 1]
    for _ in range(12):
        grouped = msgs.reshape(msgs.shape[0], -1, 2, 3)
        with np.errstate(divide="ignore"):
            logw = np.log1p(-np.clip(grouped, 0.0, 1.0)).sum(axis=2)
        w = np.exp(logw - logw.max(axis=-1, keepdims=True))
        msgs = w / w.sum(axis=-1, keepdims=True)
    return time.perf_counter() - start
