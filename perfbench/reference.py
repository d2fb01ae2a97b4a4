"""A fixed job, independent of polyrefine, that measures the machine's speed.

On a shared machine, speed can drift by 20-30% between processes as other
tenants come and go, and all stages move together (see README). Each round
runs this job once before every stage and once after the last; each item's
time is divided by the mean of the job's times just before and just after
its stage, and the ratios are expressed at NOMINAL_SECONDS, so the figures
read as if the machine ran at the speed where this job takes
NOMINAL_SECONDS. The job mixes the kinds of work the
program does: interpreter loops, numpy calls on tiny arrays, broadcast
distance computations and float32 matrix products. Changing it changes
every figure: compare runs only with the same job.
"""
from __future__ import annotations

import numpy as np

NOMINAL_SECONDS = 0.025

_rng = np.random.default_rng(0)
_POLY = _rng.random((8, 2))
_CLOUD = _rng.random((4096, 2))
_ACT = _rng.random((256, 64)).astype(np.float32)
_WEIGHTS = _rng.random((64, 64)).astype(np.float32)


def job() -> float:
    acc = 0.0
    for i in range(60000):
        acc += (i * i) % 7
    p = _POLY
    for _ in range(600):
        q = np.roll(p, -1, axis=0)
        acc += float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
    for _ in range(12):
        d = _CLOUD[:, None, :] - _POLY[None, :, :]
        acc += float(np.sqrt((d * d).sum(axis=2)).min())
    x = _ACT
    for _ in range(40):
        x = np.maximum(x @ _WEIGHTS, 0.0) / 64.0
    return acc + float(x.sum())
