"""A fixed calibration kernel, timed beside every repetition.

The shared host the benchmark runs on changes speed by up to 1.8x, in
stretches of a minute or more, which no number of repetitions within one
run averages out.  Each child times this kernel right after set-up and
right after the command, and the benchmark divides the child's times by
the kernel's (see ``run.py``).  The kernel does a fixed amount of the
kinds of work ccstruct spends its time on: interpreted arithmetic and
calls, numpy calls on small arrays, and vectorized passes over arrays of
20,000 elements, small enough not to raise the child's peak RSS.  It
imports nothing from ccstruct, so no change to the program changes its
time.
"""

import time

import numpy as np

#: the kernel's median time, in seconds, on the 2-core host the bounds
#: were set on; times scaled by it read as seconds on that host
REFERENCE_S = 0.3


def _step(i):
    return (i % 7) * 0.5 + (i & 3)


def kernel():
    s = 0.0
    for i in range(600_000):
        s += _step(i)
    x = np.random.default_rng(0).random(64)
    for _ in range(24_000):
        x = np.sqrt(np.abs(np.sin(x) + 0.1))
    a = np.linspace(0.0, 1.0, 20_000)
    for _ in range(400):
        a = np.exp(-a * a) + np.cos(a)
    return s + float(x.sum()) + float(a.sum())


def timed():
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
