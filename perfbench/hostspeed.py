"""Host speed index: how fast this machine runs right now, next to each timed call.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over tens of seconds to minutes, with the same code, as other tenants
load it.  A run's median is then set by when it ran more than by the
program.  So between timed calls the benchmark runs four fixed kernels that
never touch ``cvphase`` (a pure-Python loop, small FFTs, an FFT of an array
larger than L2, and Bernoulli draws: the kinds of work the CLI does), each
twice, and keeps the fastest time of each.

The index of one call is the geometric mean, over the kernels, of
``min(time before the call, time after it) / REFERENCE``: 1.0 is the speed
at which the reference times were taken, 2.0 a host running at half that
speed.  The end-to-end times are wall time divided by the index, i.e.
seconds at the reference host speed.  A change to the program moves the
wall time and leaves the kernels alone, so it moves the normalised time by
the same factor.  The raw wall times and the indices are in the report.

On a 2-vCPU VM whose speed swung during the measurement, the spread
(interquartile range over median) of 20 s medians of single commands fell
from 0.24-0.26 raw to 0.04-0.08 normalised for the warm ``estimate``,
``fisher-phi --fig4 --engine all`` and ``crosscheck``, from 0.15-0.20 to
0.03-0.07 for fresh ``import cvphase``, ``audit`` and ``fisher-r --fig5``
processes, and from 0.13-0.17 to 0.10 for the large grids of ``grid-fine``.
The grids slow less than the kernels when the host slows, so the index
corrects them only in part.

The kernels run single-threaded in the measuring process, in the gaps
between calls, so they add about 30 ms per call and no concurrent load.
"""

from __future__ import annotations

import math
import time

import numpy as np

# typical kernel times (s) on a 2-vCPU Intel Xeon VM; only their ratio to the
# times measured in a run matters
REFERENCE = {"python": 2.0e-3, "fft": 1.9e-3, "fft_large": 8.0e-3, "draws": 1.7e-3}
REPEATS = 2

_rng = np.random.default_rng(12345)
_small = _rng.random(4096) + 1j * _rng.random(4096)
_large = _rng.random(1 << 18) + 1j * _rng.random(1 << 18)  # 4 MiB, past L2
_draws = np.random.Generator(np.random.PCG64(2024))


def _python() -> None:
    s = 0
    for i in range(30000):
        s += i * i


def _fft() -> None:
    for _ in range(15):
        np.fft.ifft(np.fft.fft(_small) * _small)


def _fft_large() -> None:
    np.fft.fft(_large)


def _bernoulli() -> None:
    for _ in range(5):
        int(np.count_nonzero(_draws.random(100_000) < 0.3))


KERNELS = {"python": _python, "fft": _fft, "fft_large": _fft_large, "draws": _bernoulli}


def measure() -> dict[str, float]:
    """Fastest of REPEATS runs of each kernel, in seconds."""
    out = {}
    for name, kernel in KERNELS.items():
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def index(before: dict[str, float], after: dict[str, float]) -> float:
    """Host slowness around one call, relative to REFERENCE (1.0 = reference speed)."""
    logs = [
        math.log(min(before[k], after[k]) / REFERENCE[k]) for k in KERNELS
    ]
    return math.exp(sum(logs) / len(logs))
