"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same qheis item takes from 0.65 s to 1.3 s within
minutes, because neighbours load the host: the noise is common to all
code that runs at the time. The benchmark times this kernel before and
after every item and divides the item's time by their mean, which removes
most of that noise. The kernel uses numpy and plain Python only, never
qheis, so no change to qheis can change it. It mixes the three kinds of
work qheis does: interpreted scalar code, small (N, 7, 7) einsums and
passes over large arrays.
"""

import time

import numpy as np

#: The kernel's median time on the 2-core x86 machine (Python 3.11,
#: numpy 2.4) the benchmark was written on.  Normalised times are seconds
#: on a machine where the kernel takes this long.
REFERENCE_S = 0.045

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((2000, 7))
_LARGE = _rng.standard_normal((1 << 17, 7))


def _kernel() -> None:
    s = 0.0
    for i in range(180_000):
        s += (i * 0.5) ** 0.5
    a = _SMALL
    for _ in range(30):
        a = a + np.einsum("ni,nj->nij", a, a).sum(axis=2) * 1e-9
    x = _LARGE
    for _ in range(2):
        x = x * (1.0 + 1e-9 * np.sqrt(np.einsum("ni,ni->n", x, x)))[:, None]


def measure() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def normalise(times, refs) -> list[float]:
    """Each time scaled by REFERENCE_S over the mean of the kernel times around it.

    `refs` has one more entry than `times`: refs[i] was measured just before
    times[i] and refs[i + 1] just after it.
    """
    return [t * 2.0 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, refs, refs[1:])]
