"""A fixed calibration kernel that measures the host's speed of the moment.

The shared host this benchmark runs on changes speed by up to 1.5x, on
scales from under a second to minutes, and process CPU time follows wall
time, so neither is steady by itself.  The worker therefore times this
kernel between the program's calls, and run.py around each set-up, and
each time is rescaled to the speed at which the kernel takes ``NOMINAL_S``
(see README, Host speed).

The kernel does the kind of work hosvd3 does, and none of hosvd3's code
runs in it, so no change to the program changes the kernel: complex
Jacobi rotations applied as small dense numpy products from a Python loop,
then JSON formatting and parsing of a list of floats.  The amount of work
is fixed: a set number of rotations of a fixed 24 x 24 matrix.
"""

import json
import time

import numpy as np

# Time of one kernel(), between program calls, on the 2-core Intel Xeon
# (2.1 GHz) host the reference figures come from, in its fast state.
NOMINAL_S = 0.0012
_N = 24
_ROTATIONS = 20  # the first pivots of one cyclic sweep
_rng = np.random.default_rng(20031005)
_Z = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))
_H = _Z + _Z.conj().T
_PIVOTS = [(p, q) for p in range(_N - 1) for q in range(p + 1, _N)][:_ROTATIONS]
_FLOATS = [[float(x), float(y)] for x, y in _rng.standard_normal((100, 2))]


def kernel():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    a = _H.copy()
    for p, q in _PIVOTS:
        apq = a[p, q]
        mag = abs(apq)
        tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
        tee = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau else 1.0
        c = 1.0 / np.sqrt(1.0 + tee * tee)
        rot = np.eye(_N, dtype=np.complex128)
        rot[p, p] = c
        rot[p, q] = tee * c
        rot[q, p] = -tee * c * np.conj(apq / mag)
        rot[q, q] = c * np.conj(apq / mag)
        a = rot.conj().T @ a @ rot
    text = json.dumps({"values": _FLOATS, "diag": np.diag(a).real.tolist()}, indent=2)
    return len(json.loads(text)["values"])


def timed_kernel():
    """Seconds one kernel() takes now, after an untimed one that refills the
    caches the work before it left."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
