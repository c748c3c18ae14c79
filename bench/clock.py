"""Operation timing normalised by a calibration kernel.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
over seconds and minutes, so raw times of the same work differ that much
between runs.  ``OpClock`` runs a fixed calibration kernel before the
first operation of a pass and after every operation, and records each
operation's time as a ratio to the mean of the two kernel times around
it.  The kernel is plain interpreted Python: on a 2-vCPU Xeon host its
time tracked both numpy-heavy and interpreter-heavy program operations
to within 2% over 30-second windows, while their raw times moved by 11%.
A change that makes an operation twice as fast halves its ratio; the
host's drift moves the kernel and the operation alike.  ``CAL_REF_S``
turns a ratio back into seconds at a fixed reference speed.
"""

import time

# Reference time of one calibration kernel, in seconds: about its median
# between operations on a 2-vCPU Intel Xeon host.  A ratio times
# CAL_REF_S is the operation's time on a host where the kernel takes
# exactly this long.
CAL_REF_S = 0.004


def calibrate():
    """Run the calibration kernel once and return its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(60000):
        s += i * 0.5
    return time.perf_counter() - t0


class OpClock:
    """Times the named operations of one pass between calibration kernels.

    ``op_s`` maps each operation to its wall time and ``op_ratio`` to that
    time over the mean of the kernel times just before and just after it."""

    def __init__(self):
        self.op_s, self.op_ratio = {}, {}
        self._cal = calibrate()
        self._t0 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self, name):
        t = time.perf_counter() - self._t0
        cal = calibrate()
        self.op_s[name] = t
        self.op_ratio[name] = t / (0.5 * (self._cal + cal))
        self._cal = cal
