"""RPR308 fixture: thread worker writes shared slabs with no @owns."""

import threading

import numpy as np

from repro.checkers.ownership import owns


def bad_fill(n):
    out = np.zeros(n, dtype=np.float64)

    def fill(lo, hi):
        out[lo:hi] = 1.0

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return out


def suppressed_fill(n):
    out = np.zeros(n, dtype=np.float64)

    def fill(lo, hi):  # noqa: RPR308
        out[lo:hi] = 1.0

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return out


def declared_fill(n):
    out = np.zeros(n, dtype=np.float64)

    @owns("out[lo:hi]")
    def fill(lo, hi):
        out[lo:hi] = 1.0

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return out
