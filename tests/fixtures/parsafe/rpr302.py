"""RPR302 fixture: @owns thread worker writes a shared slab it did not declare."""

import threading

import numpy as np

from repro.checkers.ownership import owns


def bad_kernel(n):
    parents = np.arange(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)

    @owns("parents[lo:hi]")
    def fill(lo, hi):
        parents[lo:hi] = 0
        status[lo] = 1

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return parents, status


def suppressed_kernel(n):
    parents = np.arange(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)

    @owns("parents[lo:hi]")
    def fill(lo, hi):
        parents[lo:hi] = 0
        status[lo] = 1  # noqa: RPR302

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return parents, status


def declared_kernel(n):
    parents = np.arange(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)

    @owns("parents[lo:hi]", "status[lo:hi]")
    def fill(lo, hi):
        parents[lo:hi] = 0
        status[lo] = 1

    worker = threading.Thread(target=fill, args=(0, n))
    worker.start()
    worker.join()
    return parents, status
