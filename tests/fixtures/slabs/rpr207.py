"""RPR207 fixture: contract kernels touching the effect surface."""

from repro.checkers.contracts import slab_contract
from repro.runtime.cost_model import instrumented


@slab_contract(dtypes={"xs": "int64"})
def bad_kernel(xs, tracker=None):
    if instrumented(tracker):
        tracker.add(None)
    return xs


@slab_contract(dtypes={"xs": "int64"})
def suppressed_kernel(xs, tracker=None):
    on = instrumented(tracker)  # noqa: RPR207
    del on
    return xs


@slab_contract(dtypes={"xs": "int64"})
def guarded_kernel_ok(xs, tracker=None):
    if instrumented(tracker):
        return xs  # delegation guard: the one sanctioned ambient read
    return xs + 1


def undecorated_ok(xs, tracker=None):
    return instrumented(tracker)  # purity applies to contracts only
