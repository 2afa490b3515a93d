"""Work-depth runtime: cost accounting, Brent's-law simulation, phase spans.

The paper analyzes its algorithms in the binary-forking work-depth model
(Blelloch et al., SPAA 2020) and evaluates them on a 96-core machine.  In
this pure-Python reproduction the machine is replaced by an *instrumented
cost model*: algorithms charge their true operation counts (work) and
critical-path lengths (depth) to a :class:`~repro.runtime.cost_model.CostTracker`,
and :mod:`repro.runtime.brent` converts the measured ``(W, D)`` pair into a
simulated ``T(P)`` curve anchored at the measured single-thread wall time.

See DESIGN.md section 1 for why this substitution preserves the paper's
experimental shape.
"""

from repro.runtime.brent import brent_time, calibrated_times, self_speedup, speedup_curve
from repro.runtime.cost_model import CostTracker, WorkDepth, combine_parallel
from repro.runtime.instrumentation import recording, span
from repro.runtime.scheduler import Scheduler

__all__ = [
    "CostTracker",
    "WorkDepth",
    "combine_parallel",
    "brent_time",
    "speedup_curve",
    "calibrated_times",
    "self_speedup",
    "recording",
    "span",
    "Scheduler",
]
