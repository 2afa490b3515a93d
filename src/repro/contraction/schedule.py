"""Miller-Reif tree contraction with lesser-rank compress direction.

Rounds alternate **rake** (all degree-1 vertices contract into their
neighbor) and **compress** (an independent set of degree-2 vertices splice
out).  Independence for compress uses random vertex priorities drawn once
up front (seeded, hence reproducible): a degree-2 vertex compresses iff its
priority beats every degree-2 neighbor's, which removes an expected
constant fraction of every chain per round, giving the ``O(log n)`` round
bound of randomized Miller-Reif.  For the isolated-edge case (two adjacent
leaves) the lower-priority endpoint rakes into the higher.

Crucially for SLD correctness (Claims 3.8/3.9 and Algorithm 6), a
compressed vertex always merges along its **lesser-rank** incident edge;
the higher-rank edge survives and keeps its identity on the spliced
adjacency.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.checkers import access as _access
from repro.checkers.bounds import cost_bound
from repro.checkers.races import check_recorder
from repro.contraction.rctree import KIND_COMPRESS, KIND_RAKE, KIND_ROOT, RCTree
from repro.runtime.cost_model import CostTracker, WorkDepth
from repro.trees.wtree import WeightedTree
from repro.util import check_random_state, log2ceil

__all__ = ["RakeEvent", "CompressEvent", "build_rc_tree"]


def _pair(a: int, b: int) -> tuple[int, int]:
    """Unordered adjacency-pair cell key (both directions are one slot)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RakeEvent:
    """Leaf ``v`` contracts into neighbor ``u`` via edge ``e = (u, v)``."""

    v: int
    u: int
    e: int


@dataclass(frozen=True)
class CompressEvent:
    """Degree-2 vertex ``v`` splices out.

    ``e1 = (u, v)`` and ``e2 = (v, w)`` with ``rank(e1) < rank(e2)``;
    ``v`` merges into ``u`` (the lesser-rank side) and the surviving
    adjacency ``(u, w)`` carries edge identity ``e2``.
    """

    v: int
    u: int
    e1: int
    w: int
    e2: int


_E = TypeVar("_E")


@cost_bound(
    work="k",
    depth="log(k)",
    vars=("k",),
    kind="helper",
    theorem="one synchronous commit round over k independent events",
)
def _run_commit_round(
    events: Sequence[_E],
    commit: Callable[[_E], None],
    annotate: Callable[[_E], None],
    race_check: bool,
    where: str,
) -> None:
    """Apply ``commit`` to each event, optionally under the race recorder.

    With ``race_check`` every event becomes one shadow task: ``annotate``
    reports the cells the event's commit touches (adjacency at unordered
    pair granularity; per-vertex contraction state; degree counters and
    candidate-set membership as commutative atomics), and conflicting
    events raise :class:`~repro.errors.RaceConditionError`.  Without it
    the loop is the plain uninstrumented commit.
    """
    if not race_check:
        for ev in events:
            commit(ev)
        return
    recorder = _access.RoundRecorder(where=where)
    _access.install(recorder)
    try:
        for i, ev in enumerate(events):
            recorder.begin_task(i, label=f"task {i}")
            annotate(ev)
            commit(ev)
        recorder.end_task()
    finally:
        _access.uninstall(recorder)
    check_recorder(recorder)


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    theorem="randomized Miller-Reif contraction: O(log n) rounds whp, the "
    "candidate scan per round is charged against the shrinking frontier",
)
def build_rc_tree(
    tree: WeightedTree,
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    priorities: str = "random",
    race_check: bool = False,
) -> RCTree:
    """Contract ``tree`` to a single vertex; return the resulting RC-tree.

    ``priorities`` selects the compress symmetry-breaking rule:

    * ``"random"`` (default) -- a seeded random permutation; every chain
      loses an expected constant fraction per round, the randomized
      Miller-Reif ``O(log n)`` round bound.
    * ``"id"`` -- vertex ids as priorities.  Correct but *pathological* on
      monotone-id chains (one local maximum per chain, ``Theta(n)``
      rounds); exposed for the symmetry-breaking ablation.

    With ``race_check=True`` each rake/compress commit round runs under
    the shadow round-race detector: the per-event commits are treated as
    parallel tasks and their adjacency/state accesses are intersected,
    machine-checking the independence argument for the decided event sets.
    """
    if priorities not in ("random", "id"):
        raise ValueError(f"unknown priority rule {priorities!r}; expected 'random' or 'id'")
    n = tree.n
    ranks = tree.ranks
    rc_parent = np.arange(n, dtype=np.int64)
    rc_edge = np.full(n, -1, dtype=np.int64)
    rc_round = np.full(n, -1, dtype=np.int64)
    rc_kind = np.full(n, KIND_ROOT, dtype=np.int64)
    rounds: list[tuple[str, list]] = []

    if n == 1:
        return RCTree(n, 0, rc_parent, rc_edge, rc_round, rc_kind, rounds)

    if priorities == "random":
        rng = check_random_state(seed)
        priority = rng.permutation(n)
    else:
        priority = np.arange(n, dtype=np.int64)

    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    # Adjacency build: a flat parallel scatter in the model (O(1) depth per
    # edge); the host loop is sequential bookkeeping only.
    for e in range(tree.m):  # noqa: RPR102
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        adj[u][v] = e
        adj[v][u] = e

    alive = np.ones(n, dtype=bool)
    alive_count = n
    # Only vertices of degree <= 2 can ever contract; degrees never grow, so
    # a candidate set seeded with the low-degree vertices and fed by rake
    # targets covers every future leaf / chain vertex.
    candidates = {v for v in range(n) if len(adj[v]) <= 2}
    round_index = 0

    # O(log n) rake/compress rounds whp; each iteration is one synchronous
    # round whose work/depth is charged to the tracker per round.
    while alive_count > 1:  # noqa: RPR102
        # ---------------- rake round ----------------
        leaves = [v for v in candidates if alive[v] and len(adj[v]) == 1]
        rake_events: list[RakeEvent] = []
        for v in leaves:
            (u, e), = adj[v].items()
            if len(adj[u]) == 1 and priority[v] > priority[u]:
                continue  # isolated edge: the lower-priority endpoint rakes
            rake_events.append(RakeEvent(v, u, e))
        scanned = len(candidates)

        def commit_rake(ev: RakeEvent) -> None:
            del adj[ev.u][ev.v]
            adj[ev.v].clear()
            alive[ev.v] = False
            rc_parent[ev.v] = ev.u
            rc_edge[ev.v] = ev.e
            rc_round[ev.v] = round_index
            rc_kind[ev.v] = KIND_RAKE
            candidates.discard(ev.v)
            if len(adj[ev.u]) <= 2:
                candidates.add(ev.u)

        def annotate_rake(ev: RakeEvent) -> None:
            # The raked adjacency slot and v's contraction state are plain
            # writes; u's degree counter (decremented by the delete, fetched
            # for the candidate test) and the candidate-set memberships are
            # commutative RMWs, hence atomic.
            _access.record_write("adj", _pair(ev.u, ev.v))
            _access.record_write("vertex", ev.v)
            _access.record_atomic("deg", ev.u)
            _access.record_atomic("candidates", ev.v)
            _access.record_atomic("candidates", ev.u)

        _run_commit_round(
            rake_events,
            commit_rake,
            annotate_rake,
            race_check,
            where=f"rake round {round_index}",
        )
        alive_count -= len(rake_events)
        if rake_events:
            rounds.append(("rake", rake_events))
            round_index += 1
        if tracker is not None:
            tracker.add(WorkDepth(float(scanned + len(rake_events)), float(log2ceil(n) + 1)))
        if alive_count <= 1:
            break

        # ---------------- compress round ----------------
        deg2 = [v for v in candidates if alive[v] and len(adj[v]) == 2]
        is_deg2 = set(deg2)
        compress_events: list[CompressEvent] = []
        for v in deg2:
            (a, ea), (b, eb) = adj[v].items()
            if (a in is_deg2 and priority[a] > priority[v]) or (
                b in is_deg2 and priority[b] > priority[v]
            ):
                continue  # not a local priority maximum among degree-2 peers
            if ranks[ea] > ranks[eb]:
                a, ea, b, eb = b, eb, a, ea
            compress_events.append(CompressEvent(v, a, int(ea), b, int(eb)))
        def commit_compress(ev: CompressEvent) -> None:
            del adj[ev.u][ev.v]
            del adj[ev.w][ev.v]
            adj[ev.v].clear()
            adj[ev.u][ev.w] = ev.e2
            adj[ev.w][ev.u] = ev.e2
            alive[ev.v] = False
            rc_parent[ev.v] = ev.u
            rc_edge[ev.v] = ev.e1
            rc_round[ev.v] = round_index
            rc_kind[ev.v] = KIND_COMPRESS
            candidates.discard(ev.v)

        def annotate_compress(ev: CompressEvent) -> None:
            # Both removed slots and the surviving spliced slot are plain
            # pair writes; u's and w's degrees are net-unchanged but still
            # pass through the shared counters, hence atomic.
            _access.record_write("adj", _pair(ev.u, ev.v))
            _access.record_write("adj", _pair(ev.v, ev.w))
            _access.record_write("adj", _pair(ev.u, ev.w))
            _access.record_write("vertex", ev.v)
            _access.record_atomic("deg", ev.u)
            _access.record_atomic("deg", ev.w)
            _access.record_atomic("candidates", ev.v)

        _run_commit_round(
            compress_events,
            commit_compress,
            annotate_compress,
            race_check,
            where=f"compress round {round_index}",
        )
        alive_count -= len(compress_events)
        if compress_events:
            rounds.append(("compress", compress_events))
            round_index += 1
        if tracker is not None:
            tracker.add(
                WorkDepth(float(len(deg2) + len(compress_events)), float(log2ceil(n) + 1))
            )

    root = int(np.flatnonzero(alive)[0])
    rc_round[root] = round_index
    rct = RCTree(n, root, rc_parent, rc_edge, rc_round, rc_kind, rounds)
    return rct
