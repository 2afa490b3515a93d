"""The RC-tree produced by parallel tree contraction.

Each input vertex has one *rcnode*.  When vertex ``v`` is contracted via
edge ``e`` into the cluster represented by ``u``, rcnode ``v`` gets parent
rcnode ``u`` and edge ``e`` is *associated* to rcnode ``v`` (paper Section
2.1).  Exactly one vertex survives (the root rcnode, no associated edge),
and the association is a bijection between non-root vertices and edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.contraction.schedule import CompressEvent, RakeEvent
    from repro.trees.wtree import WeightedTree

__all__ = ["RCTree"]

KIND_ROOT = -1
KIND_RAKE = 0
KIND_COMPRESS = 1


@dataclass
class RCTree:
    """Output of :func:`repro.contraction.schedule.build_rc_tree` and of
    :func:`repro.contraction.fast.build_rc_tree_fast` (same schedule for
    the same seed)."""

    n: int
    root: int
    parent: np.ndarray  # rc-parent vertex per vertex; root points to itself
    edge: np.ndarray  # associated edge id per vertex; -1 for the root
    round_of: np.ndarray  # contraction round at which each vertex contracted
    kind: np.ndarray  # KIND_RAKE / KIND_COMPRESS / KIND_ROOT
    rounds: list[tuple[str, list]] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def vertex_of_edge(self) -> np.ndarray:
        """Inverse association: edge id -> the vertex contracted via it."""
        out = np.full(self.n - 1, -1, dtype=np.int64)
        associated = self.edge >= 0
        out[self.edge[associated]] = np.flatnonzero(associated)
        return out

    def depths(self) -> np.ndarray:
        """Depth of each rcnode below the root (root depth 0).

        Vertices contracted in earlier rounds are deeper; parents always
        contract strictly later, so processing vertices in decreasing
        ``round_of`` order sees each parent first.
        """
        depths = np.zeros(self.n, dtype=np.int64)
        order = np.argsort(-self.round_of, kind="stable")
        for v in order:
            p = int(self.parent[v])
            depths[v] = 0 if p == v else depths[p] + 1
        return depths

    def height(self) -> int:
        """Height of the RC-tree (max rcnode depth)."""
        return int(self.depths().max()) if self.n else 0

    def validate(self, tree: "WeightedTree") -> None:
        """Re-simulate the recorded rounds, asserting each event's legality.

        Checks: every rake removes a then-degree-1 vertex, every compress
        removes a then-degree-2 vertex whose merge direction is the
        lesser-rank edge and whose neighbors are intact this round, the
        bijection vertex<->edge holds, and contraction ends at one vertex.
        """
        from repro.contraction.schedule import CompressEvent, RakeEvent

        ranks = tree.ranks
        adj: list[dict[int, int]] = [dict() for _ in range(tree.n)]
        for e in range(tree.m):
            u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
            adj[u][v] = e
            adj[v][u] = e
        alive = [True] * tree.n
        for kind, events in self.rounds:
            # Independence is a round-level property: no event's surviving
            # endpoints may themselves be contracted anywhere in the round.
            round_removed = {ev.v for ev in events}
            assert len(round_removed) == len(events), "vertex contracted twice in one round"
            for ev in events:
                assert alive[ev.v], f"vertex {ev.v} contracted twice"
                if isinstance(ev, RakeEvent):
                    assert kind == "rake"
                    assert len(adj[ev.v]) == 1, f"rake of non-leaf {ev.v}"
                    assert adj[ev.v].get(ev.u) == ev.e, "rake edge mismatch"
                    assert ev.u not in round_removed, "rake target contracted this round"
                    del adj[ev.u][ev.v]
                    adj[ev.v].clear()
                else:
                    assert isinstance(ev, CompressEvent) and kind == "compress"
                    assert len(adj[ev.v]) == 2, f"compress of degree-{len(adj[ev.v])} vertex"
                    assert adj[ev.v].get(ev.u) == ev.e1, "compress lesser edge mismatch"
                    assert adj[ev.v].get(ev.w) == ev.e2, "compress greater edge mismatch"
                    assert ranks[ev.e1] < ranks[ev.e2], "compress direction must be lesser rank"
                    assert ev.u not in round_removed, "compress neighbor contracted this round"
                    assert ev.w not in round_removed, "compress neighbor contracted this round"
                    del adj[ev.u][ev.v]
                    del adj[ev.w][ev.v]
                    adj[ev.v].clear()
                    assert ev.w not in adj[ev.u], "compress would create a multi-edge"
                    adj[ev.u][ev.w] = ev.e2
                    adj[ev.w][ev.u] = ev.e2
                alive[ev.v] = False
        assert sum(alive) == 1, "contraction did not reach a single vertex"
        assert alive[self.root], "recorded root is not the surviving vertex"
        voe = self.vertex_of_edge()
        assert (voe >= 0).all(), "some edge has no associated rcnode"
