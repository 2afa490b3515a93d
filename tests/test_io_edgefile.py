"""REDG1 binary edge files: roundtrip, error contract, spill/merge order.

The out-of-core MST path (``streaming_kruskal_mst``) is only correct if
``spill_runs`` + ``merge_runs`` reproduce the exact ``(weight, edge id)``
scan order of the in-memory sort, so the merge property is tested as a
strict sequence equality, not a multiset check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidGraphError
from repro.io import FormatError
from repro.io.edgefile import (
    EDGEFILE_HEADER_BYTES,
    EDGEFILE_MAGIC,
    RUN_DTYPE,
    iter_edge_chunks,
    merge_runs,
    read_edge_file,
    read_edge_header,
    spill_runs,
    write_edge_file,
)


def _graph(rng, n, extra=20):
    from test_trees_mst import random_connected_graph

    return random_connected_graph(rng, n, extra=extra)


@pytest.fixture
def sample(tmp_path):
    rng = np.random.default_rng(11)
    n, edges, weights = _graph(rng, 40)
    path = tmp_path / "g.redg"
    write_edge_file(path, n, edges, weights)
    return path, n, edges, weights


class TestRoundTrip:
    def test_header_and_payload(self, sample):
        path, n, edges, weights = sample
        assert read_edge_header(path) == (n, edges.shape[0])
        rn, redges, rweights = read_edge_file(path)
        assert rn == n
        assert np.array_equal(redges, edges)
        assert rweights.tobytes() == weights.tobytes()

    def test_empty_edge_set(self, tmp_path):
        path = tmp_path / "empty.redg"
        write_edge_file(path, 1, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
        n, edges, weights = read_edge_file(path)
        assert (n, edges.shape, weights.shape) == (1, (0, 2), (0,))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 8, 64, 10**6])
    def test_iter_chunks_cover_file_in_order(self, sample, chunk):
        path, n, edges, weights = sample
        start_ids, parts_e, parts_w = [], [], []
        for start, e, w in iter_edge_chunks(path, chunk):
            start_ids.append(start)
            assert 1 <= e.shape[0] <= chunk
            parts_e.append(e)
            parts_w.append(w)
        assert start_ids == list(range(0, edges.shape[0], chunk))
        assert np.array_equal(np.concatenate(parts_e), edges)
        assert np.concatenate(parts_w).tobytes() == weights.tobytes()

    def test_weight_bit_patterns_survive(self, tmp_path):
        """Signed zeros and subnormals must roundtrip bit-exactly: the
        rank order (and therefore the dendrogram) depends on them."""
        path = tmp_path / "bits.redg"
        weights = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308])
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], dtype=np.int64)
        write_edge_file(path, 6, edges, weights)
        _, _, rweights = read_edge_file(path)
        assert rweights.tobytes() == weights.tobytes()


class TestErrorContract:
    def test_bad_shapes_rejected_at_write(self, tmp_path):
        path = tmp_path / "bad.redg"
        with pytest.raises(InvalidGraphError):
            write_edge_file(path, 2, np.array([[0, 1, 2]]), np.ones(1))
        with pytest.raises(InvalidGraphError):
            write_edge_file(path, 2, np.array([[0, 1]]), np.ones(2))

    def test_garbage_magic(self, tmp_path):
        path = tmp_path / "junk.redg"
        path.write_bytes(b"not an edge file at all, sorry" * 4)
        with pytest.raises(FormatError, match="magic"):
            read_edge_header(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.redg"
        path.write_bytes(EDGEFILE_MAGIC[:4])
        with pytest.raises(FormatError):
            read_edge_header(path)

    def test_truncated_payload(self, sample, tmp_path):
        path, _, _, _ = sample
        clipped = tmp_path / "clipped.redg"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            read_edge_header(clipped)

    def test_trailing_bytes(self, sample, tmp_path):
        path, _, _, _ = sample
        padded = tmp_path / "padded.redg"
        padded.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="bytes"):
            read_edge_header(padded)

    def test_failed_write_keeps_previous_file(self, sample):
        """A write that dies midway leaves the previous file and no temp file."""
        from conftest import file_size_limit

        path, n, edges, weights = sample
        before = path.read_bytes()
        with file_size_limit(EDGEFILE_HEADER_BYTES + 100), pytest.raises(OSError):
            write_edge_file(path, n, edges[::-1], weights[::-1])
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert path.read_bytes() == before
        assert read_edge_header(path) == (n, edges.shape[0])

    def test_header_sizes(self, sample):
        path, _, _, _ = sample
        assert EDGEFILE_HEADER_BYTES == len(EDGEFILE_MAGIC) + 16
        assert path.stat().st_size == EDGEFILE_HEADER_BYTES + 24 * read_edge_header(path)[1]

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda e, w: (np.array([[0, 0]] + e.tolist()[1:]), w), "self loop"),
            (lambda e, w: (np.array([[0, 99]] + e.tolist()[1:]), w), "endpoints"),
            (lambda e, w: (e, np.where(np.arange(w.size) == 0, np.nan, w)), "finite"),
        ],
    )
    def test_chunk_validation(self, tmp_path, mutate, match):
        rng = np.random.default_rng(5)
        n, edges, weights = _graph(rng, 12)
        edges, weights = mutate(edges, weights)
        path = tmp_path / "mut.redg"
        write_edge_file(path, n, np.asarray(edges, dtype=np.int64), weights)
        with pytest.raises(InvalidGraphError, match=match):
            for _ in iter_edge_chunks(path, 4):
                pass

    def test_validation_can_be_skipped(self, tmp_path):
        path = tmp_path / "loop.redg"
        write_edge_file(path, 2, np.array([[0, 0]], dtype=np.int64), np.ones(1))
        chunks = list(iter_edge_chunks(path, 4, validate=False))
        assert len(chunks) == 1


class TestSpillMerge:
    @pytest.mark.parametrize("chunk", [1, 2, 5, 8, 9, 64, 10**6])
    @pytest.mark.parametrize("merge_block", [None, 1, 3])
    def test_merge_reproduces_rank_order_exactly(self, tmp_path, chunk, merge_block):
        """Concatenated merge output == the in-memory stable weight sort
        (the exact ``(weight, id)`` rank order Kruskal scans)."""
        rng = np.random.default_rng(chunk * 101 + (merge_block or 0))
        n, edges, weights = _graph(rng, 30)
        weights = rng.integers(0, 4, size=weights.size).astype(np.float64)  # ties
        path = tmp_path / "g.redg"
        write_edge_file(path, n, edges, weights)

        runs = spill_runs(path, tmp_path / "spill", chunk)
        m = edges.shape[0]
        assert len(runs) == -(-m // chunk)

        block = merge_block if merge_block is not None else max(1, chunk // len(runs))
        batches = list(merge_runs(runs, block))
        out = np.concatenate(batches) if batches else np.zeros(0, dtype=RUN_DTYPE)

        order = np.argsort(weights, kind="stable")
        assert np.array_equal(out["id"], order)
        assert out["w"].tobytes() == weights[order].tobytes()
        assert np.array_equal(out["u"], edges[order, 0])
        assert np.array_equal(out["v"], edges[order, 1])

    def test_runs_are_individually_sorted(self, tmp_path):
        rng = np.random.default_rng(3)
        n, edges, weights = _graph(rng, 25)
        path = tmp_path / "g.redg"
        write_edge_file(path, n, edges, weights)
        for run in spill_runs(path, tmp_path / "spill", 7):
            rec = np.fromfile(run, dtype=RUN_DTYPE)
            key = np.stack([rec["w"], rec["id"].astype(np.float64)])
            assert np.array_equal(np.lexsort(key[::-1]), np.arange(rec.size))
