"""Tests of the lifecycle benchmark's own logic: seeded inputs, the
percentile rule, layer reconciliation and the brute-force oracle."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
from lifecycle import SpanLog, layer_rows  # noqa: E402

#: The 11-vertex example graph of Figure 1 of the paper, 0-based.
PAPER_EDGES = [
    (0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
    (5, 6), (5, 7), (6, 7), (6, 10), (7, 8), (8, 9),
]


def boundaries(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return inputs.distinct_similarities(rng.random(5000))


class TestInputs:
    def test_grid_is_deterministic_per_seed(self):
        first = inputs.query_grid(boundaries(), 7, 14)
        assert first == inputs.query_grid(boundaries(), 7, 14)
        assert first != inputs.query_grid(boundaries(1), 8, 14)
        assert len(first) == 15 * 14
        assert {mu for mu, _ in first} == set(range(2, 17))

    def test_epsilon_never_equals_a_similarity(self):
        values = boundaries()
        for _, epsilon in inputs.query_grid(values, 3, 14) + inputs.probe_settings(values):
            assert epsilon not in set(values.tolist())

    def test_values_a_few_ulps_apart_are_one_boundary(self):
        third = 1.0 / 3.0
        values = inputs.distinct_similarities([0.25, third, np.nextafter(third, 1.0), 0.5])
        assert values.tolist() == [0.25, third, 0.5]
        epsilon = inputs.epsilon_at(values, 0.6)
        assert abs(epsilon - third) > 1e-3

    def test_stream_is_deterministic_per_seed(self):
        def lines(seed):
            stream = inputs.RequestStream(boundaries(), seed)
            return [request.line for epoch in range(3) for request in stream.epoch(epoch, 300)]

        assert lines(5) == lines(5)
        assert lines(5) != lines(6)

    def test_stream_mixes_head_and_one_off_tail(self):
        stream = inputs.RequestStream(boundaries(), 1)
        requests = stream.epoch(0, 5000)
        head = set(stream.head)
        in_head = sum((request.mu, request.epsilon) in head for request in requests)
        assert 0.87 < in_head / len(requests) < 0.93
        assert len(head) == inputs.RequestStream.HEAD_SIZE
        stream.epoch(1, 10)
        assert set(stream.head) != head

    def test_deltas_are_valid_against_the_evolving_graph(self):
        rng = np.random.default_rng(0)
        n = 300
        pairs = {tuple(sorted(map(int, rng.integers(0, n, 2)))) for _ in range(4000)}
        edges = {(u, v) for u, v in pairs if u != v}
        edge_u, edge_v = (np.array(side) for side in zip(*sorted(edges)))
        source = inputs.DeltaSource(edge_u, edge_v, n, seed=4)
        for _ in range(3):
            insertions, deletions = source.next_delta()
            assert len(insertions) + len(deletions) == max(2, int(len(edges) * 0.001))
            assert all(edge in edges for edge in deletions)
            assert not any(edge in edges for edge in insertions)
            edges = (edges - set(deletions)) | set(insertions)


class TestStats:
    def test_percentile_needs_ten_samples_beyond(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(range(199), 95)
        assert stats.percentile(range(1, 201), 95) == 190
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(range(999), 99)
        assert stats.percentile(range(1, 1001), 99) == 990

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile(range(1000), 100)

    def test_reconcile_adds_the_residual(self):
        rows = stats.reconcile(10.0, {"a": 3.0, "b": 4.5})
        assert rows == {"a": 3.0, "b": 4.5, "residual": 2.5}
        assert sum(rows.values()) == pytest.approx(10.0)
        assert stats.reconcile(1.0, {"a": 1.5})["residual"] == pytest.approx(-0.5)
        with pytest.raises(ValueError):
            stats.reconcile(1.0, {"residual": 1.0})

    def test_overhead_pct(self):
        assert stats.overhead_pct(1.1, 1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            stats.overhead_pct(1.0, 0.0)

    def test_layer_rows_reconcile_spans(self):
        clock = iter([0.0, 1.0, 3.0, 3.5, 4.5, 5.0, 10.0, 11.0, 12.0, 12.5, 13.0, 14.0]).__next__
        log = SpanLog(True, clock=clock)
        for _ in range(2):
            with log.span("lifecycle.build"):
                with log.span("storage.save"):
                    pass
                with log.span("storage.load_verify"):
                    pass
        total, rows = layer_rows(log, "lifecycle.build", ("storage.save", "storage.load_verify"))
        # Builds of 5.0 s and 4.0 s; saves of 2.0 s and 1.0 s; verifies of 1.0 s and 0.5 s.
        assert total == pytest.approx(4.5)
        assert rows["storage.save"] == pytest.approx(1.5)
        assert rows["storage.load_verify"] == pytest.approx(0.75)
        assert sum(rows.values()) == pytest.approx(total)


class TestOracle:
    def test_paper_example(self):
        sims = oracle.similarities(11, PAPER_EDGES)
        cores, clusters, borders = oracle.scan(11, sims, 3, 0.6)
        assert cores == {0, 1, 2, 3, 5, 6, 7}
        assert sorted(map(sorted, clusters)) == [[0, 1, 2, 3], [5, 6, 7]]
        assert borders == {10: {1}}

    def test_check_accepts_the_library_answer(self):
        from repro import ScanIndex
        from repro.graphs import from_edge_list

        index = ScanIndex.build(from_edge_list(PAPER_EDGES, num_vertices=11))
        sims = oracle.similarities(11, PAPER_EDGES)
        for mu, epsilon in [(2, 0.5), (3, 0.6), (4, 0.7), (5, 0.45)]:
            clustering = index.query(mu, epsilon)
            answer = oracle.scan(11, sims, mu, epsilon)
            assert oracle.check(clustering.labels.tolist(), clustering.core_mask.tolist(), answer) == []

    def test_check_reports_wrong_answers(self):
        sims = oracle.similarities(11, PAPER_EDGES)
        answer = oracle.scan(11, sims, 3, 0.6)
        labels = [0, 0, 0, 0, -1, 1, 1, 1, -1, -1, 1]
        cores = [v in answer[0] for v in range(11)]
        assert oracle.check(labels, cores, answer) == []
        assert oracle.check([0] * 4 + [-1] + [1] * 3 + [-1, -1, -1], cores, answer)
        assert oracle.check([0, 0, 0, 1, -1, 1, 1, 1, -1, -1, 1], cores, answer)
        assert oracle.check(labels, [True] * 11, answer)
