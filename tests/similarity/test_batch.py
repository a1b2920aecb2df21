"""Property tests for the vectorised batch similarity engine.

The batch backend must agree with the scalar ``merge`` and ``hash`` reference
backends to 1e-9 on random weighted and unweighted graphs across all three
measures, including the degenerate shapes (empty graph, star, clique), and it
must charge the scheduler exactly the costs of the merge engine it
vectorises.
"""

import numpy as np
import pytest

from repro.graphs import complete_graph, empty_graph, from_edge_list
from repro.parallel import Scheduler
from repro.similarity import compute_similarities, edge_numerators_for_subset
from repro.similarity import batch
from repro.similarity.batch import batch_numerators

MEASURES = ("cosine", "jaccard", "dice")


def random_graph(rng, num_vertices, edge_probability, *, weighted=False):
    """Erdős–Rényi-style graph (optionally with random positive weights)."""
    upper = np.triu(rng.random((num_vertices, num_vertices)) < edge_probability, k=1)
    edge_u, edge_v = np.nonzero(upper)
    edges = np.stack([edge_u, edge_v], axis=1)
    weights = 0.1 + rng.random(edges.shape[0]) if weighted else None
    return from_edge_list(edges, num_vertices=num_vertices, weights=weights)


def star_graph(num_leaves):
    return from_edge_list([(0, i) for i in range(1, num_leaves + 1)])


class TestAgreesWithReferenceBackends:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_unweighted_graphs(self, measure, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, int(rng.integers(2, 60)), float(rng.uniform(0.05, 0.5)))
        batch = compute_similarities(graph, measure=measure, backend="batch")
        merge = compute_similarities(graph, measure=measure, backend="merge")
        hashed = compute_similarities(graph, measure=measure, backend="hash")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)
        np.testing.assert_allclose(batch.values, hashed.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_weighted_graphs_cosine(self, seed):
        rng = np.random.default_rng(100 + seed)
        graph = random_graph(
            rng, int(rng.integers(2, 50)), float(rng.uniform(0.1, 0.5)), weighted=True
        )
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        hashed = compute_similarities(graph, backend="hash")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)
        np.testing.assert_allclose(batch.values, hashed.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_empty_graph(self, measure):
        similarities = compute_similarities(empty_graph(4), measure=measure, backend="batch")
        assert len(similarities) == 0

    @pytest.mark.parametrize("measure", MEASURES)
    def test_star_graph(self, measure):
        graph = star_graph(20)
        batch = compute_similarities(graph, measure=measure, backend="batch")
        merge = compute_similarities(graph, measure=measure, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_clique(self, measure):
        graph = complete_graph(7)
        batch = compute_similarities(graph, measure=measure, backend="batch")
        assert np.allclose(batch.values, 1.0)

    def test_single_edge(self):
        graph = from_edge_list([(0, 1)])
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)

    def test_edgeless_vertices_graph(self):
        graph = from_edge_list([(0, 1), (1, 2)], num_vertices=10)
        batch = compute_similarities(graph, backend="batch")
        merge = compute_similarities(graph, backend="merge")
        np.testing.assert_allclose(batch.values, merge.values, atol=1e-9, rtol=0)


class TestChunking:
    @pytest.mark.parametrize("chunk_pairs", [1, 3, 17, 1 << 22])
    def test_chunk_size_does_not_change_results(self, community_graph, chunk_pairs):
        reference = batch_numerators(community_graph, Scheduler())
        chunked = batch_numerators(community_graph, Scheduler(), chunk_pairs=chunk_pairs)
        np.testing.assert_array_equal(reference, chunked)

    def test_invalid_chunk_size_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            batch_numerators(triangle_graph, Scheduler(), chunk_pairs=0)


class TestCostModel:
    def test_charges_identical_to_merge(self, community_graph, weighted_graph):
        for graph in (community_graph, weighted_graph):
            batch_scheduler, merge_scheduler = Scheduler(), Scheduler()
            compute_similarities(graph, backend="batch", scheduler=batch_scheduler)
            compute_similarities(graph, backend="merge", scheduler=merge_scheduler)
            assert batch_scheduler.counter.work == merge_scheduler.counter.work
            assert batch_scheduler.counter.span == merge_scheduler.counter.span

    def test_span_stays_logarithmic(self, community_graph):
        scheduler = Scheduler()
        compute_similarities(community_graph, backend="batch", scheduler=scheduler)
        assert scheduler.counter.span < scheduler.counter.work / 50


class TestSubsetNumerators:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_batch_on_subset(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph = random_graph(rng, 40, 0.2, weighted=bool(seed % 2))
        full = batch_numerators(graph, Scheduler())
        subset = rng.choice(graph.num_edges, size=graph.num_edges // 2, replace=False)
        partial = edge_numerators_for_subset(graph, subset, Scheduler())
        np.testing.assert_allclose(partial, full[subset], atol=1e-9, rtol=0)

    def test_empty_subset(self, community_graph):
        result = edge_numerators_for_subset(
            community_graph, np.zeros(0, dtype=np.int64), Scheduler()
        )
        assert result.shape == (0,)


def hub_heavy_graph(clique_size=30, star_leaves=200):
    """A clique sharing its hub vertex 0 with a long star of leaves."""
    clique = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
    star = [(0, clique_size + leaf) for leaf in range(star_leaves)]
    return from_edge_list(clique + star)


def dyadic_weighted_graph(rng, num_vertices, edge_probability):
    """Random graph whose weights are multiples of 1/4 in [0.25, 2].

    Every product and sum of such weights is exact in float64, so the
    numerators cannot depend on summation order and backends must agree
    bit for bit.
    """
    graph = random_graph(rng, num_vertices, edge_probability)
    weights = rng.integers(1, 9, size=graph.num_edges) / 4.0
    return from_edge_list(
        np.stack(graph.edge_list(), axis=1), num_vertices=num_vertices, weights=weights
    )


def merge_numerators(graph):
    return compute_similarities(graph, backend="merge").numerators


class TestSlotTableProbe:
    """The slot-table probe finds exactly the merge engine's triangles."""

    @pytest.mark.parametrize(
        "graph",
        [
            hub_heavy_graph(),
            star_graph(50),
            empty_graph(6),
            from_edge_list([(0, 1), (1, 2), (0, 2), (5, 7), (7, 9), (5, 9)], num_vertices=40),
            dyadic_weighted_graph(np.random.default_rng(500), 45, 0.3),
            random_graph(np.random.default_rng(501), 60, 0.25),
        ],
        ids=["hub-heavy", "star", "empty", "isolated-vertices", "weighted", "random"],
    )
    @pytest.mark.parametrize("table_bytes", [None, 64])
    def test_equals_merge_exactly(self, monkeypatch, graph, table_bytes):
        if table_bytes is not None:
            # A tiny table forces one block per source; the engine sizes it
            # up to the longest single out-segment.
            monkeypatch.setattr(batch, "SLOT_TABLE_BYTES", table_bytes)
        np.testing.assert_array_equal(
            batch_numerators(graph, Scheduler()), merge_numerators(graph)
        )

    def test_ranges_cut_inside_an_out_segment_sum_to_the_full_pass(self):
        graph = hub_heavy_graph()
        oriented = graph.degree_oriented_csr()
        num_oriented = int(oriented.indices.shape[0])
        full = np.zeros(graph.num_edges)
        batch.accumulate_oriented_contributions(
            full, oriented, 0, num_oriented, chunk_pairs=1 << 22
        )
        for cut in range(1, num_oriented):
            pieces = np.zeros(graph.num_edges)
            for lo, hi in ((0, cut), (cut, num_oriented)):
                batch.accumulate_oriented_contributions(
                    pieces, oriented, lo, hi, chunk_pairs=7
                )
            np.testing.assert_array_equal(pieces, full)

    def test_jobs2_shard_cut_inside_an_out_segment(self, monkeypatch):
        from repro.parallel import execute

        monkeypatch.setattr(execute, "PARALLEL_FLOOR_ARCS", 0)
        graph = hub_heavy_graph()
        oriented = graph.degree_oriented_csr()
        # The cut sharded_numerators makes for two shards (pair-count median).
        cumulative = np.cumsum(np.diff(oriented.indptr)[oriented.indices])
        cut = int(np.searchsorted(cumulative, int(cumulative[-1]) // 2))
        assert cut not in set(oriented.indptr.tolist()), "cut must split a segment"
        with execute.ParallelExecutor(2) as executor:
            sharded = batch_numerators(graph, Scheduler(), executor=executor)
        np.testing.assert_array_equal(sharded, batch_numerators(graph, Scheduler()))
        np.testing.assert_array_equal(sharded, merge_numerators(graph))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_subset_equals_full_pass(self, weighted):
        rng = np.random.default_rng(600 + weighted)
        graph = (
            dyadic_weighted_graph(rng, 50, 0.3) if weighted
            else random_graph(rng, 50, 0.3)
        )
        subset = rng.choice(graph.num_edges, size=graph.num_edges // 3, replace=False)
        np.testing.assert_array_equal(
            edge_numerators_for_subset(graph, subset, Scheduler()),
            batch_numerators(graph, Scheduler())[subset],
        )
