"""Tests for graph file I/O (edge list and adjacency formats)."""

import re

import numpy as np
import pytest

from repro.graphs import io
from repro.graphs import (
    from_edge_list,
    from_weighted_edge_list,
    read_adjacency,
    read_edge_list,
    write_adjacency,
    write_edge_list,
)


class TestEdgeListFormat:
    def test_roundtrip_unweighted(self, tmp_path, paper_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(paper_graph, path)
        assert read_edge_list(path) == paper_graph

    def test_roundtrip_weighted(self, tmp_path):
        graph = from_weighted_edge_list([(0, 1, 0.25), (1, 2, 0.75)])
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.is_weighted
        assert loaded.edge_weight(0, 1) == pytest.approx(0.25)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# a comment\n\n% another\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    @pytest.mark.parametrize("body", [
        "0 1\n1 2\n0 2\n",
        "# header\n5 6\n",
        "0 1 0.25\n1 2 2\n",
        "0 1 3\n1 2 4\n",
        "0 1\n1 2 0.5\n",
        "0 1 # trailing note\n1 2\n",
        "% matrix-market style\n0 1\n",
        "1 0\n0 1 0.5\n2 2\n",
        "",
        "# only a comment\n",
    ], ids=[
        "uniform", "single-line", "weighted", "integer-weights", "ragged",
        "inline-comment", "percent-comment", "duplicate-and-loop", "empty",
        "comment-only",
    ])
    def test_fast_path_matches_line_scanner(self, tmp_path, body):
        path = tmp_path / "graph.txt"
        path.write_text(body)
        edges, weights = io._scan_edge_list(path)
        expected = from_edge_list(edges, weights=weights)
        loaded = read_edge_list(path)
        assert loaded == expected
        assert loaded.is_weighted == expected.is_weighted
        if expected.is_weighted:
            assert np.array_equal(loaded.edge_weights, expected.edge_weights)

    @pytest.mark.parametrize("body, line", [
        ("0 1\n1 x\n", 2),
        ("0 1\n1.5 2\n", 2),
        ("# c\n0 1\n-3 2\n", 3),
        ("0 1 0.5\n1 2 w\n", 2),
    ])
    def test_errors_name_the_line(self, tmp_path, body, line):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
            read_edge_list(path)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("0 1\n")
        graph = read_edge_list(path, num_vertices=10)
        assert graph.num_vertices == 10


class TestAdjacencyFormat:
    def test_roundtrip_unweighted(self, tmp_path, paper_graph):
        path = tmp_path / "graph.adj"
        write_adjacency(paper_graph, path)
        assert read_adjacency(path) == paper_graph

    def test_roundtrip_weighted(self, tmp_path):
        graph = from_weighted_edge_list([(0, 1, 0.5), (0, 2, 0.1), (1, 2, 0.9)])
        path = tmp_path / "weighted.adj"
        write_adjacency(graph, path)
        loaded = read_adjacency(path)
        assert loaded == graph

    def test_header_is_recognisable(self, tmp_path):
        graph = from_edge_list([(0, 1)])
        path = tmp_path / "graph.adj"
        write_adjacency(graph, path)
        assert path.read_text().splitlines()[0] == "AdjacencyGraph"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("NotAGraph\n1\n0\n")
        with pytest.raises(ValueError):
            read_adjacency(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.adj"
        path.write_text("")
        with pytest.raises(ValueError):
            read_adjacency(path)
