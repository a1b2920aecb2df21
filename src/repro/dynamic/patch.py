"""The index patcher: apply an :class:`UpdateBatch` with localized repair.

A full rebuild after a batch of edge updates pays the whole construction
again: ``O(m^{3/2})`` triangle work for the similarities plus global
segmented sorts for both orders.  This module repairs a built
:class:`~repro.core.index.ScanIndex` instead, doing similarity work only on
the *affected* edges and sorting work only on the *affected* vertices'
runs, while producing output **bit-identical** to a from-scratch rebuild on
the mutated graph (for exactly built indexes of unweighted graphs; weighted
cosine scores agree up to float summation order, exactly the tolerance the
similarity backends already grant each other).

The patch runs in four localized stages:

1. **Graph splice** (:func:`_splice_graph`): the CSR arrays, canonical edge
   list and arc -> edge-id mapping are respliced around the deleted/inserted
   positions -- pure memcpy-scale passes plus ``O(b log b)`` searches for a
   batch of ``b`` ops; no adjacency list is re-sorted (inserted neighbors
   merge into already-sorted rows at their binary-searched positions).
2. **Affected similarity recompute** (:func:`_recompute_affected`): an edge's
   closed-neighborhood intersection changes only if one endpoint's
   neighborhood changed, so exactly the edges incident to a *touched*
   endpoint (an endpoint of some op) are recomputed, through the same
   vectorised subset engine (:func:`~repro.similarity.batch.
   edge_numerators_for_subset`) the LSH fallback batches with.  Every other
   edge keeps its stored score verbatim.
3. **Neighbor-order patch** (:func:`_patch_neighbor_order`): only vertices
   in ``T ∪ N(T)`` (touched plus their new neighbors) can see their sorted
   segment change.  Each such segment is rebuilt as a **merge of two sorted
   runs** -- the surviving entries, already in order, and the
   changed/inserted entries, sorted among themselves -- via simultaneous
   segmented binary searches; untouched segments are copied verbatim to
   their shifted offsets.  No global argsort is performed.
4. **Core-order patch** (:func:`_patch_core_order`): the same merge treatment
   for every ``CO[μ]`` segment: surviving entries of unaffected vertices
   keep their relative order (their thresholds and the degree/id tie keys
   are unchanged), and the affected vertices' re-derived ``(vertex, μ)``
   entries are merged in at their searched positions.

Bit-identity rests on the orders being *value-determined*: the construction
sorts are stable sorts by exact similarity rank keys, so ``NO[v]`` is
exactly "neighbors by (similarity desc, id asc)" and ``CO[μ]`` exactly
"candidates by (threshold desc, degree desc, id asc)" -- deterministic
total orders the merge reproduces without re-running the sorts.  The
randomized stream tests in ``tests/property/`` enforce equality of every
stored column against a rebuild after every batch.

Approximate (LSH-built) indexes are rejected: their scores come from global
random sketches, so no localized recompute can match a re-sketch.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..core.core_order import CoreOrder, build_core_order
from ..core.neighbor_order import NeighborOrder, build_neighbor_order
from ..graphs.graph import Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import (
    segmented_arange,
    segmented_ranges,
    segmented_searchsorted,
)
from ..parallel.scheduler import Scheduler
from ..similarity.batch import edge_numerators_for_subset
from ..similarity.exact import EdgeSimilarities, finalise_numerators
from .updates import UpdateBatch, UpdateReport

__all__ = ["apply_updates"]

#: When the batch's changed arcs exceed this fraction of the graph, the
#: patch re-sorts both orders outright (the same construction code a full
#: build runs, on the patched similarities -- identical output by
#: definition) instead of merging runs: at that churn the changed runs
#: rival the kept runs and the C-speed packed segmented argsort beats the
#: merge's search-and-splice passes.  Measured crossover on the
#: ``bench_updates`` ladder (merge wins below ~3% churn, resort above ~8%).
ORDER_REBUILD_CHURN = 0.05


def _cumsum0(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums with the total appended (CSR-style offsets)."""
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _descending_keys(values: np.ndarray) -> np.ndarray:
    """Int64 keys whose ascending order is the *descending* order of ``values``.

    The classic radix transform for IEEE-754 doubles: flip every bit of a
    negative, only the sign bit of a non-negative -- ascending uint64 then
    equals ascending float -- and a final sign-bit flip reinterprets that
    as ascending int64; negation turns it descending.  Exact (no
    quantisation, no rank pass) and total over any non-NaN float64, so the
    merge path stays correct even for exotic score sets such as negative
    weighted-cosine values from negative edge weights.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    sign = np.uint64(1) << np.uint64(63)
    ascending = (np.where(bits & sign, ~bits, bits | sign) ^ sign).view(np.int64)
    return -ascending


# ----------------------------------------------------------------------
# Stage 1: graph splice
# ----------------------------------------------------------------------
def _validate_batch(graph: Graph, batch: UpdateBatch) -> None:
    """Reject out-of-range, already-present, or absent ops with clear errors."""
    n = graph.num_vertices
    for kind, us, vs in (
        ("insertion", batch.insert_u, batch.insert_v),
        ("deletion", batch.delete_u, batch.delete_v),
    ):
        if us.size and int(vs.max()) >= n:
            offender = int(vs.max())
            raise ValueError(
                f"{kind} endpoint {offender} is out of range for a graph of "
                f"{n} vertices (the index's vertex set is fixed)"
            )
    if batch.insert_weights is not None and not graph.is_weighted:
        raise ValueError(
            "insertions carry explicit weights but the indexed graph is "
            "unweighted; drop the weights or rebuild a weighted index"
        )
    if batch.delete_u.size:
        _, found = graph.locate_neighbors(batch.delete_u, batch.delete_v)
        if not found.all():
            missing = int(np.flatnonzero(~found)[0])
            raise ValueError(
                f"cannot delete edge ({int(batch.delete_u[missing])}, "
                f"{int(batch.delete_v[missing])}): not in the graph"
            )
    if batch.insert_u.size:
        _, found = graph.locate_neighbors(batch.insert_u, batch.insert_v)
        if found.any():
            # Inserting a present edge is allowed only as the insert half
            # of a delete + re-insert reweight pair (weighted batches keep
            # such pairs instead of cancelling them).
            span = np.int64(max(n, 1))
            deleted_too = np.isin(
                batch.insert_u * span + batch.insert_v,
                batch.delete_u * span + batch.delete_v,
            )
            offending = found & ~deleted_too
            if offending.any():
                present = int(np.flatnonzero(offending)[0])
                raise ValueError(
                    f"cannot insert edge ({int(batch.insert_u[present])}, "
                    f"{int(batch.insert_v[present])}): already in the graph"
                )


def _splice_graph(
    graph: Graph, batch: UpdateBatch, scheduler: Scheduler
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Apply the batch to the CSR arrays and the canonical edge numbering.

    Returns ``(new_graph, old_to_new, inserted_edge_ids)`` where
    ``old_to_new`` maps every old canonical edge id to its id in the new
    graph (``-1`` for deleted edges) and ``inserted_edge_ids`` lists the new
    ids of the batch's insertions, aligned with ``batch.insert_u``.

    Canonical edge ids are positions in the lexicographic ``(u, v)`` edge
    list, so a delete/insert shifts every later id; the shift is computed
    with two binary searches over the (tiny, sorted) op arrays and applied
    as one gather -- the arrays are rewritten, but nothing is re-sorted.
    """
    n = graph.num_vertices
    num_old = graph.num_edges
    ins_u, ins_v, del_u, del_v = (
        batch.insert_u, batch.insert_v, batch.delete_u, batch.delete_v,
    )
    num_ins, num_del = int(ins_u.size), int(del_u.size)
    span = np.int64(max(n, 1))
    old_keys = graph.edge_u * span + graph.edge_v

    # --- Canonical edge numbering: survivors shift by the net op count
    # before them; insertions slot in at their searched rank.
    survive = np.ones(num_old, dtype=bool)
    if num_del:
        survive[np.searchsorted(old_keys, del_u * span + del_v)] = False
    ins_keys = ins_u * span + ins_v
    rank_within_survivors = np.cumsum(survive) - 1
    old_to_new = np.where(
        survive,
        rank_within_survivors + np.searchsorted(ins_keys, old_keys),
        np.int64(-1),
    )
    surviving_keys = old_keys[survive]
    inserted_edge_ids = (
        np.searchsorted(surviving_keys, ins_keys) + np.arange(num_ins, dtype=np.int64)
    )

    # --- Arc splice: locate the two arcs of every op, then rewrite the CSR
    # payload arrays in one scatter per side (kept arcs keep their relative
    # order; inserted arcs land at their binary-searched in-row positions).
    if num_del:
        del_pos_uv, _ = graph.locate_neighbors(del_u, del_v)
        del_pos_vu, _ = graph.locate_neighbors(del_v, del_u)
        deleted_arc_pos = np.concatenate([del_pos_uv, del_pos_vu])
    else:
        deleted_arc_pos = np.zeros(0, dtype=np.int64)
    keep = np.ones(graph.num_arcs, dtype=bool)
    keep[deleted_arc_pos] = False

    if num_ins:
        ins_pos_uv, _ = graph.locate_neighbors(ins_u, ins_v)
        ins_pos_vu, _ = graph.locate_neighbors(ins_v, ins_u)
        points = np.concatenate([ins_pos_uv, ins_pos_vu])
        arc_sources = np.concatenate([ins_u, ins_v])
        arc_targets = np.concatenate([ins_v, ins_u])
        arc_edge_ids_ins = np.concatenate([inserted_edge_ids, inserted_edge_ids])
        if graph.is_weighted:
            weights = (
                batch.insert_weights
                if batch.insert_weights is not None
                else np.ones(num_ins, dtype=np.float64)
            )
            arc_weights_ins = np.concatenate([weights, weights])
        else:
            arc_weights_ins = None
        # Final CSR order is (source, target); insertion points are
        # non-decreasing under that order, so after this sort the k-th
        # inserted arc has exactly k inserted arcs before it.
        order = np.lexsort((arc_targets, arc_sources))
        points = points[order]
        arc_targets = arc_targets[order]
        arc_edge_ids_ins = arc_edge_ids_ins[order]
        if arc_weights_ins is not None:
            arc_weights_ins = arc_weights_ins[order]
    else:
        points = np.zeros(0, dtype=np.int64)
        arc_targets = np.zeros(0, dtype=np.int64)
        arc_edge_ids_ins = np.zeros(0, dtype=np.int64)
        arc_weights_ins = None

    kept_old_pos = np.flatnonzero(keep)
    # kept arc at old position p lands after the kept arcs before it plus
    # the inserted arcs whose insertion point is ≤ p.
    new_pos_kept = (
        np.arange(kept_old_pos.shape[0], dtype=np.int64)
        + np.searchsorted(points, kept_old_pos, side="right")
    )
    # inserted arc k lands after the kept arcs strictly before its point
    # plus the k inserted arcs sorted before it.
    kept_before = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(keep, dtype=np.int64)]
    )
    new_pos_ins = kept_before[points] + np.arange(points.shape[0], dtype=np.int64)

    num_new_arcs = graph.num_arcs - 2 * num_del + 2 * num_ins
    new_indices = np.empty(num_new_arcs, dtype=np.int64)
    new_indices[new_pos_kept] = graph.indices[kept_old_pos]
    new_indices[new_pos_ins] = arc_targets
    new_arc_edge_ids = np.empty(num_new_arcs, dtype=np.int64)
    new_arc_edge_ids[new_pos_kept] = old_to_new[graph.arc_edge_ids[kept_old_pos]]
    new_arc_edge_ids[new_pos_ins] = arc_edge_ids_ins
    if graph.is_weighted:
        new_arc_weights = np.empty(num_new_arcs, dtype=np.float64)
        new_arc_weights[new_pos_kept] = graph.arc_weights[kept_old_pos]
        new_arc_weights[new_pos_ins] = (
            arc_weights_ins
            if arc_weights_ins is not None
            else np.ones(points.shape[0], dtype=np.float64)
        )
    else:
        new_arc_weights = None

    degree_delta = np.zeros(n, dtype=np.int64)
    if num_ins:
        np.add.at(degree_delta, ins_u, 1)
        np.add.at(degree_delta, ins_v, 1)
    if num_del:
        np.add.at(degree_delta, del_u, -1)
        np.add.at(degree_delta, del_v, -1)
    new_indptr = _cumsum0(graph.degrees + degree_delta)

    # Splice cost: linear passes over the arc arrays plus O(b log) searches.
    scheduler.charge(
        graph.num_arcs + num_new_arcs + (num_ins + num_del) * (ceil_log2(max(num_old, 1)) + 1.0),
        ceil_log2(max(num_new_arcs, 1)) + 1.0,
    )
    new_graph = Graph.from_index_columns(
        new_indptr, new_indices, new_arc_weights, new_arc_edge_ids
    )
    return new_graph, old_to_new, inserted_edge_ids


# ----------------------------------------------------------------------
# Stage 2: affected similarity recompute
# ----------------------------------------------------------------------
def _triangle_sides(
    graph: Graph, op_u: np.ndarray, op_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangles through each op edge: ``(op_index, side1_ids, side2_ids)``.

    For every op edge ``(u, v)``, the edges whose closed-neighborhood dot
    product gains or loses a term when ``(u, v)`` appears or disappears are
    exactly the two side edges ``(u, x)``/``(v, x)`` of each triangle
    through ``(u, v)`` (the op edge itself is handled by the caller).  One
    batched probe of the lower-degree endpoint's neighbors against the
    other endpoint's list -- ``O(Σ min(deg u, deg v))`` work for the whole
    batch -- enumerates them, one row per triangle.
    """
    degrees = graph.degrees
    swap = degrees[op_u] > degrees[op_v]
    op_u, op_v = np.where(swap, op_v, op_u), np.where(swap, op_u, op_v)
    counts = degrees[op_u]
    if int(counts.sum()) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    candidate_pos = segmented_ranges(graph.indptr[op_u], counts)
    candidates = graph.indices[candidate_pos]
    positions, found = graph.locate_neighbors(np.repeat(op_v, counts), candidates)
    op_index = np.repeat(np.arange(op_u.shape[0], dtype=np.int64), counts)
    return (
        op_index[found],
        graph.arc_edge_ids[candidate_pos[found]],  # edges (u, x)
        graph.arc_edge_ids[positions[found]],      # edges (v, x)
    )


def _rank_among(sorted_ids: np.ndarray, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each id within a sorted id array, plus a membership mask."""
    rank = np.searchsorted(sorted_ids, edge_ids)
    member = np.zeros(edge_ids.shape[0], dtype=bool)
    in_range = rank < sorted_ids.shape[0]
    member[in_range] = sorted_ids[rank[in_range]] == edge_ids[in_range]
    return rank, member


def _triangle_deltas(
    graph: Graph,
    op_u: np.ndarray,
    op_v: np.ndarray,
    op_edge_ids: np.ndarray,
    num_edges_out: int,
    map_ids,
) -> np.ndarray:
    """Per-edge triangle-count deltas caused by the given op edges.

    Enumerates every triangle through an op edge in ``graph`` and adds one
    to both side edges -- attributing each triangle to its lowest-ranked op
    edge so a triangle closed by several ops of one batch counts exactly
    once, and skipping side edges that are ops themselves (their numerators
    are computed fresh).  ``map_ids`` translates ``graph``'s edge ids into
    the output numbering (identity for insertions enumerated on the new
    graph; the old-to-new map for deletions enumerated on the old one).
    Returns a dense delta array over ``num_edges_out`` edges.
    """
    delta = np.zeros(num_edges_out, dtype=np.float64)
    op_index, side1, side2 = _triangle_sides(graph, op_u, op_v)
    if op_index.size == 0:
        return delta
    rank1, is_op1 = _rank_among(op_edge_ids, side1)
    rank2, is_op2 = _rank_among(op_edge_ids, side2)
    sentinel = np.int64(op_edge_ids.shape[0] + 1)
    lowest_other = np.minimum(
        np.where(is_op1, rank1, sentinel), np.where(is_op2, rank2, sentinel)
    )
    attributed = lowest_other > op_index
    for side, is_op in ((side1, is_op1), (side2, is_op2)):
        contribute = map_ids(side[attributed & ~is_op])
        if contribute.size:
            delta += np.bincount(contribute, minlength=num_edges_out)
    return delta


def _numerator_affected_edges(
    old_graph: Graph,
    new_graph: Graph,
    batch: UpdateBatch,
    old_to_new: np.ndarray,
    inserted_edge_ids: np.ndarray,
) -> np.ndarray:
    """New-graph edge ids whose closed-neighborhood numerator changed.

    A term ``(a, b, x)`` of ``num(a, b)`` appears or disappears only when
    an edge of the triangle ``{a, b, x}`` was inserted or deleted, so the
    changed numerators are the op edges themselves plus the side edges of
    every triangle through an op edge -- enumerated on the *new* graph for
    insertions and the *old* graph (then id-mapped) for deletions.  This is
    typically far smaller than "all edges incident to a touched endpoint",
    which only bounds where the *denominators* change.
    """
    pieces = [inserted_edge_ids]
    if batch.insert_u.size:
        _, side1, side2 = _triangle_sides(new_graph, batch.insert_u, batch.insert_v)
        pieces.extend([side1, side2])
    if batch.delete_u.size:
        _, side1, side2 = _triangle_sides(old_graph, batch.delete_u, batch.delete_v)
        mapped = old_to_new[np.concatenate([side1, side2])]
        pieces.append(mapped[mapped >= 0])
    return np.unique(np.concatenate(pieces))




# ----------------------------------------------------------------------
# The segmented merge-of-sorted-runs machinery shared by both patchers
# ----------------------------------------------------------------------
def _lexicographic_lower_bound(
    haystack_k1: np.ndarray,
    haystack_k2: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    query_k1: np.ndarray,
    query_k2: np.ndarray,
    *,
    segment_offsets: np.ndarray | None = None,
    query_segments: np.ndarray | None = None,
) -> np.ndarray:
    """Per-query lower bound under the key pair ``(k1, k2)``, segment-bounded.

    Each haystack segment is sorted ascending by ``(k1, k2)``; the result
    is the absolute position of the first entry ``>= (query_k1, query_k2)``
    lexicographically.  Two strategies locate the ``k1`` tie range, picked
    by the measured crossover (bounded rounds pay numpy-pass overhead per
    round, a single C-speed search pays ``O(log haystack)`` per query):

    * **bounded rounds** (few queries): two simultaneous segmented binary
      searches -- a ``k1`` lower bound and a ``k1`` upper bound via
      ``k1 + 1`` (the keys are int64) -- costing ``O(log max_segment)``
      whole-array rounds over the query set;
    * **global rank pack** (query count rivals the haystack): ``k1`` values
      are rank-reduced over the haystack once, packed with the segment id
      into one int64, and both bounds resolve with single C-speed
      ``np.searchsorted`` calls over the packed haystack.  Requires
      ``segment_offsets``/``query_segments``; queries whose value is absent
      get an empty tie range, exactly like the rounds strategy.

    Either way a final segmented ``k2`` lower bound inside the (short) tie
    range finishes the lexicographic comparison.
    """
    if query_k1.size == 0:
        return np.asarray(starts, dtype=np.int64).copy()
    rounds = ceil_log2(int(np.max(ends - starts, initial=1)) + 1) + 1.0
    packable = (
        segment_offsets is not None
        and haystack_k1.size > 0
        and int(segment_offsets.shape[0] - 1)
        * (2 * int(haystack_k1.shape[0]) + 2) < (1 << 62)
    )
    if packable and query_k1.size * rounds >= haystack_k1.size:
        distinct, rank = np.unique(haystack_k1, return_inverse=True)
        num_distinct = int(distinct.shape[0])
        span = np.int64(2 * num_distinct + 2)
        segment_ids = np.repeat(
            np.arange(segment_offsets.shape[0] - 1, dtype=np.int64),
            np.diff(segment_offsets),
        )
        packed = segment_ids * span + (2 * rank.astype(np.int64) + 1)
        query_rank = np.searchsorted(distinct, query_k1)
        matched = (query_rank < num_distinct) & (
            distinct[np.minimum(query_rank, num_distinct - 1)] == query_k1
        )
        base = query_segments * span + 2 * query_rank
        lo = np.searchsorted(packed, base)
        hi = np.searchsorted(packed, base + matched, side="right")
    else:
        lo = segmented_searchsorted(haystack_k1, query_k1, starts, ends)
        hi = segmented_searchsorted(haystack_k1, query_k1 + 1, starts, ends)
    return segmented_searchsorted(haystack_k2, query_k2, lo, hi)


def _merge_into(
    total: int,
    kept_positions: np.ndarray,
    inserted_positions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination slots for a segmented merge of kept and inserted runs.

    ``inserted_positions`` are the (absolute, precomputed) output slots of
    the inserted run; the kept run fills the remaining slots in order --
    which is exactly a merge: the kept run is never re-sorted.  Returns
    ``(kept_slots, inserted_positions)`` with ``kept_slots`` aligned to
    ``kept_positions``.
    """
    taken = np.zeros(total, dtype=bool)
    taken[inserted_positions] = True
    kept_slots = np.flatnonzero(~taken)
    if kept_slots.shape[0] != kept_positions.shape[0]:  # pragma: no cover
        raise AssertionError("merge slot accounting out of balance")
    return kept_slots, inserted_positions


# ----------------------------------------------------------------------
# Stage 3: neighbor-order patch
# ----------------------------------------------------------------------
def _patch_neighbor_order(
    old_order: NeighborOrder,
    old_graph: Graph,
    new_graph: Graph,
    new_values: np.ndarray,
    touched_mask: np.ndarray,
    changed_arc_mask: np.ndarray,
    scheduler: Scheduler,
) -> NeighborOrder:
    """Resplice ``NO`` so it equals a rebuild on the patched graph.

    ``NO[v]`` is "neighbors of ``v`` by (similarity desc, id asc)" -- a
    value-determined order.  Exactly the arcs incident to a touched
    endpoint changed (score, existence, or both); every other entry is a
    *kept* entry whose relative order is already correct.  The changed
    arcs, re-read from the patched graph with their new scores and sorted
    among themselves, are positioned by a lexicographic lower-bound search
    against the **old** sorted segments -- counting only kept entries via a
    removed-prefix correction -- and the kept entries stream into the
    remaining slots in order.  One merge, no re-sort of anything kept.
    """
    n = new_graph.num_vertices
    old_indptr = np.asarray(old_order.indptr)
    new_indptr = new_graph.indptr
    total_arcs = new_graph.num_arcs
    old_neighbors = np.asarray(old_order.neighbors)
    old_sims = np.asarray(old_order.similarities)

    # Removed entries of the old order: arcs incident to T on either side
    # (deleted arcs have both endpoints in T, so they are covered too).
    removed = touched_mask[old_neighbors] | touched_mask[old_graph.arc_sources()]
    kept_positions = np.flatnonzero(~removed)
    removed_before = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(removed, dtype=np.int64)]
    )

    # The changed run: new arcs incident to T, with their patched scores,
    # sorted within each source segment by (similarity desc, neighbor asc).
    changed_pos = np.flatnonzero(changed_arc_mask)
    new_sources = new_graph.arc_sources()
    q_source = new_sources[changed_pos]
    q_neighbor = new_graph.indices[changed_pos]
    q_sims = new_values[new_graph.arc_edge_ids[changed_pos]]
    q_k1 = _descending_keys(q_sims)
    order = np.lexsort((q_neighbor, q_k1, q_source))
    q_source = q_source[order]
    q_neighbor = q_neighbor[order]
    q_sims = q_sims[order]
    q_k1 = q_k1[order]

    # Lower bound of every changed entry in its old segment, corrected to
    # count kept entries only; its in-segment rank among the changed run
    # then pins the output slot.
    starts = old_indptr[q_source]
    position = _lexicographic_lower_bound(
        _descending_keys(old_sims), old_neighbors, starts,
        old_indptr[q_source + 1], q_k1, q_neighbor,
        segment_offsets=old_indptr, query_segments=q_source,
    )
    kept_before = (position - starts) - (
        removed_before[position] - removed_before[starts]
    )
    counts = np.bincount(q_source, minlength=n).astype(np.int64)
    rank_within = np.arange(q_source.shape[0], dtype=np.int64) - _cumsum0(counts)[q_source]
    inserted_slots = new_indptr[q_source] + kept_before + rank_within

    neighbors = np.empty(total_arcs, dtype=np.int64)
    similarities = np.empty(total_arcs, dtype=np.float64)
    kept_slots, _ = _merge_into(total_arcs, kept_positions, inserted_slots)
    neighbors[kept_slots] = old_neighbors[kept_positions]
    similarities[kept_slots] = old_sims[kept_positions]
    neighbors[inserted_slots] = q_neighbor
    similarities[inserted_slots] = q_sims

    max_segment = int(old_graph.max_degree)
    scheduler.charge(
        total_arcs + int(q_source.size) * (ceil_log2(max(max_segment, 1)) + 1.0),
        2 * ceil_log2(max(total_arcs, 1)) + 1.0,
    )
    return NeighborOrder(
        indptr=new_indptr.copy(),
        neighbors=neighbors,
        similarities=similarities,
    )


# ----------------------------------------------------------------------
# Stage 4: core-order patch
# ----------------------------------------------------------------------
def _patch_core_order(
    old_order: CoreOrder,
    old_graph: Graph,
    new_graph: Graph,
    new_neighbor_order: NeighborOrder,
    touched_mask: np.ndarray,
    scheduler: Scheduler,
) -> CoreOrder:
    """Resplice ``CO`` so it equals a rebuild on the patched graph.

    ``CO[μ]`` is "candidate cores by (threshold desc, degree desc, id asc)"
    -- also value-determined.  An entry ``(v, μ)`` keeps its relative order
    in its segment whenever its sort key is unchanged, which holds for the
    (typical) majority of entries: only every entry of a *touched* vertex
    (degree changed) plus the entries whose threshold ``NO[v][μ]`` actually
    moved are dropped and re-derived.  The re-derived entries are
    positioned by the same lexicographic search against the old segments
    with removed-prefix correction; the tie key packs ``(n - degree, id)``
    into one int64, mirroring the stable degree-sorted construction order.
    """
    n = new_graph.num_vertices
    degrees = new_graph.degrees
    max_mu = int(degrees.max(initial=0)) + 1 if n else 1
    num_segments = max(max_mu - 1, 0)  # one segment per μ in 2..max_mu
    new_sims = np.asarray(new_neighbor_order.similarities)
    old_co_indptr = np.asarray(old_order.indptr)
    old_vertices = np.asarray(old_order.vertices)
    old_thresholds = np.asarray(old_order.thresholds)
    old_max_mu = old_order.max_mu

    # Removed entries: every entry of a touched vertex, plus entries whose
    # threshold moved (compared against the patched neighbor order at the
    # same (v, μ) position -- valid for non-touched vertices, whose degree
    # is unchanged; touched positions are clamped and dropped regardless).
    # Entries of vertices outside the affected halo compare bit-equal
    # automatically, since their NO segments were kept verbatim.
    old_mu = np.repeat(
        np.arange(old_co_indptr.shape[0] - 1, dtype=np.int64),
        np.diff(old_co_indptr),
    )
    entry_touched = touched_mask[old_vertices]
    if new_sims.size:
        compare_pos = np.where(
            entry_touched,
            0,
            new_neighbor_order.indptr[old_vertices] + (old_mu - 2),
        )
        removed = entry_touched | (old_thresholds != new_sims[compare_pos])
    else:
        removed = np.ones(old_vertices.shape[0], dtype=bool)
    kept_positions = np.flatnonzero(~removed)
    removed_before = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(removed, dtype=np.int64)]
    )

    # Re-derived entries: the dropped non-touched (v, μ) keys, one for one,
    # plus every (v, μ) of a touched vertex at its new degree.
    moved_positions = np.flatnonzero(removed & ~entry_touched)
    touched_vertices = np.flatnonzero(touched_mask)
    touched_counts = degrees[touched_vertices]
    q_vertex = np.concatenate(
        [old_vertices[moved_positions], np.repeat(touched_vertices, touched_counts)]
    )
    q_mu = np.concatenate(
        [old_mu[moved_positions], segmented_arange(touched_counts) + 2]
    )
    q_thresholds = (
        new_sims[new_neighbor_order.indptr[q_vertex] + (q_mu - 2)]
        if q_vertex.size
        else np.zeros(0, dtype=np.float64)
    )
    q_k1 = _descending_keys(q_thresholds)
    q_k2 = (np.int64(n) - degrees[q_vertex]) * np.int64(n + 1) + q_vertex
    order = np.lexsort((q_k2, q_k1, q_mu))
    q_vertex = q_vertex[order]
    q_mu = q_mu[order]
    q_thresholds = q_thresholds[order]
    q_k1 = q_k1[order]
    q_k2 = q_k2[order]

    # Search against the OLD segments (sorted by their own keys; removed
    # entries are subtracted by position, so their stale keys are
    # irrelevant).  Haystack tie keys use old degrees for exactly that
    # reason.  μ segments beyond the old max have an empty haystack.
    safe_mu = np.minimum(q_mu, old_max_mu)
    exists = q_mu <= old_max_mu
    starts = np.where(exists, old_co_indptr[safe_mu], 0)
    ends = np.where(exists, old_co_indptr[safe_mu + 1], 0)
    old_degrees = old_graph.degrees
    haystack_k2 = (
        (np.int64(n) - old_degrees[old_vertices]) * np.int64(n + 1) + old_vertices
    )
    position = _lexicographic_lower_bound(
        _descending_keys(old_thresholds), haystack_k2, starts, ends, q_k1, q_k2,
        segment_offsets=old_co_indptr, query_segments=safe_mu,
    )
    # μ segments beyond the old max have no haystack; their entries are all
    # "first of their kind" (the rounds strategy returns starts == 0 there,
    # the packed strategy needs the override).
    position = np.where(exists, position, np.int64(0))
    kept_before = (position - starts) - (
        removed_before[position] - removed_before[starts]
    )

    # New segment offsets: kept counts plus re-derived counts per μ.
    kept_counts = np.bincount(
        old_mu[kept_positions] - 2, minlength=num_segments
    ).astype(np.int64)
    q_counts = np.bincount(q_mu - 2, minlength=num_segments).astype(np.int64)
    indptr = np.zeros(max_mu + 2, dtype=np.int64)
    lengths_by_mu = np.zeros(max_mu + 1, dtype=np.int64)
    if num_segments:
        lengths_by_mu[2:] = kept_counts + q_counts
    np.cumsum(lengths_by_mu, out=indptr[1:])
    total = int(indptr[-1])

    rank_within = (
        np.arange(q_mu.shape[0], dtype=np.int64) - _cumsum0(q_counts)[q_mu - 2]
    )
    inserted_slots = indptr[q_mu] + kept_before + rank_within
    vertices = np.empty(total, dtype=np.int64)
    thresholds = np.empty(total, dtype=np.float64)
    kept_slots, _ = _merge_into(total, kept_positions, inserted_slots)
    vertices[kept_slots] = old_vertices[kept_positions]
    thresholds[kept_slots] = old_thresholds[kept_positions]
    vertices[inserted_slots] = q_vertex
    thresholds[inserted_slots] = q_thresholds

    max_segment = int(np.diff(old_co_indptr).max(initial=0))
    scheduler.charge(
        total + int(q_mu.size) * (ceil_log2(max(max_segment, 1)) + 1.0),
        2 * ceil_log2(max(total, 1)) + 1.0,
    )
    return CoreOrder(indptr=indptr, vertices=vertices, thresholds=thresholds)


# ----------------------------------------------------------------------
# The public entry point
# ----------------------------------------------------------------------
def apply_updates(
    index,
    batch: UpdateBatch,
    *,
    scheduler: Scheduler | None = None,
    jobs: int = 1,
) -> UpdateReport:
    """Apply ``batch`` to ``index`` **in place**, repairing every component.

    After this returns, ``index`` answers queries exactly as an index
    rebuilt from scratch on the mutated graph would -- same graph columns,
    same per-edge scores, same neighbor and core orders, same clusterings
    in both border modes -- while the similarity and sorting work done is
    proportional to the affected neighborhoods only.

    Side effects beyond the index components: an entry is appended to
    ``index.update_lineage`` (persisted by :meth:`ScanIndex.save
    <repro.core.index.ScanIndex.save>`), the index's mutation epoch is
    bumped and every serving generation bound to it is invalidated, so all
    open :class:`~repro.serve.session.ClusterSession`\\ s stop serving
    pre-update cache entries (see ``docs/ARCHITECTURE.md``).

    ``jobs`` applies only past the churn crossover, where the repair runs
    the construction-path segmented re-sorts: those shard across worker
    processes exactly as :meth:`ScanIndex.build
    <repro.core.index.ScanIndex.build>` does (bit-identical at any worker
    count).  The merge strategy below the crossover is memory-bound
    splicing and stays serial.

    Raises ``ValueError`` for LSH-approximate indexes (sketches are global;
    no localized recompute can reproduce a rebuild), for insertions of
    present edges, deletions of absent edges, out-of-range endpoints, or
    weighted insertions into an unweighted index.
    """
    scheduler = scheduler if scheduler is not None else Scheduler()
    started = time.perf_counter()
    if index.similarities.backend == "lsh" or index.measure.startswith("approx_"):
        raise ValueError(
            "dynamic updates require an exactly built index; LSH-approximate "
            "similarities come from global sketches and must be rebuilt"
        )
    graph = index.graph
    _validate_batch(graph, batch)
    if batch.is_empty:
        return UpdateReport(
            insertions=0,
            deletions=0,
            cancelled=batch.num_cancelled,
            affected_edges=0,
            affected_vertices=0,
            wall_seconds=time.perf_counter() - started,
        )

    new_graph, old_to_new, inserted_edge_ids = _splice_graph(graph, batch, scheduler)

    # Affected similarity recompute.  Denominators (degrees / norms) change
    # for every edge incident to a touched endpoint; numerators only for
    # the triangle-affected subset.  With stored numerators the former are
    # re-finalised elementwise and only the latter pay intersection work;
    # without them (hand-assembled scores, version-1 artifacts) every
    # affected edge recomputes its numerator.
    touched = batch.touched_vertices()
    touched_mask = np.zeros(new_graph.num_vertices, dtype=bool)
    touched_mask[touched] = True
    values = np.empty(new_graph.num_edges, dtype=np.float64)
    survivors = old_to_new >= 0
    values[old_to_new[survivors]] = np.asarray(index.similarities.values)[survivors]
    affected_edges = batch.affected_edges(new_graph)
    old_numerators = index.similarities.numerators
    if old_numerators is not None:
        numerators = np.empty(new_graph.num_edges, dtype=np.float64)
        numerators[old_to_new[survivors]] = np.asarray(old_numerators)[survivors]
        if new_graph.arc_weights is None:
            # Unweighted: every triangle term is exactly 1, so surviving
            # numerators delta-update with integer adds -- bit-equal to a
            # fresh count, in work proportional to the triangles through
            # the op edges.  Only the inserted edges compute from scratch.
            if batch.insert_u.size:
                numerators += _triangle_deltas(
                    new_graph, batch.insert_u, batch.insert_v,
                    inserted_edge_ids, new_graph.num_edges, lambda ids: ids,
                )
            if batch.delete_u.size:
                deleted_old_ids = np.flatnonzero(old_to_new < 0)

                def _surviving(ids: np.ndarray) -> np.ndarray:
                    mapped = old_to_new[ids]
                    return mapped[mapped >= 0]

                numerators -= _triangle_deltas(
                    graph, batch.delete_u, batch.delete_v,
                    deleted_old_ids, new_graph.num_edges, _surviving,
                )
            if inserted_edge_ids.size:
                numerators[inserted_edge_ids] = edge_numerators_for_subset(
                    new_graph, inserted_edge_ids, scheduler
                )
        else:
            # Weighted: float triangle terms would drift under repeated
            # deltas, so the triangle-affected subset recomputes fresh.
            recompute = _numerator_affected_edges(
                graph, new_graph, batch, old_to_new, inserted_edge_ids
            )
            if recompute.size:
                numerators[recompute] = edge_numerators_for_subset(
                    new_graph, recompute, scheduler
                )
        if affected_edges.size:
            values[affected_edges] = finalise_numerators(
                new_graph, numerators[affected_edges], index.measure,
                edge_ids=affected_edges, scheduler=scheduler,
            )
    else:
        numerators = None
        if affected_edges.size:
            values[affected_edges] = finalise_numerators(
                new_graph,
                edge_numerators_for_subset(new_graph, affected_edges, scheduler),
                index.measure,
                edge_ids=affected_edges,
                scheduler=scheduler,
            )
    similarities = EdgeSimilarities(
        new_graph, values, index.measure, index.similarities.backend,
        numerators=numerators,
    )

    # Affected vertices: touched endpoints plus their (new) neighbors --
    # every vertex whose NO segment or CO entries can differ from before
    # (reported; the patchers derive their own change masks arc-by-arc).
    if touched.size:
        degree_new = new_graph.degrees[touched]
        neighbor_pos = segmented_ranges(new_graph.indptr[touched], degree_new)
        affected_vertices = np.unique(
            np.concatenate([touched, new_graph.indices[neighbor_pos]])
        )
    else:
        affected_vertices = touched
    # Order repair: merge sorted runs at low churn; past the measured
    # crossover the changed runs cover most of every segment, and the
    # construction-path segmented sorts (bit-identical by definition --
    # they ARE what a rebuild runs) are simply faster.
    changed_arc_mask = (
        touched_mask[new_graph.indices] | touched_mask[new_graph.arc_sources()]
    )
    changed_arcs = int(np.count_nonzero(changed_arc_mask))
    if changed_arcs > ORDER_REBUILD_CHURN * max(new_graph.num_arcs, 1):
        order_strategy = "resort"
        obs.counter("dynamic.order_repair.resort_total").inc()
        from ..parallel.execute import executor_for

        with obs.span(
            "dynamic.order_repair", strategy="resort", changed_arcs=changed_arcs
        ):
            with executor_for(jobs, num_arcs=new_graph.num_arcs) as executor:
                neighbor_order = build_neighbor_order(
                    new_graph, similarities, scheduler=scheduler, executor=executor
                )
                core_order = build_core_order(
                    new_graph, neighbor_order, scheduler=scheduler, executor=executor
                )
    else:
        order_strategy = "merge"
        obs.counter("dynamic.order_repair.merge_total").inc()
        with obs.span(
            "dynamic.order_repair", strategy="merge", changed_arcs=changed_arcs
        ):
            neighbor_order = _patch_neighbor_order(
                index.neighbor_order, graph, new_graph, values, touched_mask,
                changed_arc_mask, scheduler,
            )
            core_order = _patch_core_order(
                index.core_order,
                graph,
                new_graph,
                neighbor_order,
                touched_mask,
                scheduler,
            )

    report = UpdateReport(
        insertions=batch.num_insertions,
        deletions=batch.num_deletions,
        cancelled=batch.num_cancelled,
        affected_edges=int(affected_edges.size),
        affected_vertices=int(affected_vertices.size),
        wall_seconds=time.perf_counter() - started,
        order_strategy=order_strategy,
    )
    # Always-on update metrics (one batch = one observation, a cold path):
    # the affected-set size distributions and the churn decision are the
    # post-hoc record of how incremental the workload actually was.
    from ..obs.metrics import SIZE_BOUNDS

    obs.histogram("dynamic.affected_edges", SIZE_BOUNDS).observe(
        int(affected_edges.size)
    )
    obs.histogram("dynamic.affected_vertices", SIZE_BOUNDS).observe(
        int(affected_vertices.size)
    )
    obs.histogram("dynamic.update_seconds").observe(report.wall_seconds)
    obs.event(
        "dynamic.apply_updates",
        insertions=report.insertions,
        deletions=report.deletions,
        affected_edges=report.affected_edges,
        affected_vertices=report.affected_vertices,
        strategy=order_strategy,
    )

    # Commit, then tell the world: lineage for persistence, an epoch bump
    # plus fresh serving generations so every open session misses, and a
    # dropped ε-snapper memo (the similarity boundaries just changed).
    index.graph = new_graph
    index.similarities = similarities
    index.neighbor_order = neighbor_order
    index.core_order = core_order
    index.update_lineage.append(
        {
            "insertions": report.insertions,
            "deletions": report.deletions,
            "cancelled": report.cancelled,
            "affected_edges": report.affected_edges,
            "affected_vertices": report.affected_vertices,
            "order_strategy": report.order_strategy,
        }
    )
    from ..serve.session import invalidate_index_generations

    invalidate_index_generations(index)
    return report
