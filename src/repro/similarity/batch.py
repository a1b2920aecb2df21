"""Fully vectorised batch similarity engine (the ``"batch"`` backend).

The reference ``"merge"`` backend of :mod:`repro.similarity.exact` walks the
degree-oriented CSR one arc at a time and calls ``np.intersect1d`` per arc,
which caps construction at Python-interpreter speed.  This module executes
the *same* algorithm array-at-once:

1. expand the oriented arcs into flat ``(arc, candidate)`` pairs, where the
   candidates of arc ``u -> v`` are the out-neighbors of ``v`` (memory use is
   bounded by processing the pairs in chunks of ``chunk_pairs``);
2. test every candidate ``x`` for membership in ``out(u)`` with an O(1)
   *slot-table* probe -- the array form of the hash-table membership probe
   of Algorithm 1 (Section 6.1).  The sources are walked in blocks; each
   block gives every one of its arc targets a compact column
   (``col_of[target]``) and fills a reused table ``(row, column) -> oriented
   position + 1`` with the block's arcs, so a candidate is answered by two
   gathers, ``col_of[x]`` and then the table slot.  The table holds
   :data:`SLOT_TABLE_BYTES` whatever the graph's size: a block takes as many
   sources as fit ``rows * (arcs + 1)`` slots;
3. scatter the three per-triangle contributions onto the canonical edge ids
   once per chunk of pairs: weighted products via ``np.bincount``, and on
   unweighted graphs one integer count per oriented position (``np.add.at``,
   whose cost follows the triangles found, not the edge count).

Because the batch engine performs exactly the intersection work of the merge
engine, it charges *identical* work/span to the scheduler: per oriented arc
``u -> v`` with a non-empty ``out(v)``, a merge cost of
``outdeg(u) + outdeg(v)``, with the span of the largest single merge plus the
fork-tree depth on top.  Tests assert this equality, which pins the cost
model while the execution strategy differs.

:func:`edge_numerators_for_subset` applies the same treatment to an arbitrary
subset of edges (probing the smaller endpoint's neighborhood against the
larger one's with one ``np.searchsorted`` over the memoised composite arc
keys), which is what the LSH low-degree fallback in
:mod:`repro.lsh.approximate` and the weighted update path of
:mod:`repro.dynamic.patch` batch their exact similarities with.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..parallel.metrics import ceil_log2
from ..parallel.primitives import segmented_ranges
from ..parallel.scheduler import Scheduler

#: Default bound on the number of ``(arc, candidate)`` pairs materialised at
#: once; 2**22 pairs is ~100 MB of transient arrays, far below graph size for
#: the scales this engine targets while keeping each chunk BLAS-friendly.
DEFAULT_CHUNK_PAIRS = 1 << 22

#: Memory of the slot table of the membership probe, independent of n and m.
#: Measured on 2 CPUs with a 2 MB L2 per core: an 8 MB table beat a 32 MB one
#: by ~5% on a 548k-edge dense graph and ~25% on a 369k-edge social graph,
#: and tied it on a 1M-vertex / 4M-edge sparse graph (more blocks, each one
#: more cache-resident).
SLOT_TABLE_BYTES = 8 << 20


def _block_end(indptr: np.ndarray, first: int, last: int, slots: int) -> int:
    """Largest ``end`` in ``(first, last]`` whose block fits ``slots`` slots.

    Sources ``[first, end)`` need ``rows * (arcs + 1)`` slots, which grows
    with ``end``, so a binary search finds the bound.  A single source always
    forms a block (the caller sizes the table to hold any one source).
    """
    base = int(indptr[first])
    lo, hi = first + 1, last
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid - first) * (int(indptr[mid]) - base + 1) <= slots:
            lo = mid
        else:
            hi = mid - 1
    return lo


def accumulate_oriented_contributions(
    out: np.ndarray,
    oriented: tuple,
    arc_range_start: int,
    arc_range_end: int,
    *,
    chunk_pairs: int,
) -> None:
    """Add triangle contributions of oriented arcs ``[start, end)`` onto ``out``.

    The memory-bounded chunk loop of the batch engine, restricted to a
    contiguous range of oriented arcs: both the serial all-arc pass and
    every shard of the multicore execution layer
    (:mod:`repro.parallel.execute`) run exactly this function, which is what
    keeps the process-parallel similarity pass bit-identical to the serial
    one on unweighted graphs (all contributions are integers, so the shard
    merge order cannot matter).  ``oriented`` is the degree-oriented CSR
    ``(indptr, targets, edge_ids, weights)``, with ``weights`` ``None`` for
    an unweighted graph.

    The slot table of a block always holds *every* arc of the block's
    sources, also those outside ``[start, end)``: a shard may begin or end
    inside a source's out-segment, and the candidates of its arcs must still
    be probed against that source's whole out-neighborhood.
    """
    indptr, targets, edge_ids, weights = oriented
    num_edges = int(out.shape[0])
    num_oriented = int(targets.shape[0])
    arc_range_start = int(arc_range_start)
    arc_range_end = int(arc_range_end)
    # Pair counts only over this range: a shard of the multicore layer must
    # not pay an O(all arcs) pass before its own work starts.  The chunking
    # below indexes through ``range_counts``/``range_cumulative`` with
    # range-relative positions; everything touching the CSR arrays stays
    # absolute.
    out_degrees = np.diff(indptr)
    range_counts = out_degrees[targets[arc_range_start:arc_range_end]]
    range_cumulative = np.cumsum(range_counts)

    # Probe state.  Rows are sources relative to the block's first source and
    # columns are arc offsets within the block, shifted by one so offset 0 of
    # every row is a never-written zero: ``col_of`` holds -1 for any vertex
    # that is not a target of the current block, which lands there and
    # misses.  Positions are stored + 1 so an empty slot reads 0.
    first_source = int(np.searchsorted(indptr, arc_range_start, side="right")) - 1
    last_source = int(np.searchsorted(indptr, arc_range_end - 1, side="right"))
    position_type = np.int32 if num_oriented < np.iinfo(np.int32).max else np.int64
    # The degree orientation caps out-degrees near sqrt(2m), so the largest
    # single source exceeds the budget only beyond ~10^12 edges.
    slots = max(
        SLOT_TABLE_BYTES // np.dtype(position_type).itemsize,
        int(out_degrees.max()) + 1,
    )
    # Zeroed lazily by the OS: a small graph touches only the pages it uses.
    table = np.zeros(slots, dtype=position_type)
    col_of = np.full(indptr.shape[0] - 1, -1, dtype=position_type)
    block_first = block_last = first_source
    block_arcs = (0, 0)
    filled = None
    if weights is None:
        triangles = np.zeros(num_oriented, dtype=np.int64)

    arc_start = arc_range_start
    while arc_start < arc_range_end:
        relative_start = arc_start - arc_range_start
        base = int(range_cumulative[relative_start - 1]) if relative_start else 0
        arc_end = arc_range_start + int(
            np.searchsorted(range_cumulative, base + chunk_pairs, side="right")
        )
        arc_end = min(max(arc_end, arc_start + 1), arc_range_end)
        if int(range_counts[relative_start:arc_end - arc_range_start].sum()) == 0:
            arc_start = arc_end
            continue
        found_uv, found_ux, found_vx = [], [], []
        piece_start = arc_start
        while piece_start < arc_end:
            if piece_start >= block_arcs[1]:
                # Next block of sources: clear the slots and columns the
                # previous block wrote, then write this block's.
                if filled is not None:
                    table[filled] = 0
                    col_of[block_targets] = -1
                block_first = block_last
                block_last = _block_end(indptr, block_first, last_source, slots)
                block_arcs = (int(indptr[block_first]), int(indptr[block_last]))
                block_targets = targets[block_arcs[0]:block_arcs[1]]
                stride = block_arcs[1] - block_arcs[0] + 1
                col_of[block_targets] = np.arange(stride - 1, dtype=position_type)
                # Row offset of every arc of the block, plus the column shift.
                row_base = np.repeat(
                    np.arange(block_last - block_first, dtype=np.int64) * stride + 1,
                    out_degrees[block_first:block_last],
                )
                filled = row_base + col_of[block_targets]
                table[filled] = np.arange(
                    block_arcs[0] + 1, block_arcs[1] + 1, dtype=position_type
                )
            piece_end = min(arc_end, block_arcs[1])
            counts = range_counts[piece_start - arc_range_start:piece_end - arc_range_start]
            if counts.any():
                # (arc, candidate) pair expansion: the candidates of arc
                # u -> v are the positions of v's out-segment.
                pair_arc = np.repeat(
                    np.arange(piece_start, piece_end, dtype=np.int64), counts
                )
                candidate_pos = segmented_ranges(
                    indptr[targets[piece_start:piece_end]], counts
                )
                pair_row = np.repeat(
                    row_base[piece_start - block_arcs[0]:piece_end - block_arcs[0]],
                    counts,
                )
                hit = table[pair_row + col_of[targets[candidate_pos]]]
                found = np.flatnonzero(hit != 0)
                found_uv.append(pair_arc[found])       # position of edge (u, v)
                found_ux.append(hit[found] - 1)        # position of x in out(u)
                found_vx.append(candidate_pos[found])  # position of x in out(v)
            piece_start = piece_end
        if weights is None:
            # Unit weights: a triangle adds 1 to each of its three edges.
            # Counting per oriented position (each one a distinct edge) costs
            # only the triangles found, not an O(m) pass per chunk.
            np.add.at(triangles, np.concatenate(found_uv + found_ux + found_vx), 1)
        else:
            arc_uv = np.concatenate(found_uv)
            arc_ux = np.concatenate(found_ux)
            arc_vx = np.concatenate(found_vx)
            w_uv = weights[arc_uv]
            w_ux = weights[arc_ux]
            w_vx = weights[arc_vx]
            # Triangle {u, v, x}: each edge gains the product of the other two.
            out += np.bincount(
                edge_ids[arc_uv], weights=w_ux * w_vx, minlength=num_edges
            )
            out += np.bincount(
                edge_ids[arc_ux], weights=w_uv * w_vx, minlength=num_edges
            )
            out += np.bincount(
                edge_ids[arc_vx], weights=w_uv * w_ux, minlength=num_edges
            )
        arc_start = arc_end
    if weights is None:
        # Sparse graphs find few triangles: scatter only the nonzero counts.
        touched = np.flatnonzero(triangles)
        out[edge_ids[touched]] += triangles[touched]


def batch_numerators(
    graph: Graph,
    scheduler: Scheduler,
    *,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    executor=None,
) -> np.ndarray:
    """Closed-neighborhood dot product of every edge, with no per-arc loop.

    Returns the same numerator array as ``_numerators_merge`` (up to float
    summation order) and charges the same work/span.  ``executor`` -- a
    :class:`~repro.parallel.execute.ParallelExecutor` -- shards the pass
    across worker processes for unweighted graphs (bit-identical: integer
    contributions merge exactly); weighted graphs ignore it and stay serial
    so float summation order is preserved.
    """
    if chunk_pairs < 1:
        raise ValueError(f"chunk_pairs must be positive, got {chunk_pairs}")
    oriented = graph.degree_oriented_csr()
    indptr, targets, edge_ids, weights = oriented
    num_edges = graph.num_edges
    numerators = np.zeros(num_edges, dtype=np.float64)
    # Base term: x = u and x = v both belong to the closed intersection and
    # contribute w(u,v) * 1 each.
    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights

    num_oriented = int(targets.shape[0])
    if num_oriented == 0:
        scheduler.charge(0.0, ceil_log2(max(num_edges, 1)) + 1.0)
        return numerators

    out_degrees = np.diff(indptr)
    sources = graph.oriented_arc_sources()

    # Cost model: identical to the merge backend.  Arcs whose target has no
    # out-neighbors are skipped there before any cost accrues.  The maximum
    # per-arc span is ceil_log2 of the maximum cost (ceil_log2 is monotone).
    pair_counts = out_degrees[targets]
    active = pair_counts > 0
    if active.any():
        costs = out_degrees[sources[active]] + pair_counts[active]
        total_work = float(costs.sum())
        max_span = ceil_log2(int(costs.max())) + 1.0
    else:
        total_work = 0.0
        max_span = 0.0

    contributions = None
    if executor is not None:
        contributions = executor.sharded_numerators(graph, chunk_pairs=chunk_pairs)
    if contributions is not None:
        numerators += contributions
    else:
        if graph.edge_weights is None:
            oriented = oriented._replace(weights=None)
        accumulate_oriented_contributions(
            numerators, oriented, 0, num_oriented, chunk_pairs=chunk_pairs
        )

    scheduler.charge(total_work, max_span + ceil_log2(max(num_edges, 1)) + 1.0)
    return numerators


def edge_numerators_for_subset(
    graph: Graph,
    edge_ids: np.ndarray,
    scheduler: Scheduler,
    *,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Closed-neighborhood dot products of the selected edges only.

    For each requested edge the smaller-degree endpoint's neighborhood probes
    the larger one's, exactly the strategy of Algorithm 1 restricted to a
    subset, but run as chunked array passes instead of per-edge Python loops.
    Charges ``deg(smaller endpoint) + 1`` work per edge with the span of the
    largest single probe, matching the scalar fallback it replaces.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    num_selected = int(edge_ids.shape[0])
    if num_selected == 0:
        return np.zeros(0, dtype=np.float64)
    edge_u_all, edge_v_all = graph.edge_list()
    degrees = graph.degrees
    u = edge_u_all[edge_ids]
    v = edge_v_all[edge_ids]
    swap = degrees[u] > degrees[v]
    u, v = np.where(swap, v, u), np.where(swap, u, v)

    num_arcs = graph.num_arcs
    n = graph.num_vertices
    comp = graph.arc_search_keys()
    counts = degrees[u]
    costs = counts + 1
    total_work = float(costs.sum())
    max_span = ceil_log2(int(costs.max())) + 1.0

    numerators = np.zeros(num_selected, dtype=np.float64)
    cumulative = np.cumsum(counts)
    edge_start = 0
    while edge_start < num_selected:
        base = int(cumulative[edge_start - 1]) if edge_start else 0
        edge_end = int(np.searchsorted(cumulative, base + chunk_pairs, side="right"))
        edge_end = min(max(edge_end, edge_start + 1), num_selected)
        chunk_counts = counts[edge_start:edge_end]
        chunk_total = int(chunk_counts.sum())
        if chunk_total == 0:
            edge_start = edge_end
            continue
        pair_edge = np.repeat(np.arange(edge_start, edge_end, dtype=np.int64), chunk_counts)
        probe_pos = segmented_ranges(graph.indptr[u[edge_start:edge_end]], chunk_counts)
        candidates = graph.indices[probe_pos]
        keys = v[pair_edge] * np.int64(n) + candidates
        locations = np.searchsorted(comp[:num_arcs], keys)
        # A miss past the end lands on the sentinel and compares unequal.
        found = comp[locations] == keys
        if found.any():
            if graph.arc_weights is None:
                contributions = np.ones(int(np.count_nonzero(found)), dtype=np.float64)
            else:
                contributions = (
                    graph.arc_weights[probe_pos[found]]
                    * graph.arc_weights[locations[found]]
                )
            numerators += np.bincount(
                pair_edge[found], weights=contributions, minlength=num_selected
            )
        edge_start = edge_end

    if graph.edge_weights is None:
        numerators += 2.0
    else:
        numerators += 2.0 * graph.edge_weights[edge_ids]
    scheduler.charge(total_work, max_span + ceil_log2(max(num_selected, 1)) + 1.0)
    return numerators
