"""Brute-force SCAN oracle: pure-Python set intersection and BFS.

Independent of the library on purpose (it imports nothing from it), so it
can judge the index's answers.  Structural cosine similarity over closed
neighbourhoods; a core has at least ``mu`` ε-similar closed neighbours
(itself included); cores linked by ε-similar edges form the clusters; a
non-core vertex ε-similar to a core is a border of that core's cluster.
A border next to cores of two clusters may join either: that is the
documented ambiguity of SCAN, so the oracle returns every cluster a border
may join and :func:`check` accepts any of them.
"""

from __future__ import annotations

import math
from collections import deque


def similarities(num_vertices: int, edges) -> dict[tuple[int, int], float]:
    """Cosine similarity of every edge ``(u, v)`` with ``u < v``."""
    closed = [{v} for v in range(num_vertices)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return {
        (min(u, v), max(u, v)): len(closed[u] & closed[v])
        / math.sqrt(len(closed[u]) * len(closed[v]))
        for u, v in edges
    }


def scan(num_vertices: int, sims: dict, mu: int, epsilon: float):
    """``(cores, clusters, border_options)`` for one ``(mu, epsilon)``.

    ``clusters`` is a list of core sets; ``border_options`` maps each
    non-core vertex that belongs to some cluster to the set of cluster
    indices it may join.
    """
    similar = [[] for _ in range(num_vertices)]
    for (u, v), value in sims.items():
        if value >= epsilon:
            similar[u].append(v)
            similar[v].append(u)
    cores = {v for v in range(num_vertices) if len(similar[v]) + 1 >= mu}
    cluster_of: dict[int, int] = {}
    clusters: list[set[int]] = []
    for seed in sorted(cores):
        if seed in cluster_of:
            continue
        members, frontier = {seed}, deque([seed])
        cluster_of[seed] = len(clusters)
        while frontier:
            for w in similar[frontier.popleft()]:
                if w in cores and w not in cluster_of:
                    cluster_of[w] = len(clusters)
                    members.add(w)
                    frontier.append(w)
        clusters.append(members)
    border_options: dict[int, set[int]] = {}
    for v in range(num_vertices):
        if v not in cores:
            options = {cluster_of[w] for w in similar[v] if w in cores}
            if options:
                border_options[v] = options
    return cores, clusters, border_options


def check(labels, core_mask, answer) -> list[str]:
    """Differences between a clustering (``labels``, ``core_mask``; label
    ``-1`` or any negative means unclustered) and the oracle's ``answer``.
    An empty list means the clustering is a valid SCAN answer."""
    cores, clusters, border_options = answer
    problems = []
    got_cores = {v for v, is_core in enumerate(core_mask) if is_core}
    if got_cores != cores:
        problems.append(f"cores differ on {sorted(got_cores ^ cores)[:5]}")
        return problems
    label_of_cluster = {}
    for index, members in enumerate(clusters):
        found = {int(labels[v]) for v in members}
        if len(found) != 1 or min(found) < 0:
            problems.append(f"core cluster {index} split or unlabelled: {sorted(found)[:5]}")
            continue
        label_of_cluster[index] = found.pop()
    if len(set(label_of_cluster.values())) != len(label_of_cluster):
        problems.append("two core clusters share a label")
    allowed = {
        v: {label_of_cluster.get(i) for i in options}
        for v, options in border_options.items()
    }
    for v, label in enumerate(labels):
        if v in cores:
            continue
        label = int(label)
        if label >= 0 and label not in allowed.get(v, ()):
            problems.append(f"vertex {v} joined cluster label {label} it may not join")
        if label < 0 and v in allowed:
            problems.append(f"border vertex {v} left unclustered")
    return problems
