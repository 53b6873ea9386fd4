"""Baseline contraction algorithms for the comparison benchmarks.

The paper's MWM-Contract is evaluated ([Lo88]) against simpler strategies;
these are the two natural ones: random balanced partition and BFS-ordered
block partition (contiguous chunks of a breadth-first traversal, which at
least keeps some locality).
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Hashable

from repro.graph.taskgraph import TaskGraph

__all__ = ["random_contract", "bfs_contract"]

Task = Hashable


def _check(tg: TaskGraph, n_procs: int, load_bound: int | None) -> int:
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    n = tg.n_tasks
    bound = load_bound if load_bound is not None else math.ceil(n / n_procs)
    if bound * n_procs < n:
        raise ValueError(
            f"load bound B={bound} cannot hold {n} tasks on {n_procs} processors"
        )
    return bound


def random_contract(
    tg: TaskGraph,
    n_procs: int,
    *,
    load_bound: int | None = None,
    seed: int = 0,
) -> list[list[Task]]:
    """Random balanced contraction: shuffle tasks, deal into P clusters."""
    bound = _check(tg, n_procs, load_bound)
    tasks = list(tg.nodes)
    rng = random.Random(seed)
    rng.shuffle(tasks)
    clusters: list[list[Task]] = [[] for _ in range(min(n_procs, len(tasks)))]
    i = 0
    for t in tasks:
        # Round-robin deal, skipping full clusters.
        while len(clusters[i % len(clusters)]) >= bound:
            i += 1
        clusters[i % len(clusters)].append(t)
        i += 1
    return [sorted(c, key=repr) for c in clusters if c]


def bfs_contract(
    tg: TaskGraph,
    n_procs: int,
    *,
    load_bound: int | None = None,
) -> list[list[Task]]:
    """BFS-block contraction: contiguous chunks of a breadth-first order.

    Preserves locality in graphs whose BFS order tracks the communication
    structure (chains, meshes); a fair middle baseline between random and
    MWM-Contract.
    """
    bound = _check(tg, n_procs, load_bound)
    # Undirected adjacency in declaration order: a task's neighbours in the
    # order its first message with each of them was declared.
    adj: dict[Task, dict[Task, None]] = {t: {} for t in tg.nodes}
    for _, e in tg.all_edges():
        if e.src != e.dst:
            adj[e.src].setdefault(e.dst)
            adj[e.dst].setdefault(e.src)
    order: list[Task] = []
    seen: set[Task] = set()
    for start in tg.nodes:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    n = len(order)
    n_clusters = min(n_procs, max(1, math.ceil(n / bound)))
    # Distribute sizes as evenly as possible within the bound.
    base_size = n // n_clusters
    remainder = n % n_clusters
    clusters: list[list[Task]] = []
    pos = 0
    for i in range(n_clusters):
        size = base_size + (1 if i < remainder else 0)
        clusters.append(order[pos : pos + size])
        pos += size
    return [c for c in clusters if c]
