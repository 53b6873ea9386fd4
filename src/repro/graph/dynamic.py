"""Dynamically spawned tasks with regular, predictable spawning patterns.

Section 6 ("Dynamically spawned tasks"): "We wish to extend our software to
handle computations with dynamically spawned tasks when the spawning
pattern is regular and predictable.  For example, parallel divide and
conquer algorithms dynamically spawn tasks based on the size of the problem
instance; however, it is known a priori that the spawning pattern will
produce a full binary tree."

A :class:`SpawnPattern` captures such a pattern (children of a task as a
pure function of its label and depth); :meth:`SpawnPattern.unfold` produces
the static task graph the pattern is known a priori to generate, and
:class:`IncrementalMapper` assigns tasks to processors *as they spawn*,
keeping children near their parents -- the online counterpart of MAPPER.
Its policy is :func:`place`, which the continuous-operation session
(:mod:`repro.online.session`) applies to arriving tasks as well.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass

from repro.arch.capacity import Headroom
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping

__all__ = [
    "SpawnPattern",
    "full_binary_spawner",
    "binomial_spawner",
    "place",
    "IncrementalMapper",
]

Task = Hashable
Proc = Hashable


@dataclass
class SpawnPattern:
    """A regular spawning pattern: root plus a per-step children function.

    Spawning proceeds in global steps ``0 .. steps-1``; at each step every
    live task *t* spawns ``children(t, step)`` (an empty list when the task
    does not spawn at that step).  The function must be pure and known at
    compile time -- the paper's "predictable" requirement -- so the final
    graph can be unfolded a priori.

    Attributes
    ----------
    name: pattern name.
    root: the initial task label.
    children: ``(label, step) -> child labels spawned at that step``.
    steps: number of spawning steps.
    volume: message volume on each parent/child edge.
    """

    name: str
    root: Task
    children: Callable[[Task, int], list[Task]]
    steps: int
    volume: float = 1.0

    def spawn_schedule(self) -> list[list[tuple[Task, Task]]]:
        """Per step, the (parent, child) pairs spawned at that step."""
        live: list[Task] = [self.root]
        seen: set[Task] = {self.root}
        schedule: list[list[tuple[Task, Task]]] = []
        for step in range(self.steps):
            born: list[tuple[Task, Task]] = []
            for task in list(live):
                for child in self.children(task, step):
                    if child in seen:
                        raise ValueError(
                            f"pattern {self.name!r} re-spawns label {child!r}"
                        )
                    seen.add(child)
                    live.append(child)
                    born.append((task, child))
            schedule.append(born)
        return schedule

    def unfold(self) -> TaskGraph:
        """The static task graph the pattern is known a priori to produce.

        Phases mirror divide-and-conquer: ``spawn`` (parent to child) and
        ``merge`` (child to parent), with phase expression
        ``spawn; work; merge``.
        """
        tg = TaskGraph(self.name)
        tg.add_node(self.root)
        spawn = tg.add_comm_phase("spawn")
        merge = tg.add_comm_phase("merge")
        for born in self.spawn_schedule():
            for parent, child in born:
                tg.add_node(child)
                spawn.add(parent, child, self.volume)
                merge.add(child, parent, self.volume)
        tg.add_exec_phase("work")
        from repro.graph.phase_expr import parse_phase_expr

        tg.phase_expr = parse_phase_expr("spawn; work; merge")
        return tg


def full_binary_spawner(depth: int, *, volume: float = 1.0) -> SpawnPattern:
    """D&C spawning a full binary tree of the given depth (heap labels).

    A task at heap depth *d* spawns its two children exactly at step *d*.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")

    def children(task: int, step: int) -> list[int]:
        if (task + 1).bit_length() - 1 == step:
            return [2 * task + 1, 2 * task + 2]
        return []

    return SpawnPattern(
        name=f"dyn-fbt{depth}", root=0, children=children, steps=depth, volume=volume
    )


def binomial_spawner(order: int, *, volume: float = 1.0) -> SpawnPattern:
    """D&C spawning the binomial tree ``B_order`` (binary labels).

    The halving recursion of [LRG+89]: at step *d* **every** live task *x*
    spawns one child ``x | 2^(order-1-d)``, doubling the task count each
    step until ``2^order`` tasks exist.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return SpawnPattern(
        name=f"dyn-binomial{order}",
        root=0,
        children=lambda task, d: [task | (1 << (order - 1 - d))],
        steps=order,
        volume=volume,
    )


def place(ledger: Headroom, weight: float, anchors=()) -> Proc | None:
    """The online placement policy: where one new task of *weight* goes.

    Among the processors *ledger* still has headroom on: the least loaded
    (fewest tasks), then the nearest to *anchors* -- the processors of the
    task's already-placed peers -- or, for a task with no peers, the one
    of highest degree; remaining ties go to the lowest processor index.
    Returns ``None`` when no processor has headroom; records nothing --
    the caller commits with ``ledger.add``.
    """
    topology = ledger.topology

    def rank(p):
        if anchors:
            return min(topology.distance(a, p) for a in anchors)
        return -topology.degree(p)

    return min(
        ledger.candidates(weight),
        key=lambda p: (ledger.count[p], rank(p), topology.index_of(p)),
        default=None,
    )


class IncrementalMapper:
    """Online task placement for spawning computations.

    Tasks arrive one at a time (a root, then children of already-placed
    parents) and go where :func:`place` says: a child to the *least-loaded
    processor nearest its parent* (ties to lowest processor order), which
    on a hypercube reproduces the classic subcube-doubling behaviour of
    D&C schedulers; the root to a highest-degree processor.

    ``capacity`` is the paper's load bound (at most that many tasks per
    processor).  Capacity vectors come from the topology, as everywhere
    else: on a machine that declares them every placement is gated on
    *vector* headroom across all resources (and on the bound too, when
    given), through the same :class:`~repro.arch.capacity.Headroom` ledger
    the online session and :func:`repro.resilience.repair_mapping` use.
    Per-task demand follows the declared demand rules (``"unit"``
    consumes 1, ``"weight"`` consumes the task weight passed to
    :meth:`place_root` / :meth:`spawn`).
    """

    def __init__(self, topology: Topology, *, capacity: int | None = None):
        self.topology = topology
        self.assignment: dict[Task, Proc] = {}
        self._ledger = Headroom(topology, bound=capacity)

    def _put(self, task: Task, weight: float, anchors=()) -> Proc:
        proc = place(self._ledger, weight, anchors)
        if proc is None:
            raise RuntimeError("no processor has spare capacity")
        self._ledger.add(proc, weight)
        self.assignment[task] = proc
        return proc

    def place_root(self, task: Task, *, weight: float = 1.0) -> Proc:
        """Place the initial task."""
        if self.assignment:
            raise RuntimeError("root already placed")
        return self._put(task, weight)

    def spawn(self, parent: Task, child: Task, *, weight: float = 1.0) -> Proc:
        """Place a newly spawned child near its (already placed) parent."""
        if parent not in self.assignment:
            raise KeyError(f"parent {parent!r} is not placed")
        if child in self.assignment:
            raise ValueError(f"task {child!r} already placed")
        return self._put(child, weight, [self.assignment[parent]])

    def run(self, pattern: SpawnPattern) -> Mapping:
        """Spawn a whole pattern online and return the final routed mapping.

        The resulting mapping is over the pattern's unfolded task graph, so
        it can be compared directly against the static (offline) mapping of
        the same graph.
        """
        tg = pattern.unfold()
        self.place_root(pattern.root)
        # Spawn step by step, exactly as a real execution would.
        for born in pattern.spawn_schedule():
            for parent, child in born:
                self.spawn(parent, child)
        from repro.mapper.routing.mm_route import mm_route

        mapping = Mapping(
            tg, self.topology, dict(self.assignment), provenance="incremental"
        )
        mapping.routes = mm_route(tg, self.topology, mapping.assignment).routes
        mapping.validate(require_routes=True)
        return mapping
