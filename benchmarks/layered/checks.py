"""Independent output checks.

These share no code with ``Mapping.validate``: a mapping is first reduced
to plain dicts, lists and sets (from a live ``Mapping`` by reading its
public attributes, or from the ``result`` document a server returned), and
every check works on that plain form only.  Each check returns a list of
failure strings; an empty list passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_TOL = 1e-9
_MISSING = object()


@dataclass
class PlainMapping:
    """A mapping as plain data."""

    weights: dict                      # task -> weight
    edges: dict                        # phase -> [(src, dst, volume)]
    procs: set
    links: set                         # frozenset({u, v})
    assignment: dict                   # task -> processor
    routes: dict                       # (phase, edge index) -> [processor]
    rules: tuple = ()                  # capacity demand rule per resource
    caps: dict = field(default_factory=dict)   # processor -> capacity vector


def _label(obj):
    """JSON turns tuple labels into lists; make them hashable again."""
    return tuple(_label(x) for x in obj) if isinstance(obj, list) else obj


def from_mapping(mapping) -> PlainMapping:
    """Reduce a live ``repro`` mapping to plain data."""
    tg, topo = mapping.task_graph, mapping.topology
    rules, caps = (), {}
    capacities = getattr(topo, "capacities", None)
    if capacities is not None:
        rules = tuple(capacities.rules)
        caps = {p: tuple(capacities.cap_for(p)) for p in topo.processors}
    return PlainMapping(
        weights={t: tg.node_weight(t) for t in tg.nodes},
        edges={
            name: [(e.src, e.dst, e.volume) for e in phase.edges]
            for name, phase in tg.comm_phases.items()
        },
        procs=set(topo.processors),
        links={frozenset(link) for link in topo.links},
        assignment=dict(mapping.assignment),
        routes={key: list(route) for key, route in mapping.routes.items()},
        rules=rules,
        caps=caps,
    )


def from_doc(doc: dict) -> PlainMapping:
    """Reduce an ``oregami-mapping-v1`` document to plain data."""
    tg, topo = doc["task_graph"], doc["topology"]
    rules, caps = (), {}
    if topo.get("capacities"):
        rules = tuple(rule for _name, rule in topo["capacities"]["resources"])
        caps = {_label(p): tuple(vec) for p, vec in topo["capacities"]["caps"]}
    return PlainMapping(
        weights={_label(n["label"]): n["weight"] for n in tg["nodes"]},
        edges={
            phase["name"]: [(_label(s), _label(d), v) for s, d, v in phase["edges"]]
            for phase in tg["comm_phases"]
        },
        procs={_label(p) for p in topo["processors"]},
        links={frozenset((_label(u), _label(v))) for u, v in topo["links"]},
        assignment={_label(t): _label(p) for t, p in doc["assignment"]},
        routes={
            (r["phase"], r["edge"]): [_label(p) for p in r["path"]]
            for r in doc["routes"]
        },
        rules=rules,
        caps=caps,
    )


def check_assignment(pm: PlainMapping) -> list[str]:
    """Every task sits on a live processor, and nothing else is assigned."""
    failures = []
    for task in pm.weights:
        proc = pm.assignment.get(task, _MISSING)
        if proc is _MISSING:
            failures.append(f"task {task!r} is not assigned")
        elif proc not in pm.procs:
            failures.append(f"task {task!r} sits on {proc!r}, not a processor")
    extra = [t for t in pm.assignment if t not in pm.weights]
    if extra:
        failures.append(f"{len(extra)} assigned tasks are not in the graph")
    return failures[:5]


def check_routes(pm: PlainMapping) -> list[str]:
    """Every message edge has a route, and every route is a contiguous
    walk over existing links from the source's processor to the
    destination's."""
    failures = []
    for phase, edges in pm.edges.items():
        for idx, (src, dst, _volume) in enumerate(edges):
            route = pm.routes.get((phase, idx))
            where = f"route ({phase!r}, {idx})"
            if not route:
                failures.append(f"{where} is missing")
                continue
            if route[0] != pm.assignment.get(src) or route[-1] != pm.assignment.get(dst):
                failures.append(f"{where} does not join the assigned processors")
                continue
            for u, v in zip(route, route[1:]):
                if frozenset((u, v)) not in pm.links:
                    failures.append(f"{where} steps {u!r}->{v!r} over no link")
                    break
            if len(failures) >= 5:
                return failures
    stray = [k for k in pm.routes if k[0] not in pm.edges
             or not 0 <= k[1] < len(pm.edges[k[0]])]
    if stray:
        failures.append(f"{len(stray)} routes match no message edge")
    return failures


def check_capacity(pm: PlainMapping) -> list[str]:
    """No processor's summed demand exceeds any row of its capacity."""
    if not pm.rules:
        return []
    load: dict = {}
    for task, proc in pm.assignment.items():
        row = load.setdefault(proc, [0.0] * len(pm.rules))
        for k, rule in enumerate(pm.rules):
            row[k] += 1.0 if rule == "unit" else pm.weights[task]
    failures = []
    for proc, row in load.items():
        cap = pm.caps.get(proc)
        if cap is None:
            failures.append(f"processor {proc!r} has tasks but no capacity row")
        elif any(used > limit + _TOL for used, limit in zip(row, cap)):
            failures.append(f"processor {proc!r} holds {row} of {list(cap)}")
    return failures[:5]


def longest_message_time(pm: PlainMapping, phases, *, hop_latency: float,
                         byte_time: float, switching: str) -> float:
    """Uncontended time of the slowest single message in *phases*: a lower
    bound on any completion time that runs them."""
    worst = 0.0
    for phase in phases:
        for idx, (_src, _dst, volume) in enumerate(pm.edges.get(phase, ())):
            hops = len(pm.routes.get((phase, idx), ())) - 1
            if hops <= 0:
                continue
            if switching == "cut_through":
                took = hops * hop_latency + byte_time * volume
            else:
                took = hops * (hop_latency + byte_time * volume)
            worst = max(worst, took)
    return worst


def check_total_time(pm: PlainMapping, total_time: float, phases, **model) -> list[str]:
    bound = longest_message_time(pm, phases, **model)
    if total_time + _TOL < bound:
        return [f"total_time {total_time} is below its longest message {bound}"]
    return []


def routed_comm_cost(pm: PlainMapping) -> float:
    """Volume x hops along the routes actually chosen."""
    return float(sum(
        volume * (len(pm.routes[(phase, idx)]) - 1)
        for phase, edges in pm.edges.items()
        for idx, (_s, _d, volume) in enumerate(edges)
    ))


def check_mapping(pm: PlainMapping, total_time: float | None = None,
                  phases=(), **model) -> list[str]:
    """All structural checks, plus the completion-time bound when a
    simulation ran."""
    failures = check_assignment(pm)
    if not failures:
        failures = check_routes(pm) + check_capacity(pm)
    if not failures and total_time is not None:
        failures = check_total_time(pm, total_time, phases, **model)
    return failures
