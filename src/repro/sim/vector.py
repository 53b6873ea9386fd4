"""Batched numpy step kernels for the discrete-event simulator.

The event-loop engine (:mod:`repro.sim.engine`) walks every synchronous
step through a per-message ``heapq`` event loop.  Because the simulation
state resets at each step boundary, the steps of a run are *independent*:
this module exploits that by compiling each **distinct** step (phase set)
once into flat CSR-style arrays -- ``(msg id, hop index, link id,
volume)`` message tables with a per-link slowdown vector, plus dense
per-processor busy vectors for the execution phases -- and solving each
distinct step exactly once.  The distinct steps of a run are merged
column-wise (each step gets its own virtual block of link columns, so
steps can never interact), and one pass of array operations drives every
step of the run at once; repeated steps are then a gather.

The message arrays and the static schedule structure below depend on the
routes alone, so they live in the mapping's message plan
(:class:`repro.sim.engine._MessagePlan`) and are built once per mapping;
a cost model adds only its hop or path durations (:func:`_durations`) and
execution rows, kept on its :class:`~repro.sim.engine._CompiledSim`.

* **store-and-forward** runs as a round-major frontier relaxation: round
  ``r`` serves every message's hop ``r``.  The per-round structure --
  which messages participate, their links, the link-grouped column order,
  segment boundaries -- is *static* per distinct step and precomputed
  once; only arrival times are dynamic.  Per-link FIFO order is restored
  with a stable ``np.lexsort`` over (segment, arrival), whose
  stability reproduces the event loop's message-id tie-break, and the FIFO
  service chains ``done_i = max(arrival_i, done_{i-1}) + dur_i`` are
  evaluated with ``k`` relaxation passes over the link-grouped segments
  (``k`` = the longest queue, so each pass finalises one more queue
  position).  Round 0 is fully static -- every arrival is 0.0, so the
  id-ordered grouping *is* the sorted order and the service chain is a
  plain segmented prefix sum.  Round-major order is only a *candidate*
  schedule: a link can legally serve a high-hop-index message before a
  low-hop-index one (a short message overtaking a long one).  Every
  service is therefore checked against the FIFO contract -- per link, the
  executed ``(arrival, id)`` sequence must be non-decreasing -- and any
  step whose schedule violates it is recomputed with the event loop
  (``sim.vector_fallback`` counts these).  A hazard-free schedule is
  the unique FIFO fixpoint the event loop computes, evaluated with the
  same scalar operations, so results are identical.

* **cut-through** launches messages in ascending id order, greedily as
  paths free up (the event loop's semantics).  The batch kernel commits, per
  wave, every message that holds the minimum unfinished id on *all* its
  links -- such messages are pairwise link-disjoint and every lower-id
  link-sharer is already committed, so each wave's starts are final and
  per-link service happens exactly in id order.  The wave schedule *is*
  the event loop's schedule; no fallback is needed.

Result accumulation (total time, per-link/per-processor busy, per-phase
critical time) folds per-step values with ``np.add.accumulate``, which is
strictly sequential -- the same left-to-right float additions the
event loop's accumulation performs.  (``np.sum`` would *not* do: it
sums pairwise.)  The equivalence contract is pinned by
``tests/test_sim_vector.py``: for every field of
:class:`~repro.sim.SimulationResult`, :func:`plan_batch` ``.run()``
equals the event loop exactly under ``==``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.util import perf

__all__ = ["plan_batch"]

#: Row-chunk bound: per-step rows are accumulated in blocks so the 2-D
#: gather (``steps x columns`` floats) stays memory-friendly for very long
#: phase expressions over large machines.
_MAX_CHUNK_CELLS = 1 << 21


class _Round:
    """Static structure of one store-and-forward round of a step batch:
    which hops it serves (``hops_g``, link-grouped), their messages and
    links, and the link segments.  Durations are a cost model's; they are
    ``hop_dur[hops_g]`` (:func:`_durations`)."""

    __slots__ = (
        "hops_g", "ids_g", "links_g", "seg_id", "heads", "ends",
        "seg_links", "k", "sel_final",
    )


class _KernelTables:
    """Flat message tables plus lazily-built static schedule structure.

    Shared by :class:`_UniqueStep` (one distinct step) and
    :class:`_MergedGroup` (several distinct steps side by side in disjoint
    link-column blocks).  Nothing here depends on the cost model: the
    tables live in the mapping's message plan and every model's durations
    (:func:`_durations`) index into them.
    """

    __slots__ = (
        "n_msgs", "n_cols", "vols", "nhops", "ptr", "hop_link", "hop_msg",
        "msg_ptr", "_saf_rounds", "_ct_static",
    )

    def saf_rounds(self) -> list[_Round]:
        """Per-round static structure for the store-and-forward kernel."""
        if self._saf_rounds is None:
            rounds = []
            max_hops = int(self.nhops.max()) if self.n_msgs else 0
            for r in range(max_hops):
                rd = _Round()
                sel = np.flatnonzero(self.nhops > r)
                pos = self.ptr[sel] + r
                links = self.hop_link[pos]
                # Group columns by link; stable sort keeps id order within
                # a link, which is the reference's FIFO tie-break.
                lorder = np.argsort(links, kind="stable")
                rd.hops_g = pos[lorder]
                rd.ids_g = sel[lorder]
                rd.links_g = links[lorder]
                segstart = np.empty(lorder.size, dtype=bool)
                segstart[0] = True
                np.not_equal(rd.links_g[1:], rd.links_g[:-1], out=segstart[1:])
                rd.heads = np.flatnonzero(segstart)
                rd.ends = np.concatenate((rd.heads[1:] - 1, [lorder.size - 1]))
                rd.seg_id = np.cumsum(segstart) - 1
                rd.seg_links = rd.links_g[rd.heads]
                rd.k = int((rd.ends - rd.heads).max()) + 1
                rd.sel_final = sel[self.nhops[sel] == r + 1]
                rounds.append(rd)
            self._saf_rounds = rounds
        return self._saf_rounds

    def ct_static(self):
        """Static link grouping of hops for the cut-through kernel."""
        if self._ct_static is None:
            lorder = np.argsort(self.hop_link, kind="stable")
            hl_sorted = self.hop_link[lorder]
            segstart = np.empty(lorder.size, dtype=bool)
            segstart[0] = True
            np.not_equal(hl_sorted[1:], hl_sorted[:-1], out=segstart[1:])
            heads = np.flatnonzero(segstart)
            linkseg = np.zeros(int(self.hop_link.max()) + 1, dtype=np.int64)
            linkseg[hl_sorted[heads]] = np.arange(heads.size)
            cand_base = self.hop_msg[lorder]
            self._ct_static = (heads, linkseg[self.hop_link], cand_base)
        return self._ct_static


class _UniqueStep(_KernelTables):
    """Compiled flat arrays for one distinct step (phase set) of a run."""

    __slots__ = ("names", "comms", "execs")

    def __init__(self, plan, step, n_links: int):
        self.names = step
        self.comms = tuple(sorted(n for n in step if n in plan.comm_names))
        self.execs = tuple(sorted(n for n in step if n in plan.exec_names))
        unknown = set(step) - plan.comm_names - plan.exec_names
        if unknown:
            raise ValueError(f"phases {sorted(unknown)!r} not declared")

        msgs = plan.step_messages(self.comms)
        self.n_msgs = len(msgs)
        self.n_cols = n_links
        self.vols = np.fromiter(
            (v for _, v in msgs), dtype=np.float64, count=self.n_msgs
        )
        self.nhops = np.fromiter(
            (len(l) for l, _ in msgs), dtype=np.int64, count=self.n_msgs
        )
        self.ptr = np.concatenate(([0], np.cumsum(self.nhops)))
        self.msg_ptr = np.array([0, self.n_msgs], dtype=np.int64)
        # 0-based link indices, hop-major in message-id order.
        self.hop_link = np.fromiter(
            chain.from_iterable(l for l, _ in msgs),
            dtype=np.int64,
            count=int(self.ptr[-1]),
        ) - 1
        self.hop_msg = np.repeat(
            np.arange(self.n_msgs, dtype=np.int64), self.nhops
        )
        self._saf_rounds = None
        self._ct_static = None


class _MergedGroup(_KernelTables):
    """Several distinct steps laid side by side in one batch.

    Member ``i``'s links live in columns ``[i * n_links, (i+1) * n_links)``
    and its messages get contiguous ids after member ``i-1``'s, so the
    merged tables describe one big step whose members can never contend
    with each other -- one kernel invocation solves all of them, which is
    what keeps the per-numpy-call overhead off the critical path.
    """

    __slots__ = ()

    def __init__(self, members: list[_UniqueStep], n_links: int):
        self.n_cols = len(members) * n_links
        self.n_msgs = sum(u.n_msgs for u in members)
        self.vols = np.concatenate([u.vols for u in members])
        self.nhops = np.concatenate([u.nhops for u in members])
        self.ptr = np.concatenate(([0], np.cumsum(self.nhops)))
        self.hop_link = np.concatenate(
            [u.hop_link + i * n_links for i, u in enumerate(members)]
        )
        self.hop_msg = np.repeat(
            np.arange(self.n_msgs, dtype=np.int64), self.nhops
        )
        self.msg_ptr = np.concatenate(
            ([0], np.cumsum([u.n_msgs for u in members]))
        )
        self._saf_rounds = None
        self._ct_static = None


def _durations(compiled, tables: _KernelTables, n_links: int):
    """One cost model's durations over *tables*: the per-round hop
    durations for store-and-forward, the per-message path durations for
    cut-through.

    The scalar operations are the reference's, element by element:
    ``(hop_latency + byte_time * volume) * slowdown`` per hop, and
    ``hop_latency * hops + byte_time * volume`` per message, times the
    route's worst slowdown only when the slowdown map is non-empty (the
    reference's gate, replicated exactly).
    """
    model = compiled.model
    slow = np.ones(n_links, dtype=np.float64)
    for lid, factor in compiled.link_slowdowns.items():
        if 1 <= lid <= n_links:
            slow[lid - 1] = factor
    hop_slow = slow[tables.hop_link % n_links]  # merged columns fold back
    if model.switching == "cut_through":
        ct = (model.hop_latency * tables.nhops.astype(np.float64)
              + model.byte_time * tables.vols)
        if compiled.link_slowdowns and tables.n_msgs:
            ct = ct * np.maximum.reduceat(hop_slow, tables.ptr[:-1])
        return ct
    base = model.hop_latency + model.byte_time * tables.vols
    hop_dur = base[tables.hop_msg] * hop_slow
    return [hop_dur[rd.hops_g] for rd in tables.saf_rounds()]


def plan_batch(compiled, steps):
    """Compile the run's steps into a batch plan (see :class:`_BatchPlan`)."""
    return _BatchPlan(compiled, steps)


class _BatchPlan:
    """One simulate() call's steps, mapped onto the plan's unique-step
    tables and this model's prices for them."""

    def __init__(self, compiled, steps):
        self.compiled = compiled
        self.steps = steps
        plan = compiled.plan
        self.topo = topo = plan.mapping.topology
        statics = plan.vector_steps
        self.unique: list[_UniqueStep] = []
        #: Per unique step: this model's execution side of it.
        self.execs: list = []
        index: dict = {}
        uid = np.empty(len(steps), dtype=np.int64)
        for i, step in enumerate(steps):
            j = index.get(step)
            if j is None:
                u = statics.get(step)
                if u is None:
                    u = statics[step] = _UniqueStep(plan, step, topo.n_links)
                j = index[step] = len(self.unique)
                self.unique.append(u)
                self.execs.append(compiled.step_exec(u.execs))
            uid[i] = j
        self.uid = uid

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self):
        """Solve the batch and assemble a SimulationResult."""
        from repro.sim.engine import SimulationResult

        compiled = self.compiled
        topo = self.topo
        n_links = topo.n_links
        n_steps = len(self.steps)
        uid = self.uid
        unique = self.unique

        result = SimulationResult(kernel="vector")
        if n_steps == 0:
            return result

        # --- communication: solve every comm-bearing unique step once --
        has_msgs = np.array([u.n_msgs > 0 for u in unique], dtype=bool)
        comm_steps = np.flatnonzero(has_msgs[uid])
        comm_dur, comm_busy = self._solve_comm(np.flatnonzero(has_msgs), n_links)

        execs = self.execs
        exec_max = np.array([e.duration for e in execs], dtype=np.float64)
        durations = np.maximum(comm_dur, exec_max)[uid]

        # --- totals: sequential folds, identical to the event loop ----
        result.step_times = durations.tolist()
        result.total_time = float(np.add.accumulate(durations)[-1])
        n_msgs = np.array([u.n_msgs for u in unique], dtype=np.int64)
        result.messages = int(n_msgs[uid].sum())

        if comm_steps.size:
            busy_total = self._accumulate_rows(comm_busy, uid[comm_steps])
            touched = np.zeros(n_links, dtype=bool)
            for j in set(uid[comm_steps].tolist()):
                touched[unique[j].hop_link] = True
            result.link_busy = {
                int(l) + 1: float(busy_total[l]) for l in np.flatnonzero(touched)
            }

        exec_steps = np.flatnonzero(
            np.array([bool(u.execs) for u in unique], dtype=bool)[uid]
        )
        if exec_steps.size:
            exec_rows = np.stack([e.dense_row(topo) for e in execs])
            totals = self._accumulate_rows(exec_rows, uid[exec_steps])
            procs: dict = {}
            for j in sorted(set(uid[exec_steps].tolist())):
                for proc in execs[j].busy:
                    procs.setdefault(proc, topo.index_of(proc))
            result.proc_busy = {
                proc: float(totals[i]) for proc, i in procs.items()
            }

        for name in compiled.plan.phases_in(u.names for u in unique):
            mask = np.array([name in u.names for u in unique], dtype=bool)
            sel = durations[mask[uid]]
            result.phase_time[name] = (
                float(np.add.accumulate(sel)[-1]) if sel.size else 0.0
            )
        return result

    # ------------------------------------------------------------------
    def _solve_comm(self, comm_uids: np.ndarray, n_links: int):
        """Comm duration and ``(n_links,)`` busy row of every unique step,
        indexed by unique id (zero for steps without messages).

        The message-bearing steps *comm_uids* merge column-wise into a
        single kernel invocation.
        """
        comm_dur = np.zeros(len(self.unique), dtype=np.float64)
        comm_busy = np.zeros((len(self.unique), n_links), dtype=np.float64)
        if comm_uids.size == 0:
            return comm_dur, comm_busy

        compiled = self.compiled
        members = [self.unique[j] for j in comm_uids]
        if len(members) == 1:
            tables = members[0]
            key = tables.names
        else:
            key = tuple(u.names for u in members)
            statics = compiled.plan.vector_steps
            tables = statics.get(key)
            if tables is None:
                tables = statics[key] = _MergedGroup(members, n_links)
        durs = compiled.vector_prices.get(key)
        if durs is None:
            durs = compiled.vector_prices[key] = _durations(
                compiled, tables, n_links
            )
        if compiled.model.switching == "cut_through":
            msg_done, busy = _run_cut_through(tables, durs)
            hazard = False
        else:
            msg_done, busy, hazard = _run_store_and_forward(tables, durs)
        if hazard:
            # The candidate schedule broke FIFO order somewhere:
            # recompute the merged steps with the event loop.
            perf.count("sim.vector_fallback")
            for j, u in zip(comm_uids, members):
                duration, link_busy, _ = compiled.comm_outcome(u.comms)
                comm_dur[j] = duration
                for lid, bsy in link_busy.items():
                    comm_busy[j, lid - 1] = bsy
        else:
            comm_dur[comm_uids] = np.maximum.reduceat(
                msg_done, tables.msg_ptr[:-1]
            )
            comm_busy[comm_uids] = busy.reshape(len(members), n_links)
        return comm_dur, comm_busy

    @staticmethod
    def _accumulate_rows(rows: np.ndarray, step_rows: np.ndarray):
        """Sequential per-column sums over steps, in step order (chunked)."""
        n_cols = rows.shape[1]
        carry = np.zeros(n_cols, dtype=np.float64)
        block = max(1, _MAX_CHUNK_CELLS // max(n_cols, 1))
        for lo in range(0, step_rows.size, block):
            chunk = rows[step_rows[lo:lo + block]]
            stacked = np.concatenate((carry[None, :], chunk), axis=0)
            carry = np.add.accumulate(stacked, axis=0)[-1]
        return carry


def _run_store_and_forward(u: _KernelTables, round_durs: list[np.ndarray]):
    """Round-major FIFO relaxation of batch *u* over its link columns,
    with *round_durs* the hop durations of each round (:func:`_durations`).

    Returns ``(msg finish times (n_msgs,), busy (n_cols,), hazard)``.
    """
    n_cols = u.n_cols
    arr = np.zeros(u.n_msgs, dtype=np.float64)
    msg_done = np.zeros(u.n_msgs, dtype=np.float64)
    link_free = np.zeros(n_cols, dtype=np.float64)
    busy = np.zeros(n_cols, dtype=np.float64)
    last_a = np.full(n_cols, -np.inf, dtype=np.float64)
    last_i = np.full(n_cols, -1, dtype=np.int64)
    hazard = False

    for ri, (rd, durs_g) in enumerate(zip(u.saf_rounds(), round_durs)):
        if ri == 0:
            # Round 0 is static: every arrival is 0.0, the id-ordered
            # grouping is already the FIFO order (and trivially
            # hazard-free), and the service chain collapses to a
            # segmented prefix sum that is also the busy total.
            if rd.k == 1:
                link_free[rd.links_g] = durs_g
                busy[rd.links_g] = durs_g
                arr[rd.ids_g] = durs_g
            else:
                n = durs_g.size
                done = np.zeros(n, dtype=np.float64)
                shifted = np.empty(n, dtype=np.float64)
                for _ in range(rd.k):
                    shifted[1:] = done[:-1]
                    shifted[rd.heads] = 0.0
                    done = shifted + durs_g
                link_free[rd.seg_links] = done[rd.ends]
                busy[rd.seg_links] = done[rd.ends]
                arr[rd.ids_g] = done
            last_a[rd.links_g] = 0.0
            last_i[rd.links_g] = rd.ids_g
            last_i[rd.seg_links] = rd.ids_g[rd.ends]
        elif rd.k == 1:
            # Contention-free round: every link serves one message.
            ag = arr[rd.ids_g]
            pa = last_a[rd.links_g]
            if np.any(
                (ag < pa) | ((ag == pa) & (rd.ids_g < last_i[rd.links_g]))
            ):
                hazard = True
            done = np.maximum(ag, link_free[rd.links_g]) + durs_g
            link_free[rd.links_g] = done
            busy[rd.links_g] += durs_g
            last_a[rd.links_g] = ag
            last_i[rd.links_g] = rd.ids_g
            arr[rd.ids_g] = done
        else:
            # Sort within link segments by (arrival, id): the static
            # grouping already has id order, so a stable sort on
            # (segment, arrival) reproduces the event loop's tie-break.
            ag = arr[rd.ids_g]
            ord2 = np.lexsort((ag, rd.seg_id))
            a_s = ag[ord2]
            d_s = durs_g[ord2]
            ids2 = rd.ids_g[ord2]
            heads, ends = rd.heads, rd.ends
            free_h = link_free[rd.seg_links]
            busy_h = busy[rd.seg_links]
            done = np.zeros_like(a_s)
            bus = np.zeros_like(a_s)
            shifted = np.empty_like(a_s)
            shifted_b = np.empty_like(a_s)
            # k relaxation passes: pass p finalises queue position p of
            # every segment (done_i = max(arr_i, done_{i-1}) + dur_i).
            for _ in range(rd.k):
                shifted[1:] = done[:-1]
                shifted[heads] = free_h
                done = np.maximum(a_s, shifted) + d_s
                shifted_b[1:] = bus[:-1]
                shifted_b[heads] = busy_h
                bus = shifted_b + d_s
            a0 = a_s[heads]
            pa = last_a[rd.seg_links]
            if np.any(
                (a0 < pa) | ((a0 == pa) & (ids2[heads] < last_i[rd.seg_links]))
            ):
                hazard = True
            link_free[rd.seg_links] = done[ends]
            busy[rd.seg_links] = bus[ends]
            last_a[rd.seg_links] = a_s[ends]
            last_i[rd.seg_links] = ids2[ends]
            arr[ids2] = done
        if rd.sel_final.size:
            msg_done[rd.sel_final] = arr[rd.sel_final]

    return msg_done, busy, hazard


def _run_cut_through(u: _KernelTables, ct_dur: np.ndarray):
    """Id-order greedy path launches, committed in link-disjoint waves;
    *ct_dur* is each message's path duration (:func:`_durations`)."""
    heads, hop_seg, cand_base = u.ct_static()
    n_cols = u.n_cols
    n_msgs = u.n_msgs
    link_free = np.zeros(n_cols, dtype=np.float64)
    busy = np.zeros(n_cols, dtype=np.float64)
    msg_done = np.zeros(n_msgs, dtype=np.float64)
    committed = np.zeros(n_msgs, dtype=bool)

    while not committed.all():
        # A message commits when it is the minimum uncommitted id on all
        # its links: its lower-id link-sharers are then all committed, so
        # its start is final and each link is served in id order.
        cand = np.where(committed[cand_base], n_msgs, cand_base)
        linkmin = np.minimum.reduceat(cand, heads)
        ok = linkmin[hop_seg] == u.hop_msg
        allok = np.logical_and.reduceat(ok, u.ptr[:-1])
        commit = allok & ~committed
        start = np.maximum.reduceat(link_free[u.hop_link], u.ptr[:-1])
        done = start + ct_dur
        hops = np.flatnonzero(commit[u.hop_msg])
        cols = u.hop_link[hops]
        link_free[cols] = done[u.hop_msg[hops]]
        busy[cols] += ct_dur[u.hop_msg[hops]]
        msg_done[commit] = done[commit]
        committed |= commit

    return msg_done, busy
