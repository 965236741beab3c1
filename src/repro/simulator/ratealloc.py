"""Rate-allocation substrate: water-filling max-min fairness and MADD.

Three allocators used across the schedulers:

* :func:`max_min_fair` — global per-flow max-min fairness via progressive
  filling. This is the fluid model of per-flow TCP fair sharing and powers
  the UC-TCP baseline (§6.1) and intra-queue fair sharing.
* :func:`madd_rates` — Minimum-Allocation-for-Desired-Duration (Varys §4 /
  paper §4.2 D2): give every flow of a coflow the rate that finishes it
  exactly at the coflow's bottleneck completion time.
* :func:`equal_rate_for_coflow` — Saath's D2 rule: one equal rate for all
  flows of a coflow, the minimum of the per-flow fair caps.

All functions operate on a :class:`~repro.simulator.fabric.PortLedger` (or
its path-charging subclass :class:`~repro.simulator.topology.LinkLedger`)
so the caller controls what capacity is visible (residual capacity after
higher-priority allocations).

Every allocator treats a flow as a *path* of links: its sender port, its
receiver port and, on a multi-tier topology, the core links a
:class:`~repro.simulator.topology.PathMap` assigns to the pair, so rates
saturate at the true bottleneck link. Each allocator exists in forms
performing the *same arithmetic in the same order* (bit-identical outputs,
asserted by the equivalence tests):

* the ``*_rows`` form, taking table row indices plus the owning
  :class:`~repro.simulator.state.FlowTable` — the one production form:
  every scheduling round runs on it, on either fabric, whether the
  :class:`~repro.simulator.state.ClusterState` comes from the engine or is
  built by hand. A row's path is ``src, dst, link_a, link_b`` read straight
  off the table columns (core links ``-1`` when absent, always on a big
  switch) and indexes the ledger's dense per-link lists, with no attribute
  or dict dispatch in the fill loops. With ``table.fastcore`` set
  :func:`max_min_fair_rows_raw` dispatches to its compiled twin in
  :mod:`repro._fastcore`; the compiled twins of the MADD, equal-rate and
  greedy row forms are parts of the round kernels (``madd_round`` and
  ``saath_round``), so those forms run only in the rounds' Python twins;
* the object form (``flows``: a sequence of :class:`Flow`), port-only —
  the readable reference oracle the allocator fuzz pins the row forms to;
* ``*_paths`` twins (:func:`max_min_fair_paths`, :func:`madd_rates_paths`,
  :func:`equal_rate_for_coflow_paths`) of the object forms that look each
  pair's core links up in a ``PathMap`` — the reference oracle for the
  row forms on multi-tier path maps. On a big-switch map they are
  bit-identical to the port-only forms.

Walking a path, every form visits its links in the order sender, receiver,
then core links, and commits with :meth:`LinkLedger.commit`'s arithmetic
(per link: touch, tolerance check, at-capacity clamp), so a capacity
violation names the same link in every form.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

from .._fastcore import core as _core
from .fabric import _CAPACITY_TOLERANCE, CapacityViolationError, PortLedger
from .flows import CoFlow, Flow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state -> fabric)
    from .state import FlowTable
    from .topology import PathMap


def max_min_fair(
    flows: Sequence[Flow],
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """Max-min fair rates for ``flows`` over the ledger's residual capacity.

    Progressive filling: repeatedly find the tightest port (smallest residual
    divided by its number of unfrozen flows), freeze those flows at the fair
    share, subtract, and continue. The filling loop runs over a dense port
    index in *first-seen* order — the order the original implementation
    inserted ports into its scan dict — so the tie-break (first port in
    insertion order among equal shares) and every residual
    division/subtraction are unchanged; list indexing just replaces the
    dict churn that used to dominate UC-TCP rounds.

    Returns a mapping ``flow_id -> rate``; rates of all flows are committed
    to the ledger. ``rate_cap`` optionally bounds every flow's rate (used to
    model per-flow demand limits). ``commit=False`` skips the final ledger
    commits — for callers that discard the ledger after the round (UC-TCP),
    where the per-flow bookkeeping is pure overhead; the rates themselves
    respect every port capacity either way.
    """
    active_map: dict[int, Flow] = {
        f.flow_id: f for f in flows if f.finish_time is None
    }
    if not active_map:
        return {}
    active = list(active_map.values())
    fids = list(active_map)
    if rate_cap is not None and rate_cap <= 0:
        return dict.fromkeys(fids, 0.0)

    # Dense port indexing in first-seen order (src before dst per flow).
    port_index: dict[int, int] = {}
    residual: list[float] = []
    live: list[int] = []
    #: dense port -> flow positions touching it, in flow order.
    members: list[list[int]] = []
    num_flows = len(active)
    src_i: list[int] = [0] * num_flows
    dst_i: list[int] = [0] * num_flows
    ledger_residual = ledger.residual
    for i, f in enumerate(active):
        port = f.src
        j = port_index.get(port)
        if j is None:
            j = port_index[port] = len(residual)
            residual.append(ledger_residual(port))
            live.append(1)
            members.append([i])
        else:
            live[j] += 1
            members[j].append(i)
        src_i[i] = j
        port = f.dst
        j = port_index.get(port)
        if j is None:
            j = port_index[port] = len(residual)
            residual.append(ledger_residual(port))
            live.append(1)
            members.append([i])
        else:
            live[j] += 1
            members[j].append(i)
        dst_i[i] = j

    frozen = bytearray(num_flows)
    rate_of: list[float] = [0.0] * num_flows
    num_ports = len(residual)
    remaining = num_flows

    while remaining:
        # Tightest port among those with unfrozen flows. Dense indices were
        # assigned in first-seen order, so ascending-index iteration *is*
        # the original insertion-order scan and the tie-break (first port
        # among equal shares) is preserved; dead ports just skip.
        best_j = -1
        best_share = math.inf
        for j in range(num_ports):
            count = live[j]
            if count == 0:
                continue
            share = residual[j] / count
            if share < best_share:
                best_share = share
                best_j = j
        if best_j < 0:
            break

        if rate_cap is not None and rate_cap < best_share:
            # Every remaining flow can take the cap without saturating any
            # port: freeze them all at the cap. (The original loop also
            # updated residuals here, but nothing reads them after this
            # terminal branch.)
            for i in range(num_flows):
                if not frozen[i]:
                    rate_of[i] = rate_cap
            break

        # Freeze the flows on the bottleneck port at the fair share.
        # Numerical guard, applied per update: residuals can dip a hair
        # below zero. Clamping after each subtraction instead of once at
        # iteration end yields the same final value — a positive partial
        # result is unclamped either way, and once any partial result goes
        # negative both variants end the iteration at exactly 0.0.
        for i in members[best_j]:
            if frozen[i]:
                continue
            frozen[i] = 1
            rate_of[i] = best_share
            j = src_i[i]
            nr = residual[j] - best_share
            residual[j] = nr if nr >= 0 else 0.0
            live[j] -= 1
            j = dst_i[i]
            nr = residual[j] - best_share
            residual[j] = nr if nr >= 0 else 0.0
            live[j] -= 1
            remaining -= 1

    rates = dict(zip(fids, rate_of))
    if commit:
        ledger_commit = ledger.commit
        for f, rate in zip(active, rate_of):
            if rate > 0:
                ledger_commit(f.src, f.dst, rate)
    return rates


def max_min_fair_rows_raw(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
    prefiltered: bool = False,
) -> tuple[list[int], list[float]]:
    """Row-path core of :func:`max_min_fair` (same fills, same tie-breaks).

    ``rows`` are flow-table row indices; per-flow ports and liveness come
    from the table columns and the initial per-port residuals from the
    ledger's dense capacity/usage lists, so the build pass does no
    attribute dispatch. Returns the unfinished rows (in input order) and
    their rates as two aligned lists — callers that need a ``flow_id``
    -keyed map use :func:`max_min_fair_rows`; UC-TCP consumes the raw pair
    directly, skipping two O(flows) dict passes per round.

    ``prefiltered=True`` asserts that ``rows`` holds no finished flows
    (true for pending-row caches, which drop rows on completion), skipping
    the liveness re-filter. ``rate_cap <= 0`` zeroes every rate, as in the
    object form.
    """
    if prefiltered:
        active = list(rows) if not isinstance(rows, list) else rows
    else:
        ft = table.finish_time
        active = [i for i in rows if ft[i] is None]
    num_flows = len(active)
    rate_of: list[float] = [0.0] * num_flows
    if not num_flows or (rate_cap is not None and rate_cap <= 0):
        return active, rate_of

    metrics = ledger._metrics
    if table.fastcore and _core is not None:
        if metrics is not None:
            metrics.inc("kernel.mmf_fill.fastcore")
        return active, _core.mmf_fill(
            active, table.src, table.dst, table.link_a, table.link_b,
            ledger.capacity_list, ledger.used_list, ledger.touched_set,
            rate_cap, commit,
        )
    if metrics is not None:
        metrics.inc("kernel.mmf_fill.python")

    src_col = table.src
    dst_col = table.dst
    la_col = table.link_a
    lb_col = table.link_b
    lcap = ledger.capacity_list
    lused = ledger.used_list

    # Dense link indexing in first-seen order (per flow: src, dst, core
    # links). Link ids are already dense, so the first-seen map is a flat
    # position list instead of a dict (same assignment order).
    link_pos: list[int] = [-1] * len(lcap)
    residual: list[float] = []
    live: list[int] = []
    #: dense link -> flow positions crossing it, in flow order.
    members: list[list[int]] = []
    #: flow position -> dense indices of every link on its path.
    path_idx: list[list[int]] = [[]] * num_flows
    for k, i in enumerate(active):
        idx = []
        for link in (src_col[i], dst_col[i], la_col[i], lb_col[i]):
            if link < 0:
                break
            j = link_pos[link]
            if j < 0:
                link_pos[link] = j = len(residual)
                r = lcap[link] - lused[link]  # == ledger.residual(link)
                residual.append(r if r >= 0.0 else 0.0)
                live.append(1)
                members.append([k])
            else:
                live[j] += 1
                members[j].append(k)
            idx.append(j)
        path_idx[k] = idx

    frozen = bytearray(num_flows)
    remaining = num_flows
    inf = math.inf
    #: Per-link fair share ``residual / live`` (inf once drained),
    #: maintained incrementally: a share only changes when one of its
    #: link's inputs changes, so the bottleneck search collapses to a
    #: C-level ``min`` + first-index lookup. ``index(min)`` returns the
    #: lowest dense index achieving the minimum — dense indices were
    #: assigned in first-seen order, so this is exactly the object form's
    #: ascending-scan tie-break (first link among equal shares).
    shares = [residual[j] / live[j] for j in range(len(residual))]

    while remaining:
        best_share = min(shares)
        if best_share == inf:
            break
        best_j = shares.index(best_share)

        if rate_cap is not None and rate_cap < best_share:
            for k in range(num_flows):
                if not frozen[k]:
                    rate_of[k] = rate_cap
            break

        # Freeze the flows on the bottleneck link at the fair share and
        # subtract it from every link of each frozen flow's path (the
        # per-update negative clamp of the object form).
        for k in members[best_j]:
            if frozen[k]:
                continue
            frozen[k] = 1
            rate_of[k] = best_share
            for j in path_idx[k]:
                nr = residual[j] - best_share
                residual[j] = nr = nr if nr >= 0 else 0.0
                lv = live[j] - 1
                live[j] = lv
                shares[j] = nr / lv if lv else inf
            remaining -= 1

    if commit:
        touched = ledger.touched_set
        for k, i in enumerate(active):
            rate = rate_of[k]
            if rate > 0:
                _commit_path(lcap, lused, touched, rate,
                             src_col[i], dst_col[i], la_col[i], lb_col[i])
    return active, rate_of


def _commit_path(lcap, lused, touched, rate: float, *path: int) -> None:
    """:meth:`LinkLedger.commit` over one row's path, inlined on the dense
    lists: per link (``-1`` ends the path) touch, tolerance check and
    at-capacity clamp, raising on the first over-committed link."""
    for link in path:
        if link < 0:
            return
        touched.add(link)
        cap = lcap[link]
        new_used = lused[link] + rate
        if new_used > cap * _CAPACITY_TOLERANCE:
            raise CapacityViolationError(str(link), new_used, cap)
        lused[link] = new_used if new_used < cap else cap


def max_min_fair_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """Row-path twin of :func:`max_min_fair`: ``flow_id → rate`` over the
    unfinished rows (zero-rate entries included, as in the object form)."""
    active, rate_of = max_min_fair_rows_raw(
        rows, table, ledger, rate_cap=rate_cap, commit=commit
    )
    fid = table.flow_id
    return dict(zip([fid[i] for i in active], rate_of))


def madd_rates(
    coflow: CoFlow,
    ledger: PortLedger,
    *,
    flows: Iterable[Flow] | None = None,
) -> dict[int, float]:
    """MADD rates finishing all flows of ``coflow`` at its bottleneck time.

    **Clairvoyant**: reads flow remaining volumes. Computes the coflow's
    completion time Γ if each port dedicated its residual capacity, then
    assigns each flow ``remaining / Γ``, scaling down if any port would be
    oversubscribed. Returns ``{}`` when the coflow cannot make progress
    (some needed port has zero residual).

    Rates are committed to the ledger.
    """
    # Inlined Flow.remaining / Flow.finished: this runs for every active
    # coflow on every scheduling round under Varys, so property dispatch
    # overhead is material. ``remaining > 0`` never needs the max-with-zero
    # clamp the property applies (the filter already excludes non-positive
    # values), so the floats are unchanged.
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None and f.volume - f.bytes_sent > 0]
    if not todo:
        return {}

    port_bytes: dict[int, float] = {}
    get = port_bytes.get
    for f in todo:
        remaining = f.volume - f.bytes_sent
        port_bytes[f.src] = get(f.src, 0.0) + remaining
        port_bytes[f.dst] = get(f.dst, 0.0) + remaining

    gamma = 0.0
    port_residual = ledger.residual
    for port, volume in port_bytes.items():
        residual = port_residual(port)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    rates = {f.flow_id: (f.volume - f.bytes_sent) / gamma for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rates[f.flow_id])
    return rates


def madd_rates_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
) -> dict[int, float]:
    """Row-path twin of :func:`madd_rates` (same Γ, same scaling).

    ``rows`` are the coflow's schedulable rows; remaining volumes are read
    straight off the table columns. Γ covers every path link, core links
    included (the arithmetic of :func:`madd_rates_paths`).

    Its compiled twin is the MADD step of the ``madd_round`` kernel, so
    this form runs only in that round's Python twin.
    """
    metrics = ledger._metrics
    if metrics is not None:
        metrics.inc("kernel.madd_rows.python")
    ft = table.finish_time
    vol = table.volume
    bs = table.bytes_sent
    src_col = table.src
    dst_col = table.dst
    la_col = table.link_a
    lb_col = table.link_b
    # Liveness filter and per-link byte aggregation fused into one pass
    # (same walk order, same accumulation order; ``remaining`` is computed
    # once and reused for the rate assignment below).
    todo: list[int] = []
    left: list[float] = []
    link_bytes: dict[int, float] = {}
    get = link_bytes.get
    for i in rows:
        if ft[i] is not None:
            continue
        remaining = vol[i] - bs[i]
        if remaining <= 0:
            continue
        todo.append(i)
        left.append(remaining)
        for link in (src_col[i], dst_col[i], la_col[i], lb_col[i]):
            if link < 0:
                break
            link_bytes[link] = get(link, 0.0) + remaining
    if not todo:
        return {}

    lcap = ledger.capacity_list
    lused = ledger.used_list
    gamma = 0.0
    for link, volume in link_bytes.items():
        residual = lcap[link] - lused[link]  # == ledger.residual(link)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    # Rate build and ledger commit fused into one pass.
    fid = table.flow_id
    touched = ledger.touched_set
    rates: dict[int, float] = {}
    for i, remaining in zip(todo, left):
        rate = remaining / gamma
        rates[fid[i]] = rate
        _commit_path(lcap, lused, touched, rate,
                     src_col[i], dst_col[i], la_col[i], lb_col[i])
    return rates


def equal_rate_for_coflow(
    coflow: CoFlow,
    ledger: PortLedger,
    *,
    flows: Sequence[Flow] | None = None,
    port_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """Saath's D2 rule: one equal rate for every flow of the coflow.

    Non-clairvoyant. At each port the coflow's flows share the residual
    capacity fairly, so flow ``f``'s cap is
    ``min(residual(src)/n_src, residual(dst)/n_dst)`` where ``n_src`` is the
    number of the coflow's schedulable flows on that sender (resp.
    receiver). The coflow rate is the minimum cap over its flows — "the rate
    of the slowest flow is assigned to all the flows" (§4.2 D2) — and is
    committed to the ledger.

    ``port_counts`` optionally supplies the per-port flow counts over
    exactly ``flows`` (the cluster state's flow-group compaction cache, see
    :meth:`~repro.simulator.state.ClusterState.port_counts`), collapsing the
    counting and min-cap passes to O(ports touched) instead of O(flows).
    Every port's cap is the same division either way, and the minimum over
    the same multiset of caps is the same float, so the two paths are
    bit-identical.

    Returns ``{}`` if the equal rate would be zero.
    """
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None]
    if not todo:
        return {}

    residual = ledger.residual
    rate = math.inf
    if port_counts is not None:
        for port, count in port_counts.items():
            cap = residual(port) / count
            if cap < rate:
                rate = cap
    else:
        count_at_port: dict[int, int] = defaultdict(int)
        for f in todo:
            count_at_port[f.src] += 1
            count_at_port[f.dst] += 1
        for f in todo:
            cap_src = residual(f.src) / count_at_port[f.src]
            cap_dst = residual(f.dst) / count_at_port[f.dst]
            rate = min(rate, cap_src, cap_dst)
    if not math.isfinite(rate) or rate <= 0:
        return {}

    rates = {f.flow_id: rate for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rate)
    return rates


def equal_rate_for_coflow_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    port_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """Row-path twin of :func:`equal_rate_for_coflow` (same caps, same min).

    ``rows`` are the coflow's schedulable rows; ``port_counts`` is the
    cluster state's compaction cache (per-*link* counts over whole paths on
    a path-aware state). Without it the counts are rebuilt over the rows'
    paths. Each link's cap is the same division either way and the
    minimum over the same set of caps is the same float, so both branches
    agree bitwise with the per-flow minimum of the object forms.

    It has no compiled dispatch of its own: with the compiled core,
    Saath's whole round, this rule included, is one ``saath_round`` call
    (:meth:`~repro.core.saath.SaathScheduler.schedule`), and this form is
    its Python twin.
    """
    metrics = ledger._metrics
    if metrics is not None:
        metrics.inc("kernel.equal_rate_rows.python")
    ft = table.finish_time
    todo = [i for i in rows if ft[i] is None]
    if not todo:
        return {}

    src_col = table.src
    dst_col = table.dst
    la_col = table.link_a
    lb_col = table.link_b
    if port_counts is None:
        port_counts = defaultdict(int)
        for i in todo:
            for link in (src_col[i], dst_col[i], la_col[i], lb_col[i]):
                if link < 0:
                    break
                port_counts[link] += 1
    lcap = ledger.capacity_list
    lused = ledger.used_list
    rate = math.inf
    for link, count in port_counts.items():
        r = lcap[link] - lused[link]  # == ledger.residual(link)
        cap = (r if r >= 0.0 else 0.0) / count
        if cap < rate:
            rate = cap
    if not math.isfinite(rate) or rate <= 0:
        return {}

    # Rate map and ledger commit fused.
    fid = table.flow_id
    touched = ledger.touched_set
    rates: dict[int, float] = {}
    for i in todo:
        rates[fid[i]] = rate
        _commit_path(lcap, lused, touched, rate,
                     src_col[i], dst_col[i], la_col[i], lb_col[i])
    return rates


def max_min_fair_paths(
    flows: Sequence[Flow],
    paths: "PathMap",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """Path-aware twin of :func:`max_min_fair`: progressive filling over
    *every link* of each flow's path.

    Each flow constrains — and is constrained by — its sender port, its
    receiver port and the core links ``paths`` assigns to the pair, so the
    fair share saturates at the true bottleneck (an oversubscribed spine
    uplink, say) instead of only at host ports. The filling loop is the
    object form's with "port" generalised to "link": links are indexed in
    first-seen order (per flow: sender, receiver, then core links) and the
    tie-break is the first link in that order among equal shares. On a
    big-switch topology every path is ``(src, dst)`` and this function is
    **bit-identical** to :func:`max_min_fair` (asserted by the fuzz suite).

    ``commit=True`` commits through ``ledger.commit`` — on a
    :class:`~repro.simulator.topology.LinkLedger` that charges the whole
    path, consistent with the rates just computed.
    """
    active_map: dict[int, Flow] = {
        f.flow_id: f for f in flows if f.finish_time is None
    }
    if not active_map:
        return {}
    active = list(active_map.values())
    fids = list(active_map)
    if rate_cap is not None and rate_cap <= 0:
        return dict.fromkeys(fids, 0.0)

    extra_links = paths.extra_links
    # Dense link indexing in first-seen order (per flow: src, dst, extras).
    link_index: dict[int, int] = {}
    residual: list[float] = []
    live: list[int] = []
    #: dense link -> flow positions crossing it, in flow order.
    members: list[list[int]] = []
    num_flows = len(active)
    #: flow position -> dense indices of every link on its path.
    path_idx: list[tuple[int, ...]] = [()] * num_flows
    ledger_residual = ledger.residual
    for i, f in enumerate(active):
        idx = []
        for link in (f.src, f.dst, *extra_links(f.src, f.dst)):
            j = link_index.get(link)
            if j is None:
                j = link_index[link] = len(residual)
                residual.append(ledger_residual(link))
                live.append(1)
                members.append([i])
            else:
                live[j] += 1
                members[j].append(i)
            idx.append(j)
        path_idx[i] = tuple(idx)

    frozen = bytearray(num_flows)
    rate_of: list[float] = [0.0] * num_flows
    num_links = len(residual)
    remaining = num_flows

    while remaining:
        # Tightest link among those with unfrozen flows (ascending dense
        # index == first-seen order, the object form's tie-break).
        best_j = -1
        best_share = math.inf
        for j in range(num_links):
            count = live[j]
            if count == 0:
                continue
            share = residual[j] / count
            if share < best_share:
                best_share = share
                best_j = j
        if best_j < 0:
            break

        if rate_cap is not None and rate_cap < best_share:
            for i in range(num_flows):
                if not frozen[i]:
                    rate_of[i] = rate_cap
            break

        # Freeze the flows on the bottleneck link at the fair share,
        # subtracting it from every link of each frozen flow's path (same
        # per-update negative clamp as the object form).
        for i in members[best_j]:
            if frozen[i]:
                continue
            frozen[i] = 1
            rate_of[i] = best_share
            for j in path_idx[i]:
                nr = residual[j] - best_share
                residual[j] = nr if nr >= 0 else 0.0
                live[j] -= 1
            remaining -= 1

    rates = dict(zip(fids, rate_of))
    if commit:
        ledger_commit = ledger.commit
        for f, rate in zip(active, rate_of):
            if rate > 0:
                ledger_commit(f.src, f.dst, rate)
    return rates


def madd_rates_paths(
    coflow: CoFlow,
    ledger: PortLedger,
    paths: "PathMap",
    *,
    flows: Iterable[Flow] | None = None,
) -> dict[int, float]:
    """Path-aware twin of :func:`madd_rates`: Γ over every path link.

    The coflow's bottleneck completion time Γ is the maximum over all
    *links* (host ports plus assigned core links) of the link's remaining
    byte load divided by its residual capacity, so an oversubscribed core
    link correctly stretches the whole coflow. Returns ``{}`` when any
    needed link has no residual. Bit-identical to :func:`madd_rates` when
    no path crosses a core link.
    """
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None and f.volume - f.bytes_sent > 0]
    if not todo:
        return {}

    extra_links = paths.extra_links
    link_bytes: dict[int, float] = {}
    get = link_bytes.get
    for f in todo:
        remaining = f.volume - f.bytes_sent
        link_bytes[f.src] = get(f.src, 0.0) + remaining
        link_bytes[f.dst] = get(f.dst, 0.0) + remaining
        for link in extra_links(f.src, f.dst):
            link_bytes[link] = get(link, 0.0) + remaining

    gamma = 0.0
    link_residual = ledger.residual
    for link, volume in link_bytes.items():
        residual = link_residual(link)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    rates = {f.flow_id: (f.volume - f.bytes_sent) / gamma for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rates[f.flow_id])
    return rates


def equal_rate_for_coflow_paths(
    coflow: CoFlow,
    ledger: PortLedger,
    paths: "PathMap",
    *,
    flows: Sequence[Flow] | None = None,
    link_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """Path-aware twin of :func:`equal_rate_for_coflow` (Saath's D2 rule).

    Flow ``f``'s cap becomes the minimum over *every link on its path* of
    ``residual(link) / n_link`` (``n_link`` = the coflow's schedulable
    flows crossing the link), and the coflow rate is the minimum cap over
    its flows. ``link_counts`` optionally supplies the per-link counts
    over exactly ``flows`` (as
    :meth:`~repro.simulator.state.ClusterState.port_counts` returns them
    on a path-aware state) — the minimum over the same multiset of caps,
    so the two branches agree bitwise.
    Commits go through ``ledger.commit`` (path-charging on a
    :class:`~repro.simulator.topology.LinkLedger`). Bit-identical to the
    port-only form when no path crosses a core link.
    """
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None]
    if not todo:
        return {}

    extra_links = paths.extra_links
    residual = ledger.residual
    rate = math.inf
    if link_counts is not None:
        for link, count in link_counts.items():
            cap = residual(link) / count
            if cap < rate:
                rate = cap
    else:
        count_at_link: dict[int, int] = defaultdict(int)
        for f in todo:
            count_at_link[f.src] += 1
            count_at_link[f.dst] += 1
            for link in extra_links(f.src, f.dst):
                count_at_link[link] += 1
        for f in todo:
            cap = residual(f.src) / count_at_link[f.src]
            if cap < rate:
                rate = cap
            cap = residual(f.dst) / count_at_link[f.dst]
            if cap < rate:
                rate = cap
            for link in extra_links(f.src, f.dst):
                cap = residual(link) / count_at_link[link]
                if cap < rate:
                    rate = cap
    if not math.isfinite(rate) or rate <= 0:
        return {}

    rates = {f.flow_id: rate for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rate)
    return rates


def greedy_residual_rates(
    flows: Sequence[Flow],
    ledger: PortLedger,
) -> dict[int, float]:
    """Work-conservation fill (Fig. 7 lines 18–23).

    Walk ``flows`` in order, giving each flow
    ``min(sender residual, receiver residual)`` and committing it. Later
    flows see capacity already consumed by earlier ones, so the input order
    is the scheduling priority order.

    Ports observed exhausted are remembered for the rest of the walk:
    residuals only decrease within one fill pass, so skipping a flow on a
    dead port is exactly the zero-rate no-op the fill would have returned,
    and the pass stops probing the ledger once the fabric saturates (most
    of the walk, on a loaded cluster).
    """
    rates: dict[int, float] = {}
    fill = ledger.fill
    residual = ledger.residual
    dead: set[int] = set()
    for f in flows:
        if f.finish_time is not None:
            continue
        src = f.src
        dst = f.dst
        if src in dead or dst in dead:
            continue
        rate = fill(src, dst)
        if rate > 0:
            rates[f.flow_id] = rate
        else:
            if residual(src) <= 0:
                dead.add(src)
            if residual(dst) <= 0:
                dead.add(dst)
    return rates


def greedy_residual_rates_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
) -> dict[int, float]:
    """Row-path twin of :func:`greedy_residual_rates` (same walk order).

    Each grant is :meth:`LinkLedger.fill`'s: the smallest residual along
    the row's whole path, committed on every path link. The dead memo
    covers every link (core links included): residuals only shrink within
    the walk, so skipping a flow that crosses an exhausted link is exactly
    the zero-rate no-op the fill would have returned.

    Its compiled twin is the fill inside the ``saath_round`` and
    ``madd_round`` kernels, so this form runs only in their Python twins.
    """
    metrics = ledger._metrics
    if metrics is not None:
        metrics.inc("kernel.greedy_rows.python")
    rates: dict[int, float] = {}
    dead: set[int] = set()
    ft = table.finish_time
    fid = table.flow_id
    src_col = table.src
    dst_col = table.dst
    la_col = table.link_a
    lb_col = table.link_b
    # Fused ledger fill over the dense lists, without a method call per
    # flow. ``residual(l) <= 0`` is ``capacity - used <= 0`` (the max-with-
    # zero clamp never changes the sign).
    lcap = ledger.capacity_list
    lused = ledger.used_list
    touched = ledger.touched_set
    inf = math.inf
    for i in rows:
        if ft[i] is not None:
            continue
        path = (src_col[i], dst_col[i], la_col[i], lb_col[i])
        rate = inf
        for link in path:
            if link < 0:
                break
            if link in dead:
                rate = None
                break
            other = lcap[link] - lused[link]
            if other < rate:
                rate = other
        if rate is None:
            continue
        if rate > 0:
            for link in path:
                if link < 0:
                    break
                lused[link] += rate
                touched.add(link)
            rates[fid[i]] = rate
        else:
            for link in path:
                if link < 0:
                    break
                if lcap[link] - lused[link] <= 0:
                    dead.add(link)
    return rates
