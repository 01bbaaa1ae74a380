"""Continuous-batching schedulers.

Every decode step the simulator asks its scheduler which waiting requests
to admit into the running batch (continuous batching: free slots open up
as generations finish and are refilled mid-flight).  Four policies are
provided:

* :class:`FcfsScheduler` — classic continuous batching: fill free slots in
  arrival order (vLLM's default behaviour);
* :class:`SloScheduler` — earliest-deadline-first: fill free slots in order
  of the requests' SLO deadlines, so tight-deadline traffic jumps the queue;
* :class:`MaxBatchScheduler` — throughput-oriented: hold admissions back
  until the batch can be filled completely (or no more arrivals can help,
  or a waiting request has aged past ``max_wait_ms``), maximizing the batch
  size each kernel launch amortizes over;
* :class:`MemoryAwareScheduler` — KV-budget-aware: admit the requests with
  the smallest KV block footprint first (packing more concurrent requests
  into the budget), with an FCFS aging escape so long prompts cannot
  starve.

**Admission order is a static key.**  Every policy declares
:meth:`Scheduler.queue_key`, a per-request key that never changes while
the request waits: ``(arrival_ms, request_id)`` by default,
``(slo_deadline_ms, request_id)`` for ``slo``.  Each replica keeps its
waiting list sorted by that key at all times (arrivals, preemption
victims and crash retries are inserted at their key; shedding keeps the
survivors' order), so :meth:`Scheduler.select` receives the list in the
policy's order and a key-ordered policy admits from its head — ``slo``'s
earliest-deadline-first is the same head slice as ``fcfs``.  The key
ends in ``request_id``, so it is unique and insertion reproduces a full
sort exactly.  Writing a policy is therefore a key plus liveness hooks:

* :meth:`Scheduler.queue_key` — the waiting order;
* :meth:`Scheduler.select` — which waiting requests join now, with the
  replica's :class:`~repro.serving.memory.KvMemoryView` attached.  A
  key-ordered policy decides how much of the head to take (``max-batch``
  defers) and returns :func:`fitting_prefix` of it; ``memory-aware``
  reorders by a pool-dependent footprint that no static key can
  capture, so it keeps the arrival key and ranks inside ``select``;
* :meth:`Scheduler.next_event_ms` — when a time-based deferral must be
  re-polled;
* :meth:`Scheduler.preempt_order` — the order running requests should be
  preempted in when a decode step would exceed the KV budget (first entry
  = first victim).  The default is newest-first (LIFO, vLLM's
  recompute-preemption order); ``slo`` preempts the latest deadline first
  and ``memory-aware`` the largest block holder first.

A policy that reads ``waiting[0]`` as the oldest request must keep the
arrival key.

**Determinism contract.** Schedulers are deterministic: ties break on
``request_id``, and no policy consults wall-clock or random state.
Scheduler instances hold no per-run mutable state (constructor parameters
like ``max_wait_ms`` only), so one instance may be shared across replicas
and repeated runs — the cluster simulator relies on this.

**Digest compatibility.** The simulator digests only the per-request
trace, so a policy decision *is* observable: two schedulers that admit
identically produce equal digests, and any behavioural change to a policy
shows up in CI's digest checks.  :func:`fitting_prefix` keeps a *prefix*
of the policy's choice, not a filter, which is what keeps a slot-only
policy bit-identical under a never-exceeded KV budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple, Type, Union

from repro.serving.memory import KvMemoryView
from repro.serving.workload import Request, _is_real, arrival_key, frozen_record, slot_setters

__all__ = [
    "FcfsScheduler",
    "MaxBatchScheduler",
    "MemoryAwareScheduler",
    "RunningInfo",
    "SCHEDULERS",
    "Scheduler",
    "SloScheduler",
    "fitting_prefix",
    "get_scheduler",
]


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class RunningInfo:
    """A read-only snapshot of one running request, for preemption policy.

    ``admitted_ms`` is the time of the request's *latest* admission (so a
    readmitted request counts as new again — LIFO preemption is over
    residency, not first arrival); ``blocks_held`` its current KV holding.
    A preemption sweep builds one per running request, storing each field
    through its slot (:func:`~repro.serving.workload.slot_setters`).
    """

    request: Request
    admitted_ms: float
    blocks_held: int

    def __init__(self, request: Request, admitted_ms: float, blocks_held: int):
        _set_request(self, request)
        _set_admitted_ms(self, admitted_ms)
        _set_blocks_held(self, blocks_held)


_set_request, _set_admitted_ms, _set_blocks_held = slot_setters(RunningInfo)


class Scheduler:
    """Admission policy of one continuous-batching engine."""

    name = "base"

    def queue_key(self, request: Request) -> Tuple:
        """The key the engine keeps ``waiting`` sorted by (smallest first).

        It must be static for as long as the request waits and end in
        ``request_id`` (unique keys make insertion equal a full sort).
        The engine calls it once per enqueue (an arrival, a crash retry,
        a preemption victim) and keeps the result beside ``waiting``, so
        it never re-keys a waiting request.  The default is arrival
        order, ``(arrival_ms, request_id)``.
        """
        return arrival_key(request)

    def select(
        self,
        waiting: List[Request],
        free_slots: int,
        now_ms: float,
        more_arrivals: bool,
        memory: KvMemoryView,
    ) -> List[Request]:
        """The requests of ``waiting`` to admit this step.

        ``waiting`` is sorted by :meth:`queue_key`, so a policy that
        admits in its own key order takes a head slice; ``free_slots`` is
        how many requests may be admitted.  The engine calls ``select``
        only with a nonempty ``waiting`` and at least one free slot (a
        full batch admits nothing, whatever the policy); a policy called
        directly with ``free_slots <= 0`` must still admit nothing.
        ``more_arrivals`` says whether any request has yet to arrive (so a
        policy can distinguish "wait for more traffic" from "this is all
        the traffic there will ever be"), and ``memory`` the replica's KV
        block pool: every returned request must fit it, together with the
        ones returned before it (see :func:`fitting_prefix`).  ``memory``
        is the replica's one record, refreshed before each call: read it
        during the call and copy what you keep.
        """
        raise NotImplementedError

    def preempt_order(self, running: List[RunningInfo], now_ms: float) -> List[RunningInfo]:
        """The order running requests are preempted in (first = first victim).

        Called when a decode step would exceed the KV budget.  The default
        is newest-first (LIFO over the latest admission time — vLLM's
        recompute-preemption order): the most recently admitted request has
        the least decode progress to throw away.
        """
        return sorted(running, key=lambda s: (-s.admitted_ms, -s.request.request_id))

    def next_event_ms(self, waiting: List[Request], now_ms: float):
        """When a deferral should be re-polled, or ``None``.

        An idle engine whose scheduler admitted nothing advances simulated
        time to the earliest of the next arrival and this timestamp — a
        policy that defers on a *time* condition (e.g. max-batch's
        ``max_wait_ms``) must report it here, or the engine could sleep
        straight past it to the next arrival.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def fitting_prefix(chosen: List[Request], memory: KvMemoryView) -> List[Request]:
    """The longest prefix of ``chosen`` whose admission blocks fit the
    free pool — a prefix, not a filter, so no request sneaks past one the
    policy ranked ahead of it (FCFS stays FCFS under memory pressure)."""
    admitted: List[Request] = []
    free = memory.free_blocks
    for request in chosen:
        need = memory.admission_blocks(request)
        if need > free:
            break
        admitted.append(request)
        free -= need
    return admitted


class FcfsScheduler(Scheduler):
    """First-come-first-served continuous batching."""

    name = "fcfs"

    def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
        return fitting_prefix(waiting[: max(free_slots, 0)], memory)


class SloScheduler(Scheduler):
    """Earliest-deadline-first admission (latency-SLO aware)."""

    name = "slo"

    def queue_key(self, request):
        return (request.slo_deadline_ms, request.request_id)

    # ``waiting`` arrives in deadline order: EDF is its head slice.
    select = FcfsScheduler.select

    def preempt_order(self, running, now_ms):
        # The mirror of EDF admission: sacrifice the slackest deadline first.
        return sorted(
            running, key=lambda s: (-s.request.slo_deadline_ms, -s.request.request_id)
        )


def _check_max_wait(max_wait_ms) -> None:
    """Raise ``ValueError`` unless ``max_wait_ms`` is a real number (not a
    bool) of at least 0; infinity turns aging off."""
    # Written so that NaN fails too: every comparison with NaN is false.
    if not (_is_real(max_wait_ms) and max_wait_ms >= 0):
        raise ValueError(f"max_wait_ms must be a real number >= 0, got {max_wait_ms!r}")


class MaxBatchScheduler(Scheduler):
    """Admit only when the batch can be filled (bounded by ``max_wait_ms``).

    Holding admissions until ``len(waiting) >= free_slots`` trades a little
    queueing latency for consistently large batches.  Two escape hatches
    keep it live: when no further arrivals exist the remainder is flushed,
    and any request waiting longer than ``max_wait_ms`` forces an admission
    round so the policy cannot starve a straggler.
    """

    name = "max-batch"

    def __init__(self, max_wait_ms: float = 500.0):
        _check_max_wait(max_wait_ms)
        self.max_wait_ms = max_wait_ms

    def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
        if not waiting or free_slots <= 0:
            return []
        oldest_age = now_ms - waiting[0].arrival_ms
        if (
            len(waiting) >= free_slots
            or not more_arrivals
            or oldest_age >= self.max_wait_ms
        ):
            return fitting_prefix(waiting[:free_slots], memory)
        return []

    def next_event_ms(self, waiting, now_ms):
        if not waiting:
            return None
        # The moment the oldest waiting request ages past max_wait_ms.
        return waiting[0].arrival_ms + self.max_wait_ms


class MemoryAwareScheduler(Scheduler):
    """KV-budget-aware admission: smallest block footprint first.

    Under memory pressure, admitting the requests whose prompts pin the
    fewest KV blocks packs more concurrent generations into the budget
    (higher batch occupancy per block).  Pure smallest-first would starve
    long prompts, so any request that has waited longer than
    ``max_wait_ms`` jumps to the head of the line *in arrival order* and
    blocks everything behind it until it fits (head-of-line aging, the same
    liveness escape ``max-batch`` uses for time).  Preemption targets the
    largest block holder first — evicting one marathon context frees the
    most blocks per recompute.
    """

    name = "memory-aware"

    def __init__(self, max_wait_ms: float = 2000.0):
        _check_max_wait(max_wait_ms)
        self.max_wait_ms = max_wait_ms

    def select(self, waiting, free_slots, now_ms, more_arrivals, memory):
        if not waiting or free_slots <= 0:
            return []
        aged = [r for r in waiting if now_ms - r.arrival_ms >= self.max_wait_ms]
        fresh = [r for r in waiting if now_ms - r.arrival_ms < self.max_wait_ms]
        # At most free_slots requests join, so the free_slots smallest fresh
        # requests (nsmallest is exactly sorted(...)[:free_slots] — the key
        # is unique) fully determine the round; no need to sort the whole
        # backlog.
        fresh = heapq.nsmallest(
            free_slots,
            fresh,
            key=lambda r: (memory.admission_blocks(r), r.arrival_ms, r.request_id),
        )
        # Aged requests first, in arrival order, and nothing may jump past
        # one that does not fit; fresh requests are packed smallest-first
        # (sorted ascending, so the first misfit ends the round).
        return fitting_prefix((aged + fresh)[:free_slots], memory)

    def preempt_order(self, running, now_ms):
        # Largest holder first — evicting one marathon context frees the
        # most blocks per recompute — EXCEPT the longest-resident request,
        # which is always the last resort.  Without that exemption the
        # policy livelocks: the largest holder is evicted, readmitted with
        # a small footprint, grows back into the largest holder and is
        # evicted again, so no request ever finishes.  Newest-first (the
        # base policy) and deadline-ordered preemption protect a stable
        # survivor implicitly; largest-first must do it explicitly.
        oldest = min(running, key=lambda s: (s.admitted_ms, s.request.request_id))
        ordered = sorted(
            running,
            key=lambda s: (-s.blocks_held, -s.admitted_ms, -s.request.request_id),
        )
        return [s for s in ordered if s is not oldest] + [oldest]


SCHEDULERS: Dict[str, Type[Scheduler]] = {
    FcfsScheduler.name: FcfsScheduler,
    SloScheduler.name: SloScheduler,
    MaxBatchScheduler.name: MaxBatchScheduler,
    MemoryAwareScheduler.name: MemoryAwareScheduler,
}


def get_scheduler(spec: Union[str, Scheduler]) -> Scheduler:
    """Resolve a scheduler from a policy name or pass an instance through."""
    if isinstance(spec, Scheduler):
        return spec
    try:
        return SCHEDULERS[spec]()
    except KeyError:
        raise KeyError(f"unknown scheduler {spec!r} (expected one of {sorted(SCHEDULERS)})")
