"""The deterministic continuous-batching serving simulator.

:class:`ServingSimulator` plays a workload of :class:`Request`\\ s through a
discrete-event loop modelled on vLLM's engine step:

1. admit every request whose arrival time has passed into the waiting set,
   which stays sorted by the scheduler's
   :meth:`~repro.serving.scheduler.Scheduler.queue_key` (when the engine
   is fully idle, simulated time jumps to the next arrival);
2. grow the KV holding of every running request whose next token starts
   a new block (the others' holdings already cover it); if the pool
   cannot cover the growth, running requests are **preempted** back to
   the waiting queue in the scheduler's
   :meth:`~repro.serving.scheduler.Scheduler.preempt_order` (newest-first
   by default — vLLM's recompute preemption) until the rest fit.  A
   preempted request restarts from scratch on readmission
   (recompute-on-readmit: it pays its prefill again and re-decodes);
3. ask the scheduler which waiting requests join the running batch
   (continuous batching — free slots refill mid-flight as generations
   finish).  Admission is **memory-aware**: a request only joins when its
   prompt's KV blocks (plus the first decode token) fit the free pool;
4. run one decode step for the whole batch: every running request emits one
   token, and the step's duration comes from the
   :class:`~repro.serving.step_model.StepLatencyModel` at the *bucketed*
   batch size.  Requests joining this step first pay a prefill surcharge
   proportional to their prompt length (prefill processes tokens
   :data:`PREFILL_PARALLELISM` times more efficiently than decode,
   reflecting its compute-dense batching);
5. requests that decoded their last token leave the batch, freeing their
   KV blocks and recording their finish time.

Steps 2 and 5 touch only the requests with an event this step.  A
request's block crossings and its finish fall at steps known when it
joins, so admission books them into step-keyed calendars and each step
takes its own entries: a step's work grows with its joins, crossings and
finishes, not with the batch.

The loop itself lives in :class:`ReplicaEngine`, the *steppable* form of
the simulator: ``ServingSimulator.simulate`` constructs an engine and
drives it to completion, while the multi-replica :class:`~repro.serving.cluster.\
ClusterSimulator` interleaves several engines in simulated-time order,
injecting requests as its router assigns them.  One engine iteration
(:meth:`ReplicaEngine.advance`) is exactly one iteration of the monolithic
loop above, so a single-replica cluster is bit-identical to the bare
simulator — the equivalence gate ``tests/test_serving.py`` enforces.

The KV budget defaults to the replica's real capacity — the architecture's
HBM (``GpuArch.hbm_gb``) times a utilization headroom, minus the sharded
model weights, in :data:`~repro.serving.memory.DEFAULT_KV_BLOCK_TOKENS`-token
blocks (see :mod:`repro.serving.memory`).  Pass ``kv_budget_blocks`` to
model a smaller (or effectively infinite) pool.  The budget only ever
defers admissions or forces preemptions, so a run that never reaches it
produces the same trace at any budget size.

Everything is deterministic: the only randomness lives in the seeded
workload generators, schedulers break ties on request ids, block accounting
is integer arithmetic, and the step latencies are memoized analytical
results — so two runs of the same seeded workload produce bit-identical
:class:`ServeReport` digests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.serving.memory import KvBlockManager, kv_budget_blocks as _derive_kv_budget_blocks
from repro.serving.prefix import PrefixStore
from repro.serving.report import RequestMetrics, ServeReport
from repro.serving.scheduler import RunningInfo, Scheduler, get_scheduler
from repro.serving.step_model import PrecompileStats, StepLatencyModel, shared_step_model
from repro.serving.workload import Request, RequestQueue, arrival_key, check_unique_ids
from repro.sim.arch import DEFAULT_EVAL_ARCH, get_arch

__all__ = ["PREFILL_PARALLELISM", "ReplicaEngine", "ServingSimulator"]

# How many times more efficiently prefill processes a token than a decode
# step does (its compute-dense batching).
PREFILL_PARALLELISM = 8.0


@dataclass(slots=True)
class _ActiveRequest:
    """Mutable runtime state of one request inside the engine, created
    when the request first joins the running batch.

    ``join_step`` is the engine's step count when the request last joined
    the running batch (-1 while preempted): every running request decodes
    one token per step, so after ``steps`` steps it has decoded
    ``steps - join_step`` tokens, and no per-step counter is kept.  The
    engine's calendars tag their entries with it, which is how an entry
    left behind by a preempted request is told apart from a live one.

    ``shared_tokens`` records an attachment to ``request.prefix_id`` in
    the replica's :class:`~repro.serving.prefix.PrefixStore` (set at
    admission, cleared on preemption; 0 when unattached): the first
    ``shared_tokens`` tokens of the context live in the store's
    refcounted blocks, so the request's own :class:`KvBlockManager`
    holding covers only the private remainder.
    """

    request: Request
    scheduled_ms: float
    admitted_ms: float = -1.0
    first_token_ms: float = -1.0
    join_step: int = -1
    shared_tokens: int = 0


class ServingSimulator:
    """One simulated model replica running continuous batching.

    ``step_model`` defaults to the process-wide shared model for ``arch``
    (so repeated simulations share kernel compilations and memoized step
    latencies); pass an explicit :class:`StepLatencyModel` to isolate
    caches, e.g. for cold-start experiments.

    ``kv_budget_blocks=None`` derives the per-replica KV block budget from
    the model config and the architecture's HBM capacity
    (:func:`repro.serving.memory.kv_budget_blocks`); an explicit block
    count overrides it (e.g. a tiny pool to study preemption, or a huge
    one to make memory irrelevant).

    Requests that declare a common prompt prefix (``Request.prefix_id``)
    share its KV blocks through each replica's refcounted copy-on-write
    :class:`~repro.serving.prefix.PrefixStore`: admission charges only the
    unshared suffix when the prefix is resident.  A request without a
    prefix never touches the store.
    """

    def __init__(
        self,
        model_config,
        backend: str = "hexcute",
        scheduler: Union[str, Scheduler] = "fcfs",
        arch=DEFAULT_EVAL_ARCH,
        max_batch_size: int = 32,
        step_model: Optional[StepLatencyModel] = None,
        kv_budget_blocks: Optional[int] = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.model_config = model_config
        self.backend = backend
        self.scheduler = get_scheduler(scheduler)
        self.arch = get_arch(arch)
        self.max_batch_size = max_batch_size
        self.step_model = step_model if step_model is not None else shared_step_model(self.arch)
        # A batch above the largest step-model bucket would previously be
        # *silently* timed at the largest bucket; extend the bucket set so
        # every step is timed at a bucket covering the actual batch.
        self.step_model.ensure_bucket(max_batch_size)
        if kv_budget_blocks is not None:
            if kv_budget_blocks < 1:
                raise ValueError(f"kv_budget_blocks must be >= 1, got {kv_budget_blocks}")
            self.kv_budget_blocks = int(kv_budget_blocks)
        else:
            self.kv_budget_blocks = _derive_kv_budget_blocks(model_config, self.arch)

    # ------------------------------------------------------------------ #
    def precompile(self) -> PrecompileStats:
        """Compile this replica's batch buckets up front (serving startup)."""
        buckets = [b for b in self.step_model.buckets if b <= self.max_batch_size]
        if not buckets or buckets[-1] < self.max_batch_size:
            buckets.append(self.step_model.bucket_for(self.max_batch_size))
        return self.step_model.precompile(self.model_config, self.backend, buckets=buckets)

    def simulate(self, requests: Sequence[Request], workload: str = "custom") -> ServeReport:
        """Play ``requests`` through the engine and report the outcome;
        a repeated ``request_id`` raises ``ValueError``."""
        check_unique_ids(requests)
        # Fresh engine (and block accounting) per run, so repeated
        # simulate() calls on one simulator are independent and
        # bit-identical.
        engine = ReplicaEngine(self, requests)
        while engine.advance():
            pass
        return engine.report(workload)


class ReplicaEngine:
    """The steppable form of one replica's continuous-batching loop.

    :meth:`advance` executes exactly one iteration of the simulator's
    discrete-event loop (pop arrivals → grow/preempt → admit → decode
    step → retire) and returns ``False`` once no further progress is
    possible without external input.  ``ServingSimulator.simulate`` drives
    an engine to completion; :class:`~repro.serving.cluster.ClusterSimulator`
    drives several at once, interleaved in simulated-time order, and
    :meth:`inject`\\ s each request into the replica its router picked.

    The two ``external_*`` arguments exist for that cluster mode: a
    replica's *local* arrival queue only holds the requests already routed
    to it, so the cluster passes the global next unrouted arrival time
    (folded into the idle-jump and deferral wake hints exactly like a
    local arrival) and whether any unrouted traffic remains (folded into
    the scheduler's ``more_arrivals``).  With both left at their defaults
    the engine is the monolithic single-replica loop, bit for bit.

    A running request's KV holding changes only when its context crosses
    a block boundary (once every ``block_tokens`` decoded tokens), and it
    leaves the batch once, both at steps known when it joins.  So each
    admission books the request into two step-keyed calendars, and the
    grow and retire phases take only the current step's entries.
    """

    def __init__(self, sim: ServingSimulator, requests: Sequence[Request] = (), replica_id: int = 0):
        self.sim = sim
        self.replica_id = replica_id
        self.manager = KvBlockManager(sim.kv_budget_blocks)
        self.prefix_store = PrefixStore(self.manager)
        self._reserved_blocks = 0
        for request in requests:
            self._reserve(request)
        self.queue = RequestQueue(requests)
        # ``waiting`` is the list the scheduler reads, maintained sorted by
        # its static ``queue_key`` at all times (see :meth:`_enqueue`;
        # shedding keeps the survivors' order and admission splits off the
        # head), so the scheduler admits from the head instead of scanning
        # the backlog.  The key is unique per request, so this order is
        # bit-identical to a full sort.  A preempted request waits as its
        # bare Request too; its runtime state waits in ``_preempted`` so
        # that readmission keeps its first scheduling and first-token times.
        self._queue_key = sim.scheduler.queue_key
        self.waiting: List[Request] = []
        self._preempted: Dict[int, _ActiveRequest] = {}
        # Request id -> state, in join order: the order preemption victims
        # and finishers detach from their prefixes in, which decides the
        # eviction order of cached prefix entries.
        self.running: Dict[int, _ActiveRequest] = {}
        # Step-keyed calendars of ``(state, join_step)`` entries, booked at
        # admission: ``_crossings[s]`` holds the requests whose private
        # context crosses a KV-block boundary in the grow phase at step
        # count ``s``, ``_finishes[s]`` those whose last token is decoded
        # by step ``s``.  An entry whose join step is no longer its
        # request's is stale (preempted since) and is skipped.
        self._crossings: Dict[int, List[Tuple[_ActiveRequest, int]]] = {}
        self._finishes: Dict[int, List[Tuple[_ActiveRequest, int]]] = {}
        self.finished: List[RequestMetrics] = []
        self.now = 0.0
        self.steps = 0
        self.batch_size_sum = 0
        self.queue_depth_sum = 0
        self.max_queue_depth = 0
        self.preemptions = 0
        self.kv_utilization_sum = 0.0
        # Fault state (repro.serving.faults): a crashed replica refuses to
        # advance until recover(); a slowdown scales decode-step latency
        # while its window is open.  ``shed`` holds the ids of requests
        # dropped past their hard deadline.  All of it is inert — and the
        # hot loop's checks short-circuit — unless faults or deadlines are
        # actually injected.
        self.healthy = True
        self.crashes = 0
        self.downtime_ms = 0.0
        self._down_since = -1.0
        self._slow_factor = 1.0
        self._slow_until_ms = 0.0
        self.shed: List[int] = []
        self._has_deadlines = any(r.deadline_ms is not None for r in requests)
        # batch size -> step latency, per engine: the model config and
        # backend are fixed for the engine's lifetime, so this avoids the
        # step model's bucket resolution + lock + defensive dict copy on
        # every decode step (values are memoized and deterministic, so the
        # cache cannot change what any step observes).
        self._step_cache: dict = {}

    # ------------------------------------------------------------------ #
    def _reserve(self, request: Request) -> None:
        """Validate ``request`` against the KV budget and add its
        full-context footprint to :attr:`kv_reserved_blocks`."""
        full = self.manager.blocks_for(request.prompt_tokens + request.output_tokens)
        if full > self.manager.total_blocks:
            raise ValueError(
                f"request {request.request_id} needs {full} KV blocks at full "
                f"context ({request.prompt_tokens}+{request.output_tokens} tokens) "
                f"but the replica budget is {self.manager.total_blocks} blocks"
            )
        self._reserved_blocks += full

    def inject(self, request: Request) -> None:
        """Hand this replica one more request (cluster routing).

        The request is validated against the replica's KV budget exactly
        like ``simulate()`` validates its whole workload up front.
        """
        self._reserve(request)
        if request.deadline_ms is not None:
            self._has_deadlines = True
        self.queue.push(request)

    # ------------------------------------------------------------------ #
    # Fault injection (repro.serving.faults): the cluster applies timed
    # ReplicaCrash / ReplicaRecover / ReplicaSlowdown events through these.
    def crash(self, at_ms: float) -> List[Request]:
        """Kill the replica at ``at_ms``: wipe its KV pool and prefix
        cache, drop every request it owns and refuse to advance until
        :meth:`recover`.

        Returns the lost requests (queued, waiting and mid-decode alike)
        in arrival order so the cluster can re-route them — a lost
        generation restarts from its prompt wherever it lands, the crash
        analogue of preemption's recompute-on-readmit.
        """
        if not self.healthy:
            raise ValueError(f"replica {self.replica_id} is already down")
        lost: List[Request] = list(self.queue)
        lost.extend(self.waiting)
        lost.extend(s.request for s in self.running.values())
        lost.sort(key=arrival_key)
        self.queue = RequestQueue(())
        self.waiting = []
        self._preempted.clear()
        self.running = {}
        self._crossings.clear()
        self._finishes.clear()
        self.prefix_store.clear()
        self.manager.reset()
        self._reserved_blocks = 0
        self.healthy = False
        self.crashes += 1
        if at_ms > self.now:
            self.now = at_ms
        self._down_since = self.now
        return lost

    def recover(self, at_ms: float) -> None:
        """Bring a crashed replica back at ``at_ms`` with an empty pool.

        Requests injected while it was down (health-blind routing) are
        still queued and start being served now; the accumulated outage
        lands in ``downtime_ms``.
        """
        if self.healthy:
            raise ValueError(f"replica {self.replica_id} is not down")
        if at_ms > self.now:
            self.now = at_ms
        self.downtime_ms += max(0.0, self.now - self._down_since)
        self._down_since = -1.0
        self.healthy = True

    def close_downtime(self, at_ms: float) -> None:
        """Account the outage of a replica still down at the end of a run
        (its schedule held no further recovery); a no-op on healthy or
        already-closed replicas."""
        if not self.healthy and self._down_since >= 0.0:
            self.downtime_ms += max(0.0, at_ms - self._down_since)
            self._down_since = -1.0

    def evacuate(self) -> List[Request]:
        """Pull every request still assigned to a down replica.

        The cluster's final failover: when the schedule ends with this
        replica down, whatever health-blind routing queued on it would
        otherwise never finish.  Waiting and running are already empty
        (wiped at crash; a down engine never advances), so only the
        arrival queue can hold work.
        """
        if self.healthy:
            raise ValueError(f"replica {self.replica_id} is up; nothing to evacuate")
        lost = list(self.queue)
        self.queue = RequestQueue(())
        self._reserved_blocks = 0
        return lost

    def slow_down(self, at_ms: float, factor: float, duration_ms: float) -> None:
        """Scale this replica's decode-step latency by ``factor`` over
        ``[at_ms, at_ms + duration_ms)`` (straggler modeling).  A later
        slowdown replaces the current one."""
        self._slow_factor = factor
        self._slow_until_ms = at_ms + duration_ms

    @property
    def idle(self) -> bool:
        """No queued, waiting or running work — the engine is drained."""
        return not (len(self.queue) or self.waiting or self.running)

    @property
    def assigned(self) -> int:
        """Requests this replica owns but has not finished."""
        return len(self.queue) + len(self.waiting) + len(self.running)

    @property
    def kv_reserved_blocks(self) -> int:
        """Worst-case KV demand of every outstanding request, in blocks.

        Each assigned-but-unfinished request will eventually hold
        ``blocks_for(prompt + output)`` blocks; the sum is the fleet
        router's view of how committed this replica's pool already is
        (a real deployment would use the request's ``max_tokens`` bound).
        Maintained incrementally — add on assignment, subtract on finish;
        preemption does not change it (the victim is still outstanding).

        Deliberately *not* prefix-aware: the worst case assumes no
        sharing (a resident prefix may be evicted before the queued
        request runs), which keeps the figure conservative.
        """
        return self._reserved_blocks

    def resident_prefix_tokens(self) -> Mapping[str, int]:
        """Prefix id -> resident shared tokens, for router views: the
        prefix store's live read-only map, which a crash empties."""
        return self.prefix_store.resident_tokens()

    # ------------------------------------------------------------------ #
    def _enqueue(self, request: Request) -> None:
        """Insert ``request`` into ``waiting`` at its scheduler key.

        The one insertion path for arrivals, crash retries and preemption
        victims.  Keys mostly grow with arrival time, so the common case
        appends past the tail; anything keyed below the tail (a tighter
        deadline, an early-arrival retry, a victim) bisects in.
        """
        key = self._queue_key
        waiting = self.waiting
        k = key(request)
        if not waiting or k > key(waiting[-1]):
            waiting.append(request)
        else:
            waiting.insert(bisect_left(waiting, k, key=key), request)

    def _grow_running(self) -> None:
        """Allocate the next decode token of each request whose private
        context crosses a KV-block boundary this step, preempting
        (scheduler-ordered, recompute-on-readmit) until the growth fits.

        Only this step's crossers need a block; every other running
        request's holding already covers its next token.  The demand the
        pool must cover is therefore the current level (the pool's used
        blocks minus the reclaimable cached prefixes) plus one block per
        crosser, and it fits exactly when the crossers number at most the
        free plus reclaimable blocks.  Otherwise :meth:`_preempt` sweeps
        the whole batch.  Growth evicts cached prefix entries on demand
        before allocating, and books each grown request's next crossing.
        """
        step = self.steps
        entries = self._crossings.pop(step, None)
        if entries is None:
            return
        crossers = [state for state, join in entries if state.join_step == join]
        manager = self.manager
        store = self.prefix_store
        if len(crossers) > manager.free_blocks + store.reclaimable_blocks:
            self._preempt()
            # Victims leave with ``join_step`` reset to -1.
            crossers = [state for state in crossers if state.join_step >= 0]
        next_step = step + manager.block_tokens
        for state in crossers:
            request = state.request
            join = state.join_step
            store.ensure_free(1)
            manager.allocate(
                request.request_id,
                request.prompt_tokens + step - join + 1 - state.shared_tokens,
            )
            if next_step < join + request.output_tokens:
                self._crossings.setdefault(next_step, []).append((state, join))

    def _preempt(self) -> None:
        """Preempt running requests in the scheduler's victim order until
        the batch's growth this step fits the pool.

        Each running request's demand is its *private* context (prompt +
        decoded tokens + 1, minus its attached shared tokens); the blocks
        of every prefix some running request references are added once.
        The sweep walks the scheduler's victim order; cutting the last
        attachment of a prefix also drops that prefix's blocks from the
        demand (a zero-refcount entry is evictable, not required).
        Victims release their private blocks and detach from their prefix
        — the entry stays cached, so readmission re-attaches for free
        while it remains resident.
        """
        manager = self.manager
        store = self.prefix_store
        running = self.running
        step = self.steps
        bf = manager.blocks_for
        needed = {
            request_id: bf(
                s.request.prompt_tokens + step - s.join_step + 1 - s.shared_tokens
            )
            for request_id, s in running.items()
        }
        total_needed = store.referenced_blocks + sum(needed.values())
        # Attachment counts among the running batch (== the store's
        # refcounts: only running requests hold references), so the
        # sweep can tell when a victim was a prefix's last holder.
        ref_counts: dict = {}
        ref_blocks: dict = {}
        for s in running.values():
            if s.shared_tokens:
                key = s.request.prefix_id
                ref_counts[key] = ref_counts.get(key, 0) + 1
                ref_blocks[key] = s.shared_tokens // manager.block_tokens
        infos = [
            RunningInfo(
                request=s.request,
                admitted_ms=s.admitted_ms,
                blocks_held=manager.held(request_id),
            )
            for request_id, s in running.items()
        ]
        order = self.sim.scheduler.preempt_order(infos, self.now)
        order_ids = [info.request.request_id for info in order]
        if sorted(order_ids) != sorted(needed):
            raise RuntimeError(
                f"scheduler {self.sim.scheduler.name!r} preempt_order is not a "
                f"permutation of the running batch"
            )
        victims = set()
        for request_id in order_ids:
            if total_needed <= manager.total_blocks or len(needed) == 1:
                break
            total_needed -= needed.pop(request_id)
            s = running[request_id]
            if s.shared_tokens:
                key = s.request.prefix_id
                ref_counts[key] -= 1
                if ref_counts[key] == 0:
                    total_needed -= ref_blocks[key]
            victims.add(request_id)

        # Victims release (in batch order) before any survivor grows: a
        # survivor's growth may only fit *because* a victim later in batch
        # order is being evicted.
        for request_id, state in list(running.items()):
            if request_id in victims:
                del running[request_id]
                manager.release(request_id)
                if state.shared_tokens:
                    store.release(state.request.prefix_id)
                    state.shared_tokens = 0
                # Recompute-on-readmit: the generation restarts from the
                # prompt (it re-pays prefill and re-decodes on readmission).
                state.join_step = -1
                self._preempted[request_id] = state
                self._enqueue(state.request)
        self.preemptions += len(victims)

    # ------------------------------------------------------------------ #
    def advance(
        self,
        external_next_arrival_ms: Optional[float] = None,
        external_pending: bool = False,
    ) -> bool:
        """Run one engine iteration; ``False`` when blocked, down or drained."""
        if not self.healthy or self.idle:
            return False
        sim = self.sim
        manager = self.manager
        store = self.prefix_store
        running = self.running  # mutated in place; only crash() replaces it
        waiting = self.waiting

        for r in self.queue.pop_arrived(self.now):
            self._enqueue(r)

        if self._has_deadlines and waiting:
            # Deadline-driven load shedding: a request still waiting past
            # its hard deadline is hopeless — drop it (counted as shed,
            # not served) rather than let it clog the queue.  Requests
            # already decoding run to completion.  Never entered unless
            # some request actually carries a deadline.
            now = self.now
            kept = [r for r in waiting if r.deadline_ms is None or r.deadline_ms > now]
            if len(kept) != len(waiting):
                for r in waiting:
                    if r.deadline_ms is not None and r.deadline_ms <= now:
                        self.shed.append(r.request_id)
                        self._preempted.pop(r.request_id, None)
                        self._reserved_blocks -= manager.blocks_for(
                            r.prompt_tokens + r.output_tokens
                        )
                self.waiting = waiting = kept

        # Grow the already-running requests first (preempting if the
        # pool cannot cover the growth), then admit into what is left —
        # so admission can never force the request it just admitted
        # straight back out.
        if running:
            self._grow_running()

        if waiting:
            admitted = sim.scheduler.select(
                waiting,
                free_slots=sim.max_batch_size - len(running),
                now_ms=self.now,
                more_arrivals=len(self.queue) > 0 or external_pending,
                memory=store.view(),
            )
        else:
            # Every policy admits nothing from an empty waiting list (and
            # whatever a hypothetical one returned could not join anyway —
            # joining requests come *out of* the waiting list).
            admitted = ()
        joined: List[_ActiveRequest] = []
        if admitted:
            admitted_ids = {r.request_id for r in admitted}
            count = len(admitted_ids)
            free_slots = sim.max_batch_size - len(running)
            if count > free_slots:
                raise RuntimeError(
                    f"scheduler {sim.scheduler.name!r} admitted {count} "
                    f"requests into {free_slots} free slots"
                )
            if count <= len(waiting) and all(
                waiting[i].request_id in admitted_ids for i in range(count)
            ):
                # The admitted set is exactly the head of the queue (always
                # true for a policy that admits in its own key order, like
                # fcfs/slo/max-batch) — split off the prefix.
                joining = waiting[:count]
                del waiting[:count]
            else:
                joining = [r for r in waiting if r.request_id in admitted_ids]
                if len(joining) < count:
                    found = {r.request_id for r in joining}
                    stray = next(r.request_id for r in admitted if r.request_id not in found)
                    raise RuntimeError(
                        f"scheduler {sim.scheduler.name!r} admitted request "
                        f"{stray}, which is not waiting"
                    )
                self.waiting = waiting = [
                    r for r in waiting if r.request_id not in admitted_ids
                ]
            # Join in arrival order whatever the admission key: the order
            # of ``running`` decides the order of prefix acquires and of
            # ensure_free evictions, here and in every later step.
            joining.sort(key=arrival_key)
            now = self.now
            step = self.steps
            block_tokens = manager.block_tokens
            preempted = self._preempted
            for request in joining:
                state = preempted.pop(request.request_id, None)
                if state is None:
                    state = _ActiveRequest(request, scheduled_ms=now)
                state.admitted_ms = now
                # The prompt plus the first decode token, mirroring
                # KvMemoryView.admission_blocks; an attached shared prefix
                # covers its whole-block head, so only the private
                # remainder is allocated to the request.
                admit_tokens = request.prompt_tokens + 1
                try:
                    if request.prefix_id is not None:
                        shared = store.acquire(request.prefix_id, request.prefix_tokens)
                        state.shared_tokens = shared
                        admit_tokens -= shared
                    store.ensure_free(manager.blocks_for(admit_tokens))
                    manager.allocate(request.request_id, admit_tokens)
                except RuntimeError as exc:
                    raise RuntimeError(
                        f"scheduler {sim.scheduler.name!r} admitted request "
                        f"{request.request_id} beyond the KV budget: {exc}"
                    ) from exc
                state.join_step = step
                running[request.request_id] = state
                joined.append(state)
                # Book the finish, and the first crossing: the grow phase
                # at ``step + d`` covers ``admit_tokens + d`` tokens, which
                # needs one more block than the holding when
                # ``admit_tokens + d - 1`` is a multiple of block_tokens.
                entry = (state, step)
                finish = step + request.output_tokens
                cross = step + (-admit_tokens) % block_tokens + 1
                if cross < finish:
                    self._crossings.setdefault(cross, []).append(entry)
                self._finishes.setdefault(finish, []).append(entry)

        if not running:
            # Nothing is in flight: the engine holds no waiting requests
            # (fully idle, or shedding just emptied it) or the scheduler
            # deferred (e.g. max-batch waiting to fill, or nothing fits the
            # KV pool).  Advance to whichever comes first, the next arrival
            # (local or external) or the scheduler's own re-poll time (so a
            # time-based deferral like max_wait_ms cannot be slept past).
            hints = [
                self.queue.next_arrival_ms,
                sim.scheduler.next_event_ms(waiting, self.now),
                external_next_arrival_ms,
            ]
            wake = min((t for t in hints if t is not None and t > self.now), default=None)
            if wake is not None:
                self.now = wake
                return True
            if external_pending or not waiting:
                # Blocked or drained: only a future injection can unblock
                # this replica — hand control back to the cluster.
                return False
            raise RuntimeError(
                f"scheduler {sim.scheduler.name!r} admitted nothing with "
                f"{len(waiting)} waiting requests and no future arrivals"
            )

        # One decode step for the whole batch, plus the prefill surcharge
        # of the requests that joined this step.  (``now += step + 0.0``
        # is bit-identical to ``now += step``, so the surcharge arithmetic
        # only runs when something actually joined.)
        batch = len(running)
        step_ms = self._step_cache.get(batch)
        if step_ms is None:
            step_ms = sim.step_model.step_latency_ms(sim.model_config, sim.backend, batch)
            self._step_cache[batch] = step_ms
        if self._slow_factor != 1.0:
            # Straggler window (ReplicaSlowdown): scale the step — prefill
            # surcharge included, it runs on the same slowed replica.  The
            # factor stays exactly 1.0 unless a slowdown was injected, so
            # fault-free steps never even multiply.
            if self.now < self._slow_until_ms:
                step_ms = step_ms * self._slow_factor
            else:
                self._slow_factor = 1.0
        if joined:
            prefill_tokens = sum(s.request.prompt_tokens for s in joined)
            self.now += step_ms + (
                prefill_tokens * (step_ms / batch) / PREFILL_PARALLELISM
            )
        else:
            self.now += step_ms
        depth = len(waiting)
        self.steps += 1
        self.batch_size_sum += batch
        self.queue_depth_sum += depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.kv_utilization_sum += manager.utilization

        self._retire(joined)
        return True

    def _retire(self, joining: List[_ActiveRequest]) -> None:
        """Stamp the joiners' first token and retire this step's finishers.

        The step just decoded every running request's next token, so only
        the joiners can be emitting their first one.  The finishers come
        from the calendar in booking order, which is join order — the
        order their prefix releases queue cached entries for eviction.
        """
        now = self.now
        for state in joining:
            if state.first_token_ms < 0:
                state.first_token_ms = now
        entries = self._finishes.pop(self.steps, None)
        if entries is not None:
            for state, join in entries:
                if state.join_step == join:
                    self._finish(state)

    def _finish(self, state: _ActiveRequest) -> None:
        """Retire a request whose last token the step just decoded: free
        its KV blocks and its prefix attachment, and record its metrics."""
        request = state.request
        manager = self.manager
        del self.running[request.request_id]
        manager.release(request.request_id)
        if state.shared_tokens:
            # Detach from the shared prefix; the entry stays cached for
            # later arrivals until evicted.
            self.prefix_store.release(request.prefix_id)
        self._reserved_blocks -= manager.blocks_for(
            request.prompt_tokens + request.output_tokens
        )
        self.finished.append(
            RequestMetrics(
                request_id=request.request_id,
                arrival_ms=request.arrival_ms,
                scheduled_ms=state.scheduled_ms,
                first_token_ms=state.first_token_ms,
                finish_ms=self.now,
                prompt_tokens=request.prompt_tokens,
                output_tokens=request.output_tokens,
                slo_ms=request.slo_ms,
                deadline_ms=request.deadline_ms,
            )
        )

    # ------------------------------------------------------------------ #
    def report(self, workload: str = "custom") -> ServeReport:
        """The replica's :class:`ServeReport`; call once it is drained."""
        if not self.idle:
            raise RuntimeError(
                f"replica {self.replica_id} still has {self.assigned} unfinished "
                f"requests; drain the engine before reporting"
            )
        sim = self.sim
        manager = self.manager
        store = self.prefix_store
        finished = sorted(self.finished, key=lambda m: m.request_id)
        first_arrival = min((m.arrival_ms for m in finished), default=0.0)
        return ServeReport(
            model=sim.model_config.name,
            backend=sim.backend,
            scheduler=sim.scheduler.name,
            workload=workload,
            arch=sim.arch.name,
            num_requests=len(finished),
            total_output_tokens=sum(m.output_tokens for m in finished),
            duration_ms=self.now - first_arrival,
            steps=self.steps,
            mean_batch_size=self.batch_size_sum / self.steps if self.steps else 0.0,
            mean_queue_depth=self.queue_depth_sum / self.steps if self.steps else 0.0,
            max_queue_depth=self.max_queue_depth,
            requests=finished,
            preemptions=self.preemptions,
            kv_total_blocks=manager.total_blocks,
            kv_peak_utilization=manager.peak_used_blocks / manager.total_blocks,
            mean_kv_utilization=self.kv_utilization_sum / self.steps if self.steps else 0.0,
            prefix_hits=store.hits,
            prefix_misses=store.misses,
            prefix_blocks_saved=store.blocks_saved,
            prefix_evictions=store.evictions,
            prefix_resident_peak=store.peak_resident,
            shed=len(self.shed),
            crashes=self.crashes,
            downtime_ms=self.downtime_ms,
        )
