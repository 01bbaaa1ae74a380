"""Pluggable request routers for the multi-replica cluster simulator.

A :class:`~repro.serving.cluster.ClusterSimulator` fronts N independent
replica engines with one router: every arriving request is shown a tuple
of live read-only replica views (:class:`~repro.serving.cluster.ReplicaView`:
queue depth, batch occupancy, free KV blocks, preemptions so far — the
fields of :class:`ReplicaSnapshot`) and the router picks which replica
serves it.  Routing policy is as perf-critical as batch
composition — a router that stacks marathon generations on one replica
wrecks tail latency no matter how good that replica's scheduler is.  Five
policies are provided:

* :class:`RoundRobinRouter` — cycle through replicas in id order; the
  stateless baseline every serving frontend ships;
* :class:`LeastLoadedRouter` — send the request to the replica with the
  fewest outstanding requests (waiting + running), the classic
  join-shortest-queue policy;
* :class:`KvAwareRouter` — send the request to the replica with the most
  free KV-cache blocks net of commitments (total blocks minus the
  worst-case demand already assigned to the replica), falling back to the
  fewest preemptions so far (then least loaded): balances *memory*
  headroom rather than request count, which is what actually decides
  preemptions under long-context traffic;
* :class:`PowerOfTwoRouter` — power-of-two-choices: sample two distinct
  replicas from a private seeded RNG and keep the less loaded.  Nearly
  the balance of join-shortest-queue at a fraction of the state
  inspection, and the standard randomized-routing reference point;
* :class:`PrefixAffinityRouter` — send a request declaring a shared
  prompt prefix to the replica whose prefix cache already holds it
  (longest resident span wins), so the shared KV blocks are stored once
  per fleet instead of once per replica; everything else falls back to
  kv-aware routing, bit for bit.

**Determinism contract.** Routers are deterministic: ties break on
``replica_id``, and the only randomness (:class:`PowerOfTwoRouter`) comes
from a private ``random.Random`` reseeded by :meth:`Router.reset` at the
start of every cluster run — so two simulations of the same seeded
workload route identically and the cluster's digest is bit-stable.
Routers must pick a replica from the candidates as given; they read the
views only during :meth:`Router.route` (a view always reads its replica's
current state, so a router that keeps a figure past the call copies it),
and never see or mutate engine state.

Like schedulers, routers are registered by name (:data:`ROUTERS`,
resolved by :func:`get_router`) and the documented policy tables in
``docs/serving.md`` are checked against this registry by
``tests/test_docs.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Type, Union

from repro.serving.workload import Request

__all__ = [
    "KvAwareRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "PrefixAffinityRouter",
    "ROUTERS",
    "ReplicaSnapshot",
    "RoundRobinRouter",
    "Router",
    "get_router",
]


@dataclass(frozen=True)
class ReplicaSnapshot:
    """The fields a router reads about one replica at a routing decision.

    The cluster shows routers live views with exactly these names
    (:class:`~repro.serving.cluster.ReplicaView`); this frozen record is
    the same interface as a point-in-time copy, which unit tests build
    by hand and the view tests use as their oracle.

    ``waiting`` counts every request assigned to the replica that is not
    currently running (queued-for-arrival plus the scheduler's waiting
    set), so ``load`` is the replica's total outstanding work.
    ``kv_free_blocks`` is the pool's *instantaneous* headroom (blocks not
    currently held); ``kv_reserved_blocks`` is the worst-case demand of
    every outstanding request at its full context length — the number a
    memory-balancing router actually wants, since queued requests hold no
    blocks yet.

    ``resident_prefixes`` maps shared prefix ids to the tokens of that
    prefix resident in the replica's prefix cache — empty until some
    request with a prefix has been admitted.  This is what
    :class:`PrefixAffinityRouter` keys on.

    ``healthy`` is ``False`` while the replica is crashed
    (:mod:`repro.serving.faults`).  Under the cluster's default
    health-aware routing, routers only ever *see* healthy replicas —
    every policy fails over automatically with no health logic of its own
    (a crashed replica's wiped prefix store also empties
    ``resident_prefixes``, so affinity can never key on a dead cache).
    The health-blind baseline passes every replica instead.
    """

    replica_id: int
    now_ms: float
    waiting: int
    running: int
    max_batch_size: int
    kv_total_blocks: int
    kv_free_blocks: int
    kv_reserved_blocks: int
    preemptions: int
    finished: int
    resident_prefixes: Mapping[str, int] = field(default_factory=dict)
    healthy: bool = True

    @property
    def load(self) -> int:
        """Outstanding requests: queue depth plus the running batch."""
        return self.waiting + self.running

    @property
    def kv_unreserved_blocks(self) -> int:
        """Blocks not yet spoken for by any outstanding request's worst
        case — may go negative on an oversubscribed replica."""
        return self.kv_total_blocks - self.kv_reserved_blocks


def _require_replicas(replicas: Sequence[ReplicaSnapshot]) -> None:
    """Routing into an empty candidate list is a caller bug: the cluster
    defers arrivals while the whole fleet is down rather than asking."""
    if not replicas:
        raise ValueError(
            "route() needs at least one replica snapshot "
            "(is the whole fleet down?)"
        )


class Router:
    """Request-routing policy of one replica cluster."""

    name = "base"

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        """Called once at the start of every cluster run.

        Stateful policies (round-robin's cursor, power-of-two's RNG) must
        reinitialize here so repeated ``simulate()`` calls on one cluster
        are independent and bit-identical.
        """

    def route(self, request: Request, replicas: Sequence[ReplicaSnapshot]) -> int:
        """The ``replica_id`` that should serve ``request``.

        ``replicas`` is a tuple of candidate replicas in id order (every
        replica, or only the healthy ones under health-aware routing),
        each a live read-only view with :class:`ReplicaSnapshot`'s fields.
        Read them during this call and copy what you keep: the cluster
        shows the same views again at later decisions, by then reading
        later state.  During the call each reflects the replica's state
        *as of the request's arrival*: the cluster advances every engine
        until its clock passes the arrival or it can make no further
        progress — an idle or blocked replica's ``now_ms`` therefore reads
        its last event time (possibly well before the arrival), but its
        state cannot change before new input arrives, so the counts and
        block figures are current either way.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle through replicas in id order, one request each."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        self._cursor = 0

    def route(self, request, replicas):
        _require_replicas(replicas)
        choice = replicas[self._cursor % len(replicas)].replica_id
        self._cursor += 1
        return choice


class LeastLoadedRouter(Router):
    """Join the shortest queue: fewest outstanding requests wins."""

    name = "least-loaded"

    def route(self, request, replicas):
        _require_replicas(replicas)
        return min(replicas, key=lambda s: (s.load, s.replica_id)).replica_id


class KvAwareRouter(Router):
    """Most unreserved KV blocks first, then fewest preemptions, then load.

    Request count is a poor proxy for memory pressure — one marathon
    context can pin more blocks than a dozen short chats — so this policy
    balances the resource that actually triggers preemptions.  It ranks
    replicas by ``kv_unreserved_blocks`` (total pool minus the worst-case
    demand of everything already assigned) rather than the instantaneous
    ``kv_free_blocks``: a replica whose queue is stacked with marathons
    looks free *now* but is committed, and routing into it buys a
    preemption later.  Preemption count breaks ties toward the replica
    whose pool has been calmest.
    """

    name = "kv-aware"

    def route(self, request, replicas):
        _require_replicas(replicas)
        return min(
            replicas,
            key=lambda s: (-s.kv_unreserved_blocks, s.preemptions, s.load, s.replica_id),
        ).replica_id


class PowerOfTwoRouter(Router):
    """Power-of-two-choices: two seeded random picks, keep the less loaded.

    The classic result (Mitzenmacher): sampling just two queues and
    joining the shorter one gets exponentially better balance than one
    random pick, without inspecting the whole fleet.  The RNG is private
    and reseeded per run, so routing is deterministic for a given seed.
    """

    name = "power-of-two-choices"

    def __init__(self):
        # The seed that matters is the one reset() receives at the start
        # of every cluster run.
        self._rng = random.Random(0)

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def route(self, request, replicas):
        _require_replicas(replicas)
        if len(replicas) == 1:
            return replicas[0].replica_id
        first, second = self._rng.sample(range(len(replicas)), 2)
        return min(
            (replicas[first], replicas[second]),
            key=lambda s: (s.load, s.replica_id),
        ).replica_id


class PrefixAffinityRouter(Router):
    """Route to the replica already holding the request's shared prefix.

    A request declaring a ``prefix_id`` is steered to the replica whose
    prefix cache holds the longest resident span of that prefix — landing
    there turns the prompt's shared head into a cache hit (blocks stored
    once, admission charges only the private suffix), where any other
    replica would recompute and re-store it.  Among holders, ties break
    exactly like :class:`KvAwareRouter` ranks replicas (most unreserved
    blocks, fewest preemptions, least loaded, lowest id).  Requests
    without a prefix — and prefixes resident nowhere yet — fall back to a
    private :class:`KvAwareRouter`, so prefix-less traffic routes
    identically to ``kv-aware``, bit for bit.

    Affinity concentrates a tenant's traffic, which is the point: the
    alternative (spreading by load) duplicates the prefix into every
    replica's pool and pays the memory back in preemptions under
    pressure.
    """

    name = "prefix-affinity"

    def __init__(self):
        self._fallback = KvAwareRouter()

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        self._fallback.reset(num_replicas, seed)

    def route(self, request, replicas):
        _require_replicas(replicas)
        prefix_id = getattr(request, "prefix_id", None)
        if prefix_id is not None:
            # A loop, not a comprehension (a frame per routed request).
            holders = []
            for s in replicas:
                if s.resident_prefixes.get(prefix_id, 0) > 0:
                    holders.append(s)
            if len(holders) == 1:
                # A sole holder wins without a ranking.
                return holders[0].replica_id
            if holders:
                return min(
                    holders,
                    key=lambda s: (
                        -s.resident_prefixes[prefix_id],
                        -s.kv_unreserved_blocks,
                        s.preemptions,
                        s.load,
                        s.replica_id,
                    ),
                ).replica_id
        return self._fallback.route(request, replicas)


ROUTERS: Dict[str, Type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    KvAwareRouter.name: KvAwareRouter,
    PowerOfTwoRouter.name: PowerOfTwoRouter,
    PrefixAffinityRouter.name: PrefixAffinityRouter,
}


def get_router(spec: Union[str, Router]) -> Router:
    """Resolve a router from a policy name or pass an instance through."""
    if isinstance(spec, Router):
        return spec
    try:
        return ROUTERS[spec]()
    except KeyError:
        raise KeyError(f"unknown router {spec!r} (expected one of {sorted(ROUTERS)})")
