"""Deterministic fault injection for the cluster simulator.

Production fleets are not the perfect fleets of PR 5–7: replicas crash
(kernel panics, host maintenance, OOM kills), come back minutes later, and
straggle (thermal throttling, noisy neighbours).  This module gives the
:class:`~repro.serving.cluster.ClusterSimulator` those failure modes as
*data*: a :class:`FaultSchedule` is an immutable, validated, time-sorted
list of three event types —

* :class:`ReplicaCrash` — the replica dies at ``at_ms``.  Its KV pool and
  prefix cache are wiped and every request it owned (queued, waiting or
  mid-decode) is lost; the cluster re-routes the losses with a retry
  count and recompute-from-scratch semantics (the crash analogue of
  preemption's recompute-on-readmit).
* :class:`ReplicaRecover` — the replica rejoins at ``at_ms`` with a
  fresh, empty pool.
* :class:`ReplicaSlowdown` — the replica's decode-step latency is scaled
  by ``factor`` for ``duration_ms`` (straggler modeling); it keeps
  serving, just slower.

**Determinism contract.** A schedule is plain data consumed in event
order, and :meth:`FaultSchedule.generate` is a pure function of
``(seed, num_replicas)`` (plus explicit rate knobs): per-replica renewal
processes drawn from private string-seeded ``random.Random`` instances,
so the same arguments always yield the identical event list.  Every
generated crash is paired with its recovery, so a generated schedule can
never leave the fleet permanently dead.

**Digest contract.** An *empty* schedule changes nothing: with every
replica healthy, health-aware filtering shows the router every replica,
nothing is evacuated and no downtime accrues, so the run digests
identically to health-blind routing under every scheduler and router
(``tests/test_faults.py`` gates this).
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

from repro.serving.workload import _check_at_least, _check_positive, check_count

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "ReplicaCrash",
    "ReplicaRecover",
    "ReplicaSlowdown",
]


@dataclass(frozen=True, slots=True)
class ReplicaCrash:
    """Replica ``replica_id`` dies at ``at_ms`` (state wiped, work lost)."""

    at_ms: float
    replica_id: int

    def __post_init__(self):
        _check_common(self)


@dataclass(frozen=True, slots=True)
class ReplicaRecover:
    """Replica ``replica_id`` rejoins at ``at_ms`` with an empty pool."""

    at_ms: float
    replica_id: int

    def __post_init__(self):
        _check_common(self)


@dataclass(frozen=True, slots=True)
class ReplicaSlowdown:
    """Replica ``replica_id`` runs ``factor`` x slower for ``duration_ms``."""

    at_ms: float
    replica_id: int
    factor: float
    duration_ms: float

    def __post_init__(self):
        _check_common(self)
        # Written so that NaN fails too: every comparison with NaN is false.
        # A factor of exactly 1 is a no-op; below 1 the replica would speed up.
        where = f"(replica {self.replica_id} at t={self.at_ms})"
        if not 1.0 <= self.factor < math.inf:
            raise ValueError(
                f"ReplicaSlowdown.factor must be finite and >= 1, got {self.factor!r} {where}"
            )
        if not 0.0 < self.duration_ms < math.inf:
            raise ValueError(
                f"ReplicaSlowdown.duration_ms must be finite and > 0, "
                f"got {self.duration_ms!r} {where}"
            )


FaultEvent = Union[ReplicaCrash, ReplicaRecover, ReplicaSlowdown]


def _check_common(event) -> None:
    kind = type(event).__name__
    replica_id = event.replica_id
    # Any integral type (a numpy integer, say), but not bool: the cluster
    # indexes its replicas with it.
    if isinstance(replica_id, bool) or not isinstance(replica_id, numbers.Integral):
        raise ValueError(f"{kind}.replica_id must be an integer, got {replica_id!r}")
    if replica_id < 0:
        raise ValueError(f"{kind}.replica_id must be >= 0, got {replica_id!r}")
    if not 0.0 <= event.at_ms < math.inf:
        raise ValueError(f"{kind}.at_ms must be finite and >= 0, got {event.at_ms!r}")


# Processing order at equal timestamps: recoveries first (so a fleet
# where one replica hands off to another at the same instant is never
# transiently all-down), then slowdowns, then crashes.
_TYPE_RANK = {ReplicaRecover: 0, ReplicaSlowdown: 1, ReplicaCrash: 2}


def _event_key(event: FaultEvent) -> Tuple[float, int, int]:
    return (event.at_ms, _TYPE_RANK[type(event)], event.replica_id)


class FaultSchedule:
    """An immutable, validated, time-sorted list of fault events.

    Events may be passed in any order; the schedule sorts them by
    ``(at_ms, type, replica_id)`` (recover < slowdown < crash at equal
    times) and validates per-replica crash/recover alternation: a replica
    must be up to crash and down to recover, so a schedule can never
    express "crash a dead replica".  A trailing crash with no recovery is
    legal — the replica stays down for the rest of the run — but
    :meth:`generate` always pairs them.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()):
        ordered = sorted(events, key=_event_key)
        down: set = set()
        for event in ordered:
            rid = event.replica_id
            if isinstance(event, ReplicaCrash):
                if rid in down:
                    raise ValueError(
                        f"replica {rid} crashes at t={event.at_ms} but is already "
                        f"down (missing ReplicaRecover in between)"
                    )
                down.add(rid)
            elif isinstance(event, ReplicaRecover):
                if rid not in down:
                    raise ValueError(
                        f"replica {rid} recovers at t={event.at_ms} without a "
                        f"preceding ReplicaCrash"
                    )
                down.discard(rid)
        self.events: Tuple[FaultEvent, ...] = tuple(ordered)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        crashes = sum(1 for e in self.events if isinstance(e, ReplicaCrash))
        slow = sum(1 for e in self.events if isinstance(e, ReplicaSlowdown))
        return (
            f"FaultSchedule({len(self.events)} events: {crashes} crashes, "
            f"{slow} slowdowns)"
        )

    def max_replica_id(self) -> int:
        """The highest replica id any event names (-1 for an empty schedule)."""
        return max((e.replica_id for e in self.events), default=-1)

    # ------------------------------------------------------------------ #
    @classmethod
    def generate(
        cls,
        num_replicas: int,
        horizon_ms: float = 60_000.0,
        seed: int = 0,
        *,
        mean_uptime_ms: float = 20_000.0,
        mean_downtime_ms: float = 4_000.0,
        mean_time_between_slowdowns_ms: float = 30_000.0,
        slowdown_factor_range: Tuple[float, float] = (1.5, 4.0),
        mean_slowdown_ms: float = 5_000.0,
    ) -> "FaultSchedule":
        """A seeded schedule: per-replica crash/recover renewal processes
        plus straggler windows, over ``[0, horizon_ms)``.

        Pure function of its arguments — each replica's crash stream and
        slowdown stream draw from their own string-seeded RNGs, so the
        same ``(seed, num_replicas)`` (and knobs) always produce the
        identical event list, and adding slowdown knobs never perturbs
        the crash times.  Uptime, downtime and slowdown durations are
        exponentially distributed around their means; every crash before
        the horizon gets its recovery (possibly past the horizon — the
        cluster plays trailing events out during its drain), so a
        generated schedule never strands the fleet.  Pass
        ``mean_time_between_slowdowns_ms=0`` to disable slowdowns.
        """
        check_count("num_replicas", num_replicas, 1)
        _check_positive("horizon_ms", horizon_ms)
        _check_positive("mean_uptime_ms", mean_uptime_ms)
        _check_positive("mean_downtime_ms", mean_downtime_ms)
        _check_positive("mean_slowdown_ms", mean_slowdown_ms)
        _check_at_least("mean_time_between_slowdowns_ms", mean_time_between_slowdowns_ms, 0.0)
        lo, hi = slowdown_factor_range
        if not 1.0 <= lo <= hi < math.inf:
            raise ValueError(
                f"slowdown_factor_range must satisfy 1 <= lo <= hi < inf, got {lo}, {hi}"
            )
        events: List[FaultEvent] = []
        for rid in range(num_replicas):
            crash_rng = random.Random(f"faults:{seed}:{rid}:crash")
            t = crash_rng.expovariate(1.0 / mean_uptime_ms)
            while t < horizon_ms:
                down = max(1.0, crash_rng.expovariate(1.0 / mean_downtime_ms))
                events.append(ReplicaCrash(at_ms=round(t, 6), replica_id=rid))
                events.append(ReplicaRecover(at_ms=round(t + down, 6), replica_id=rid))
                t += down + crash_rng.expovariate(1.0 / mean_uptime_ms)
            if mean_time_between_slowdowns_ms > 0:
                slow_rng = random.Random(f"faults:{seed}:{rid}:slow")
                t = slow_rng.expovariate(1.0 / mean_time_between_slowdowns_ms)
                while t < horizon_ms:
                    duration = max(1.0, slow_rng.expovariate(1.0 / mean_slowdown_ms))
                    events.append(
                        ReplicaSlowdown(
                            at_ms=round(t, 6),
                            replica_id=rid,
                            factor=round(slow_rng.uniform(lo, hi), 6),
                            duration_ms=round(duration, 6),
                        )
                    )
                    t += duration + slow_rng.expovariate(
                        1.0 / mean_time_between_slowdowns_ms
                    )
        return cls(events)
