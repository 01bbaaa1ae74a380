"""Serving workloads: requests, the arrival queue, and seeded generators.

A :class:`Request` is the immutable spec of one user call — when it
arrives, how many prompt tokens it carries, how many output tokens it wants
and its latency SLO.  Generators produce the three canonical traffic shapes
a continuous-batching engine is exercised with:

* :func:`steady_workload` — a Poisson arrival process at a fixed rate (the
  "well-provisioned service" regime);
* :func:`bursty_workload` — idle gaps punctuated by near-simultaneous
  request bursts (the "everyone hits enter at once" regime that stresses
  queue depth and batch recomposition);
* :func:`heavy_tail_workload` — Poisson arrivals whose *output* lengths are
  Pareto distributed, so a few marathon generations share batches with many
  short ones (the regime continuous batching exists for);
* :func:`memory_pressure_workload` — Poisson arrivals with long prompts
  *and* long outputs, so running requests keep growing their KV footprint
  (the regime where admission and preemption are decided by the block
  budget, not the slot count — saturates the KV pool long before the batch
  slots);
* :func:`diurnal_workload` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle, overlaid with seeded flash-crowd
  spikes (short windows where the rate multiplies) — the non-stationary
  "heavy traffic from millions of users" regime the million-request scale
  benchmarks exercise;
* :func:`prefix_shared_workload` — Poisson arrivals whose prompts open
  with a fleet-wide system prompt plus a per-tenant template, declared via
  ``Request.prefix_id`` so the prefix-cache subsystem
  (:mod:`repro.serving.prefix`) can share those KV blocks across requests
  (the multi-tenant "everyone carries the same system prompt" regime);
* :func:`deadline_workload` — steady Poisson arrivals where every request
  carries a *hard* ``deadline_ms`` (a multiple of its SLO budget), so a
  degraded fleet sheds hopeless requests instead of queueing them forever
  (the graceful-degradation regime the fault-injection subsystem,
  :mod:`repro.serving.faults`, exercises).

**Determinism contract.** Every generator draws from a private
``random.Random(seed)``, so a given ``(generator, parameters, seed)``
triple always produces the identical request list — the property every
digest check downstream (simulator, cluster, CI smoke) relies on.
Requests are immutable; arrival times are rounded to microseconds at
generation so the trace serializes bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "Request",
    "RequestQueue",
    "WORKLOADS",
    "arrival_key",
    "bursty_workload",
    "deadline_workload",
    "diurnal_workload",
    "heavy_tail_workload",
    "make_workload",
    "memory_pressure_workload",
    "prefix_shared_workload",
    "steady_workload",
]


@dataclass(frozen=True, slots=True)
class Request:
    """One user request: the immutable workload spec.

    ``slo_ms`` is the end-to-end deadline (full generation) relative to
    arrival; runtime state (scheduling, token progress, completion) lives in
    the simulator's per-request tracker, not here.

    ``prefix_id`` / ``prefix_tokens`` declare that the first
    ``prefix_tokens`` tokens of the prompt are a shared prefix whose
    content hashes to ``prefix_id`` (a system prompt, a few-shot
    template): requests with equal ids carry byte-identical prefixes, so
    a replica stores those KV blocks once (:mod:`repro.serving.prefix`)
    and an affinity router can steer equal ids to the replica already
    holding them.  The defaults mean "no shared prefix": such a request
    never touches the prefix store.

    ``deadline_ms`` is an optional *hard* deadline (absolute simulated
    time): a request still waiting when it passes is **shed** — dropped
    and counted as shed, not served — so an overloaded or degraded fleet
    degrades gracefully instead of queueing hopeless work.  It is
    distinct from the soft SLO (:attr:`slo_deadline_ms` =
    ``arrival_ms + slo_ms``), which schedulers optimize for but never
    enforce.  ``None`` (the default) means "never shed".
    """

    request_id: int
    arrival_ms: float
    prompt_tokens: int
    output_tokens: int
    slo_ms: float
    prefix_id: Optional[str] = None
    prefix_tokens: int = 0
    deadline_ms: Optional[float] = None

    def __post_init__(self):
        # Generators build millions of requests: plain ints, the common
        # case, skip the per-field check.
        if not (
            type(self.prompt_tokens) is type(self.output_tokens)
            is type(self.prefix_tokens) is int
        ):
            for name in ("prompt_tokens", "output_tokens", "prefix_tokens"):
                value = getattr(self, name)
                # Any integral type (a numpy integer, say), but not bool.
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(
                        f"request {self.request_id}: {name} must be an integer, "
                        f"got {value!r}"
                    )
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ValueError(
                f"request {self.request_id}: prompt/output token counts must be "
                f">= 1, got {self.prompt_tokens}/{self.output_tokens}"
            )
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (0.0 <= self.arrival_ms < math.inf and 0.0 < self.slo_ms < math.inf):
            raise ValueError(
                f"request {self.request_id}: need finite arrival_ms >= 0 and slo_ms > 0, "
                f"got arrival_ms={self.arrival_ms}, slo_ms={self.slo_ms}"
            )
        if self.prefix_id is not None:
            if not 1 <= self.prefix_tokens <= self.prompt_tokens:
                raise ValueError(
                    f"request {self.request_id}: prefix_tokens must be in "
                    f"[1, prompt_tokens] when prefix_id is set, got "
                    f"{self.prefix_tokens} of {self.prompt_tokens}"
                )
        elif self.prefix_tokens:
            raise ValueError(
                f"request {self.request_id}: prefix_tokens without a prefix_id"
            )
        if self.deadline_ms is not None and not (
            self.arrival_ms < self.deadline_ms < math.inf
        ):
            raise ValueError(
                f"request {self.request_id}: deadline_ms ({self.deadline_ms}) "
                f"must be finite and after arrival_ms ({self.arrival_ms})"
            )

    @property
    def slo_deadline_ms(self) -> float:
        """The soft (SLO) deadline earliest-deadline-first scheduling keys
        on — always defined, never enforced (contrast ``deadline_ms``)."""
        return self.arrival_ms + self.slo_ms


def arrival_key(request: Request):
    """Arrival order, unique per request: the order the queue releases
    requests in, a cluster routes them in, they join a running batch in,
    and a crash hands its lost requests back in."""
    return (request.arrival_ms, request.request_id)


def check_unique_ids(requests) -> None:
    """Raise ``ValueError`` naming the first repeated ``request_id``: a
    replica keys KV holdings, and a fleet keys placements, by request id."""
    seen = set()
    for request in requests:
        if request.request_id in seen:
            raise ValueError(f"duplicate request_id {request.request_id} in the workload")
        seen.add(request.request_id)


class RequestQueue:
    """Arrival-ordered queue of not-yet-arrived requests.

    The simulator pops the prefix whose arrival time has passed each step
    and jumps simulated time to :attr:`next_arrival_ms` when idle.

    Backed by one arrival-sorted array plus a moving cursor: the popped
    prefix is sliced off in one cut per step instead of element-by-element
    (pops strictly dominate — million-request runs pop every request
    exactly once, while only the cluster ever pushes), and pushes keep the
    pending suffix ordered via bisect.  The consumed prefix is compacted
    away periodically so a long run does not pin every popped request.
    """

    _COMPACT_AT = 4096

    def __init__(self, requests):
        self._ordered: List[Request] = sorted(requests, key=arrival_key)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._ordered) - self._cursor

    def __iter__(self):
        """Iterate the pending requests in arrival order (read-only)."""
        return iter(self._ordered[self._cursor :])

    @property
    def next_arrival_ms(self) -> Optional[float]:
        if self._cursor < len(self._ordered):
            return self._ordered[self._cursor].arrival_ms
        return None

    def push(self, request: Request) -> None:
        """Insert one more request, keeping ``(arrival_ms, request_id)`` order.

        The cluster simulator routes requests in global arrival order, so
        injections normally append; an out-of-order insert bisects into
        the pending suffix.
        """
        ordered = self._ordered
        if not ordered or len(ordered) == self._cursor or arrival_key(
            request
        ) >= arrival_key(ordered[-1]):
            ordered.append(request)
        else:
            insort(ordered, request, lo=self._cursor, key=arrival_key)

    def pop_arrived(self, now_ms: float) -> List[Request]:
        """Remove and return every request with ``arrival_ms <= now_ms``."""
        ordered = self._ordered
        cursor = self._cursor
        if cursor >= len(ordered) or ordered[cursor].arrival_ms > now_ms:
            return []
        # First index whose arrival is strictly after now: the sorted order
        # is (arrival_ms, request_id), so arrival times alone are also
        # non-decreasing and bisect on them finds the popped prefix's end.
        end = bisect_right(ordered, now_ms, lo=cursor, key=lambda r: r.arrival_ms)
        arrived = ordered[cursor:end]
        self._cursor = end
        if end >= self._COMPACT_AT and end * 2 >= len(ordered):
            del ordered[:end]
            self._cursor = 0
        return arrived


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def _token_count(rng: random.Random, mean: int, minimum: int = 1) -> int:
    """An exponentially distributed token count with the given mean."""
    return max(minimum, int(round(rng.expovariate(1.0 / mean))))


def _default_slo_ms(output_tokens: int) -> float:
    # A per-token latency budget plus fixed queueing slack: generous enough
    # that an unloaded engine always meets it, tight enough that saturation
    # shows up as SLO misses.
    return 2000.0 + 75.0 * output_tokens


def _build_requests(
    arrivals_ms: List[float],
    rng: random.Random,
    mean_prompt_tokens: int,
    mean_output_tokens: int,
    slo_ms: Optional[float],
    output_sampler: Optional[Callable[[random.Random], int]] = None,
) -> List[Request]:
    requests = []
    for request_id, arrival_ms in enumerate(arrivals_ms):
        prompt = _token_count(rng, mean_prompt_tokens)
        if output_sampler is not None:
            output = output_sampler(rng)
        else:
            output = _token_count(rng, mean_output_tokens)
        requests.append(
            Request(
                request_id=request_id,
                arrival_ms=round(arrival_ms, 6),
                prompt_tokens=prompt,
                output_tokens=output,
                slo_ms=slo_ms if slo_ms is not None else _default_slo_ms(output),
            )
        )
    return requests


def steady_workload(
    num_requests: int = 64,
    rate_rps: float = 4.0,
    mean_prompt_tokens: int = 512,
    mean_output_tokens: int = 64,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals at ``rate_rps`` requests per second."""
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += rng.expovariate(rate_rps) * 1000.0
        arrivals.append(now)
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms)


def bursty_workload(
    num_requests: int = 64,
    burst_size: int = 8,
    burst_interval_ms: float = 4000.0,
    intra_burst_ms: float = 20.0,
    mean_prompt_tokens: int = 512,
    mean_output_tokens: int = 64,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Bursts of ``burst_size`` near-simultaneous requests, then silence."""
    rng = random.Random(seed)
    arrivals = []
    burst_start = 0.0
    while len(arrivals) < num_requests:
        burst_start += rng.expovariate(1.0) * burst_interval_ms
        for _ in range(min(burst_size, num_requests - len(arrivals))):
            arrivals.append(burst_start + rng.uniform(0.0, intra_burst_ms))
    arrivals.sort()
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms)


def heavy_tail_workload(
    num_requests: int = 64,
    rate_rps: float = 4.0,
    mean_prompt_tokens: int = 512,
    min_output_tokens: int = 8,
    pareto_alpha: float = 1.3,
    max_output_tokens: int = 2048,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals with Pareto-distributed output lengths.

    Most generations are short, but the tail is long enough that a handful
    of requests dominate batch occupancy — the scheduling-sensitive regime.
    """
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += rng.expovariate(rate_rps) * 1000.0
        arrivals.append(now)

    def sample_output(r: random.Random) -> int:
        return min(max_output_tokens, int(min_output_tokens * r.paretovariate(pareto_alpha)))

    return _build_requests(
        arrivals, rng, mean_prompt_tokens, 0, slo_ms, output_sampler=sample_output
    )


def memory_pressure_workload(
    num_requests: int = 32,
    rate_rps: float = 4.0,
    mean_prompt_tokens: int = 2048,
    mean_output_tokens: int = 256,
    max_prompt_tokens: int = 8192,
    max_output_tokens: int = 1024,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals with long prompts and long outputs.

    Every request carries a large KV footprint at admission (the prompt)
    and keeps growing it for hundreds of decode steps (the output), so a
    replica saturates its block budget well before its batch slots — the
    regime where memory-aware admission and preemption decide throughput.
    Lengths are exponentially distributed but *capped* (unlike the other
    generators) so the worst-case single-request footprint is bounded and
    a deliberately small block budget stays feasible.
    """
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += rng.expovariate(rate_rps) * 1000.0
        arrivals.append(now)

    def sample_output(r: random.Random) -> int:
        return min(max_output_tokens, _token_count(r, mean_output_tokens))

    requests = _build_requests(
        arrivals, rng, mean_prompt_tokens, 0, slo_ms, output_sampler=sample_output
    )
    return [
        dataclasses.replace(r, prompt_tokens=min(r.prompt_tokens, max_prompt_tokens))
        for r in requests
    ]


def diurnal_workload(
    num_requests: int = 1024,
    base_rate_rps: float = 4.0,
    peak_rate_rps: float = 16.0,
    period_s: float = 600.0,
    num_spikes: int = 4,
    spike_multiplier: float = 3.0,
    spike_duration_s: float = 15.0,
    mean_prompt_tokens: int = 512,
    mean_output_tokens: int = 64,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Non-stationary arrivals: a sinusoidal day/night cycle plus seeded
    flash-crowd spikes.

    The arrival process is a non-homogeneous Poisson process whose rate
    swings sinusoidally between ``base_rate_rps`` (the trough) and
    ``peak_rate_rps`` (the peak) over one ``period_s``-second "day".  On
    top of the cycle, ``num_spikes`` flash-crowd windows — their offsets
    drawn once from the seeded RNG, recurring every period — multiply the
    instantaneous rate by ``spike_multiplier`` for ``spike_duration_s``
    seconds (the "everyone opens the app at once" event).  Arrivals are
    sampled by thinning against the peak-times-multiplier rate bound, so
    the trace is exactly Poisson in every infinitesimal window and fully
    determined by the seed.

    This is the trace the million-request scale benchmarks
    (``benchmarks/bench_sim_scale.py``) play: the peaks overrun a single
    replica's service rate, building — and then draining — deep queues, so
    the simulator's hot loop is exercised under realistic backlog rather
    than steady state.
    """
    if not 0.0 < base_rate_rps <= peak_rate_rps:
        raise ValueError(
            f"need 0 < base_rate_rps <= peak_rate_rps, got "
            f"{base_rate_rps} and {peak_rate_rps}"
        )
    if period_s <= 0:
        raise ValueError(f"period_s must be > 0, got {period_s}")
    if num_spikes < 0 or spike_multiplier < 1.0:
        raise ValueError(
            f"need num_spikes >= 0 and spike_multiplier >= 1, got "
            f"{num_spikes} and {spike_multiplier}"
        )
    if not 0.0 <= spike_duration_s < period_s:
        raise ValueError(
            f"spike_duration_s must be in [0, period_s), got {spike_duration_s}"
        )
    rng = random.Random(seed)
    spike_offsets = sorted(rng.uniform(0.0, period_s) for _ in range(num_spikes))
    swing = peak_rate_rps - base_rate_rps
    omega = 2.0 * math.pi / period_s
    rate_bound = peak_rate_rps * spike_multiplier

    def rate_at(t_s: float) -> float:
        rate = base_rate_rps + swing * 0.5 * (1.0 + math.sin(omega * t_s))
        offset = t_s % period_s
        for start in spike_offsets:
            end = start + spike_duration_s
            if start <= offset < end or offset < end - period_s:  # wrapped window
                return rate * spike_multiplier
        return rate

    now_s = 0.0
    arrivals: List[float] = []
    while len(arrivals) < num_requests:
        now_s += rng.expovariate(rate_bound)
        if rng.random() * rate_bound <= rate_at(now_s):
            arrivals.append(now_s * 1000.0)
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms)


def _prefix_hash(system_prompt_tokens: int, tenant: int, template_tokens: int) -> str:
    """The content hash of one tenant's shared prefix.

    The simulator carries token *counts*, not token ids, so the "content"
    hashed here is the prefix's identity tuple — stable across seeds and
    runs, exactly like hashing the real token ids would be.
    """
    blob = f"system:{system_prompt_tokens}|tenant:{tenant}:{template_tokens}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def prefix_shared_workload(
    num_requests: int = 64,
    rate_rps: float = 4.0,
    num_tenants: int = 4,
    shared_fraction: float = 1.0,
    system_prompt_tokens: int = 256,
    tenant_template_tokens: int = 128,
    mean_unique_tokens: int = 64,
    mean_output_tokens: int = 64,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals whose prompts share structured prefixes.

    Every prompt opens with the deployment's system prompt
    (``system_prompt_tokens``) plus one of ``num_tenants`` tenant
    templates (``tenant_template_tokens``) and closes with an
    exponentially distributed unique user suffix.  A request *declares*
    that shared prefix (``prefix_id`` = the content hash of system prompt
    + its tenant's template, stable across seeds) with probability
    ``shared_fraction``; an undeclared request carries the identical
    prompt bytes but no cache identity, the way a client that doesn't opt
    into caching would.

    Arrival times, tenants and token counts are drawn identically
    regardless of ``shared_fraction`` — the fraction only flips identity
    bits — so sweeping it compares sharing regimes on the *same* traffic,
    and ``shared_fraction=0`` is the exact no-sharing baseline.
    """
    if num_tenants < 1:
        raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(f"shared_fraction must be in [0, 1], got {shared_fraction}")
    if system_prompt_tokens < 0 or tenant_template_tokens < 0:
        raise ValueError("prefix token counts must be >= 0")
    prefix_tokens = system_prompt_tokens + tenant_template_tokens
    if prefix_tokens < 1:
        raise ValueError("need a nonempty shared prefix (system prompt + template)")
    rng = random.Random(seed)
    now = 0.0
    requests = []
    for request_id in range(num_requests):
        now += rng.expovariate(rate_rps) * 1000.0
        tenant = rng.randrange(num_tenants)
        unique = _token_count(rng, mean_unique_tokens)
        output = _token_count(rng, mean_output_tokens)
        declared = rng.random() < shared_fraction
        requests.append(
            Request(
                request_id=request_id,
                arrival_ms=round(now, 6),
                prompt_tokens=prefix_tokens + unique,
                output_tokens=output,
                slo_ms=slo_ms if slo_ms is not None else _default_slo_ms(output),
                prefix_id=(
                    _prefix_hash(system_prompt_tokens, tenant, tenant_template_tokens)
                    if declared
                    else None
                ),
                prefix_tokens=prefix_tokens if declared else 0,
            )
        )
    return requests


def deadline_workload(
    num_requests: int = 64,
    rate_rps: float = 4.0,
    mean_prompt_tokens: int = 512,
    mean_output_tokens: int = 64,
    deadline_factor: float = 2.0,
    slo_ms: Optional[float] = None,
    seed: int = 0,
) -> List[Request]:
    """Steady Poisson arrivals where every request carries a hard deadline.

    Each request's ``deadline_ms`` is its arrival plus ``deadline_factor``
    times its (per-request) SLO budget — generous enough that a healthy,
    adequately provisioned fleet finishes everything, tight enough that a
    fleet degraded by crashes or stragglers sheds the requests it can no
    longer serve in time instead of queueing them indefinitely.  Arrival
    times and token counts are drawn identically to
    :func:`steady_workload` at the same seed — the deadlines only add the
    shedding bound — so comparing the two isolates the deadline policy on
    the *same* traffic.
    """
    if deadline_factor <= 0:
        raise ValueError(f"deadline_factor must be > 0, got {deadline_factor}")
    base = steady_workload(
        num_requests=num_requests,
        rate_rps=rate_rps,
        mean_prompt_tokens=mean_prompt_tokens,
        mean_output_tokens=mean_output_tokens,
        slo_ms=slo_ms,
        seed=seed,
    )
    return [
        dataclasses.replace(
            r, deadline_ms=round(r.arrival_ms + deadline_factor * r.slo_ms, 6)
        )
        for r in base
    ]


WORKLOADS: Dict[str, Callable[..., List[Request]]] = {
    "steady": steady_workload,
    "bursty": bursty_workload,
    "heavy-tail": heavy_tail_workload,
    "memory-pressure": memory_pressure_workload,
    "diurnal": diurnal_workload,
    "prefix-shared": prefix_shared_workload,
    "deadline": deadline_workload,
}


def make_workload(name: str, **kwargs) -> List[Request]:
    """Build a named workload (``steady``, ``bursty``, ``heavy-tail``,
    ``memory-pressure``, ``diurnal``, ``prefix-shared``, ``deadline``)."""
    try:
        generator = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r} (expected one of {sorted(WORKLOADS)})")
    return generator(**kwargs)
