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
generation so the trace serializes bit-exactly.  Every generator checks
its parameters before its first draw and raises a ``ValueError`` naming
the parameter and the value it got.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import random
from bisect import bisect_right, insort
from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter, index
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


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor of the frozen slots
    dataclass ``cls``, in field order.

    A frozen dataclass's generated ``__init__`` stores every field through
    ``object.__setattr__``, which looks the name up on the type at each
    call; a slot's member descriptor stores straight into the slot.  The
    records built once per request (``Request``, ``RequestMetrics``,
    ``RunningInfo``) therefore declare ``init=False``, fetch their setters
    here once, after the decorator has built the final class
    (``slots=True`` replaces the class the body defined), and call them
    from a hand-written ``__init__``: the records stay frozen, and
    assigning a field still raises ``FrozenInstanceError``.
    """
    return tuple(cls.__dict__[field.name].__set__ for field in fields(cls))


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_record(cls):
    """Give the frozen slots dataclass ``cls`` the ``__setattr__`` and
    ``__delattr__`` the serving records share, which raise
    ``FrozenInstanceError`` for every name.

    The pair ``frozen=True`` generates compares ``type(self)`` with the
    class the body defined, which ``slots=True`` replaces, so assigning
    or deleting a name that is not a field falls through to ``super()``
    and raises ``TypeError`` instead.  Apply it above ``@dataclass``, to
    the final class.  Nothing that builds a record goes through these:
    the constructors store through the slots (:func:`slot_setters`), and
    ``dataclasses.replace`` constructs, while unpickling and copies call
    ``object.__setattr__``.
    """
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class Request:
    """One user request: the immutable workload spec.

    ``request_id`` is a non-negative integer, unique within one
    ``simulate()`` call: a replica's prefix store books its entries in
    the same block pool as the requests, under the negative ids.

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

    The constructor checks its arguments before it stores them (see
    :func:`slot_setters`), so ``dataclasses.replace`` checks too.
    """

    request_id: int
    arrival_ms: float
    prompt_tokens: int
    output_tokens: int
    slo_ms: float
    prefix_id: Optional[str] = None
    prefix_tokens: int = 0
    deadline_ms: Optional[float] = None

    def __init__(
        self,
        request_id: int,
        arrival_ms: float,
        prompt_tokens: int,
        output_tokens: int,
        slo_ms: float,
        prefix_id: Optional[str] = None,
        prefix_tokens: int = 0,
        deadline_ms: Optional[float] = None,
    ):
        if type(request_id) is not int or request_id < 0:
            # Non-negative: the prefix store books its entries under the
            # negative ids.  Any integral type (a numpy integer, say), but
            # not bool.
            check_count("request_id", request_id, 0)
        # Generators build millions of requests: plain ints, the common
        # case, skip the per-field check.
        if not (type(prompt_tokens) is type(output_tokens) is type(prefix_tokens) is int):
            for name, value in (
                ("prompt_tokens", prompt_tokens),
                ("output_tokens", output_tokens),
                ("prefix_tokens", prefix_tokens),
            ):
                # Any integral type, but not bool.
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(
                        f"request {request_id}: {name} must be an integer, got {value!r}"
                    )
        if prompt_tokens < 1 or output_tokens < 1:
            raise ValueError(
                f"request {request_id}: prompt/output token counts must be "
                f">= 1, got {prompt_tokens}/{output_tokens}"
            )
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (0.0 <= arrival_ms < math.inf and 0.0 < slo_ms < math.inf):
            raise ValueError(
                f"request {request_id}: need finite arrival_ms >= 0 and slo_ms > 0, "
                f"got arrival_ms={arrival_ms}, slo_ms={slo_ms}"
            )
        if prefix_id is not None:
            if not 1 <= prefix_tokens <= prompt_tokens:
                raise ValueError(
                    f"request {request_id}: prefix_tokens must be in "
                    f"[1, prompt_tokens] when prefix_id is set, got "
                    f"{prefix_tokens} of {prompt_tokens}"
                )
        elif prefix_tokens:
            raise ValueError(f"request {request_id}: prefix_tokens without a prefix_id")
        if deadline_ms is not None and not (arrival_ms < deadline_ms < math.inf):
            raise ValueError(
                f"request {request_id}: deadline_ms ({deadline_ms}) "
                f"must be finite and after arrival_ms ({arrival_ms})"
            )
        _set_request_id(self, request_id)
        _set_arrival_ms(self, arrival_ms)
        _set_prompt_tokens(self, prompt_tokens)
        _set_output_tokens(self, output_tokens)
        _set_slo_ms(self, slo_ms)
        _set_prefix_id(self, prefix_id)
        _set_prefix_tokens(self, prefix_tokens)
        _set_deadline_ms(self, deadline_ms)

    @property
    def slo_deadline_ms(self) -> float:
        """The soft (SLO) deadline earliest-deadline-first scheduling keys
        on — always defined, never enforced (contrast ``deadline_ms``)."""
        return self.arrival_ms + self.slo_ms


(
    _set_request_id,
    _set_arrival_ms,
    _set_prompt_tokens,
    _set_output_tokens,
    _set_slo_ms,
    _set_prefix_id,
    _set_prefix_tokens,
    _set_deadline_ms,
) = slot_setters(Request)

# Arrival order, unique per request: the order the queue releases requests
# in, a cluster routes them in, they join a running batch in, and a crash
# hands its lost requests back in.  ``arrival_key(request)`` is
# ``(request.arrival_ms, request.request_id)``; as an ``attrgetter`` a sort
# or bisect keyed by it runs no Python frame per element.
arrival_key = attrgetter("arrival_ms", "request_id")
_arrival_ms = attrgetter("arrival_ms")


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

    The simulator pops the prefix whose arrival time has passed on each
    step that has an arrival, and jumps simulated time to
    :attr:`next_arrival_ms` when idle.

    Backed by one arrival-sorted array plus a moving cursor: the popped
    prefix is sliced off in one cut per step instead of element-by-element
    (pops strictly dominate — million-request runs pop every request
    exactly once, while only the cluster ever pushes), and pushes keep the
    pending suffix ordered via bisect.  The consumed prefix is compacted
    away periodically so a long run does not pin every popped request.

    ``next_arrival_ms`` is a plain attribute that :meth:`push` and
    :meth:`pop_arrived` keep current: the arrival time of the earliest
    pending request, ``None`` once nothing is pending.  The engine reads
    it every step, so the read must not call back into Python.
    """

    _COMPACT_AT = 4096

    def __init__(self, requests):
        self._ordered: List[Request] = sorted(requests, key=arrival_key)
        self._cursor = 0
        self.next_arrival_ms: Optional[float] = (
            self._ordered[0].arrival_ms if self._ordered else None
        )

    def __len__(self) -> int:
        return len(self._ordered) - self._cursor

    def __iter__(self):
        """Iterate the pending requests in arrival order (read-only)."""
        return iter(self._ordered[self._cursor :])

    def push(self, request: Request) -> None:
        """Insert one more request, keeping ``(arrival_ms, request_id)`` order.

        The cluster simulator routes requests in global arrival order, so
        injections normally append; an out-of-order insert bisects into
        the pending suffix.
        """
        ordered = self._ordered
        cursor = self._cursor
        if len(ordered) == cursor or arrival_key(request) >= arrival_key(ordered[-1]):
            ordered.append(request)
        else:
            insort(ordered, request, lo=cursor, key=arrival_key)
        self.next_arrival_ms = ordered[cursor].arrival_ms

    def pop_arrived(self, now_ms: float) -> List[Request]:
        """Remove and return every request with ``arrival_ms <= now_ms``."""
        if self.next_arrival_ms is None or self.next_arrival_ms > now_ms:
            return []
        ordered = self._ordered
        cursor = self._cursor
        # First index whose arrival is strictly after now: the sorted order
        # is (arrival_ms, request_id), so arrival times alone are also
        # non-decreasing and bisect on them finds the popped prefix's end.
        end = bisect_right(ordered, now_ms, lo=cursor, key=_arrival_ms)
        arrived = ordered[cursor:end]
        if end >= self._COMPACT_AT and end * 2 >= len(ordered):
            del ordered[:end]
            end = 0
        self._cursor = end
        self.next_arrival_ms = ordered[end].arrival_ms if end < len(ordered) else None
        return arrived


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
# Every draw is written out inline over the generator's bound ``rng.random``:
# an exponential variate is CPython's own ``Random.expovariate`` expression,
# ``-log(1.0 - random()) / rate`` (divided by the rate, never multiplied by
# the mean: ``x / (1.0 / m)`` and ``x * m`` differ in the last bit for most
# means), and an exponential token count with mean ``m`` is
# ``round(-log(1.0 - random()) / (1.0 / m)) or 1`` -- the variate is never
# negative, so ``or 1`` is ``max(1, ...)``.  A tenant is ``randrange``'s own
# loop over the bound ``rng.getrandbits``.  The random stream, and with it
# every trace, is bit-identical to calling the ``Random`` methods
# (``tests/test_workload_oracle.py`` holds those generators as the oracle).
def _default_slo_ms(output_tokens: int) -> float:
    # A per-token latency budget plus fixed queueing slack: generous enough
    # that an unloaded engine always meets it, tight enough that saturation
    # shows up as SLO misses.
    return 2000.0 + 75.0 * output_tokens


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool)
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number above 0."""
    # Written so that NaN fails too: every comparison with NaN is false.
    if not (_is_real(value) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_at_least(name: str, value, minimum: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number of at least
    ``minimum`` (token means: at least 1)."""
    if not (_is_real(value) and minimum <= value < math.inf):
        raise ValueError(f"{name} must be finite and >= {minimum}, got {value!r}")


def _check_traffic(num_requests, slo_ms) -> None:
    """The parameters every generator takes: the request count and an
    optional fixed SLO."""
    check_count("num_requests", num_requests, 0)
    if slo_ms is not None:
        _check_positive("slo_ms", slo_ms)


def _poisson_arrivals(rng: random.Random, num_requests: int, rate_rps: float) -> List[float]:
    """``num_requests`` Poisson arrival times at ``rate_rps`` (ms, unrounded)."""
    random_ = rng.random
    log = math.log
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += -log(1.0 - random_()) / rate_rps * 1000.0
        arrivals.append(now)
    return arrivals


def _build_requests(
    arrivals_ms: List[float],
    rng: random.Random,
    mean_prompt_tokens: float,
    mean_output_tokens: float,
    slo_ms: Optional[float],
    deadline_factor: Optional[float],
) -> List[Request]:
    """One request per arrival: its prompt length, then its output length.

    With a ``deadline_factor`` each request's hard deadline is its
    (rounded) arrival plus that multiple of its SLO budget.
    """
    random_ = rng.random
    log = math.log
    prompt_rate = 1.0 / mean_prompt_tokens
    output_rate = 1.0 / mean_output_tokens
    requests = []
    append = requests.append
    for request_id, arrival_ms in enumerate(arrivals_ms):
        prompt = round(-log(1.0 - random_()) / prompt_rate) or 1
        output = round(-log(1.0 - random_()) / output_rate) or 1
        arrival_ms = round(arrival_ms, 6)
        slo = _default_slo_ms(output) if slo_ms is None else slo_ms
        if deadline_factor is None:
            append(Request(request_id, arrival_ms, prompt, output, slo))
        else:
            deadline = round(arrival_ms + deadline_factor * slo, 6)
            append(Request(request_id, arrival_ms, prompt, output, slo, None, 0, deadline))
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
    _check_traffic(num_requests, slo_ms)
    _check_positive("rate_rps", rate_rps)
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    rng = random.Random(seed)
    arrivals = _poisson_arrivals(rng, num_requests, rate_rps)
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms, None)


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
    """Bursts of ``burst_size`` near-simultaneous requests, then silence.

    Burst starts are a unit-rate Poisson process scaled by
    ``burst_interval_ms``; each request lands uniformly within
    ``intra_burst_ms`` of its burst's start (0 makes a burst simultaneous).
    """
    _check_traffic(num_requests, slo_ms)
    check_count("burst_size", burst_size, 1)
    _check_positive("burst_interval_ms", burst_interval_ms)
    _check_at_least("intra_burst_ms", intra_burst_ms, 0.0)
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    rng = random.Random(seed)
    random_ = rng.random
    log = math.log
    arrivals = []
    burst_start = 0.0
    while len(arrivals) < num_requests:
        # expovariate(1.0) is the variate divided by 1.0, which is exact.
        burst_start += -log(1.0 - random_()) * burst_interval_ms
        for _ in range(min(burst_size, num_requests - len(arrivals))):
            # uniform(0.0, b) is 0.0 + b * random(), and 0.0 + x == x here.
            arrivals.append(burst_start + intra_burst_ms * random_())
    arrivals.sort()
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms, None)


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
    _check_traffic(num_requests, slo_ms)
    _check_positive("rate_rps", rate_rps)
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    check_count("min_output_tokens", min_output_tokens, 1)
    _check_positive("pareto_alpha", pareto_alpha)
    check_count("max_output_tokens", max_output_tokens, 1)
    rng = random.Random(seed)
    arrivals = _poisson_arrivals(rng, num_requests, rate_rps)
    random_ = rng.random
    log = math.log
    prompt_rate = 1.0 / mean_prompt_tokens
    # paretovariate(alpha) is (1.0 - random()) ** (-1.0 / alpha).
    shape = -1.0 / pareto_alpha
    requests = []
    for request_id, arrival_ms in enumerate(arrivals):
        prompt = round(-log(1.0 - random_()) / prompt_rate) or 1
        output = min(max_output_tokens, int(min_output_tokens * (1.0 - random_()) ** shape))
        slo = _default_slo_ms(output) if slo_ms is None else slo_ms
        requests.append(Request(request_id, round(arrival_ms, 6), prompt, output, slo))
    return requests


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
    _check_traffic(num_requests, slo_ms)
    _check_positive("rate_rps", rate_rps)
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    check_count("max_prompt_tokens", max_prompt_tokens, 1)
    check_count("max_output_tokens", max_output_tokens, 1)
    rng = random.Random(seed)
    arrivals = _poisson_arrivals(rng, num_requests, rate_rps)
    random_ = rng.random
    log = math.log
    prompt_rate = 1.0 / mean_prompt_tokens
    output_rate = 1.0 / mean_output_tokens
    requests = []
    for request_id, arrival_ms in enumerate(arrivals):
        prompt = min(max_prompt_tokens, round(-log(1.0 - random_()) / prompt_rate) or 1)
        output = min(max_output_tokens, round(-log(1.0 - random_()) / output_rate) or 1)
        slo = _default_slo_ms(output) if slo_ms is None else slo_ms
        requests.append(Request(request_id, round(arrival_ms, 6), prompt, output, slo))
    return requests


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
    _check_traffic(num_requests, slo_ms)
    _check_positive("base_rate_rps", base_rate_rps)
    _check_positive("peak_rate_rps", peak_rate_rps)
    if base_rate_rps > peak_rate_rps:
        raise ValueError(
            f"need 0 < base_rate_rps <= peak_rate_rps, got "
            f"{base_rate_rps} and {peak_rate_rps}"
        )
    _check_positive("period_s", period_s)
    check_count("num_spikes", num_spikes, 0)
    _check_at_least("spike_multiplier", spike_multiplier, 1.0)
    if not (_is_real(spike_duration_s) and 0.0 <= spike_duration_s < period_s):
        raise ValueError(
            f"spike_duration_s must be in [0, period_s), got {spike_duration_s!r}"
        )
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    rng = random.Random(seed)
    spike_offsets = sorted(rng.uniform(0.0, period_s) for _ in range(num_spikes))
    # Each spike covers [start, end) of the period's offset; a window that
    # runs past the period's end also covers [0, end - period_s) (offsets
    # are never negative).  Empty windows (zero duration) never match.
    windows = []
    for start in spike_offsets:
        end = start + spike_duration_s
        if start < end:
            windows.append((start, end))
        if end > period_s:
            windows.append((0.0, end - period_s))
    half_swing = (peak_rate_rps - base_rate_rps) * 0.5
    omega = 2.0 * math.pi / period_s
    rate_bound = peak_rate_rps * spike_multiplier
    random_ = rng.random
    log = math.log
    sin = math.sin

    now_s = 0.0
    arrivals: List[float] = []
    while len(arrivals) < num_requests:
        now_s += -log(1.0 - random_()) / rate_bound
        threshold = random_() * rate_bound
        rate = base_rate_rps + half_swing * (1.0 + sin(omega * now_s))
        if windows:
            offset = now_s % period_s
            for start, end in windows:
                if start <= offset < end:
                    rate *= spike_multiplier
                    break
        if threshold <= rate:
            arrivals.append(now_s * 1000.0)
    return _build_requests(arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms, None)


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
    and ``shared_fraction=0`` is the exact no-sharing baseline.  Each
    tenant's prefix is hashed once, on its first declared request, and
    every declared request of that tenant carries that one string.
    """
    _check_traffic(num_requests, slo_ms)
    _check_positive("rate_rps", rate_rps)
    check_count("num_tenants", num_tenants, 1)
    if not (_is_real(shared_fraction) and 0.0 <= shared_fraction <= 1.0):
        raise ValueError(f"shared_fraction must be in [0, 1], got {shared_fraction!r}")
    check_count("system_prompt_tokens", system_prompt_tokens, 0)
    check_count("tenant_template_tokens", tenant_template_tokens, 0)
    prefix_tokens = system_prompt_tokens + tenant_template_tokens
    if prefix_tokens < 1:
        raise ValueError("need a nonempty shared prefix (system prompt + template)")
    _check_at_least("mean_unique_tokens", mean_unique_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    # ``randrange(num_tenants)`` is CPython's ``_randbelow_with_getrandbits``:
    # draw ``num_tenants.bit_length()`` bits until the draw falls below it.
    num_tenants = index(num_tenants)
    tenant_bits = num_tenants.bit_length()
    unique_rate = 1.0 / mean_unique_tokens
    output_rate = 1.0 / mean_output_tokens
    prefix_ids: Dict[int, str] = {}
    now = 0.0
    requests = []
    append = requests.append
    for request_id in range(num_requests):
        now += -log(1.0 - random_()) / rate_rps * 1000.0
        tenant = getrandbits(tenant_bits)
        while tenant >= num_tenants:
            tenant = getrandbits(tenant_bits)
        prompt = prefix_tokens + (round(-log(1.0 - random_()) / unique_rate) or 1)
        output = round(-log(1.0 - random_()) / output_rate) or 1
        slo = _default_slo_ms(output) if slo_ms is None else slo_ms
        if random_() < shared_fraction:
            prefix_id = prefix_ids.get(tenant)
            if prefix_id is None:
                prefix_id = prefix_ids[tenant] = _prefix_hash(
                    system_prompt_tokens, tenant, tenant_template_tokens
                )
            append(
                Request(request_id, round(now, 6), prompt, output, slo, prefix_id, prefix_tokens)
            )
        else:
            append(Request(request_id, round(now, 6), prompt, output, slo))
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
    _check_traffic(num_requests, slo_ms)
    _check_positive("rate_rps", rate_rps)
    _check_at_least("mean_prompt_tokens", mean_prompt_tokens, 1)
    _check_at_least("mean_output_tokens", mean_output_tokens, 1)
    _check_positive("deadline_factor", deadline_factor)
    rng = random.Random(seed)
    arrivals = _poisson_arrivals(rng, num_requests, rate_rps)
    return _build_requests(
        arrivals, rng, mean_prompt_tokens, mean_output_tokens, slo_ms, deadline_factor
    )


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
