"""The seeded generators draw the same random stream as before.

Every generator in ``repro.serving.workload`` writes its draws out
inline (``-log(1.0 - random()) / rate`` over a bound ``rng.random``, and
a tenant as ``randrange``'s loop over a bound ``rng.getrandbits``),
hashes each tenant's prefix once, and builds each ``Request``
positionally.  The oracle below is the generator module as it stood
before that change, copied verbatim: each draw a ``Random`` method call
(``expovariate``, ``uniform``, ``randrange``, ``paretovariate``), one
prefix hash per declared request and keyword ``Request`` construction.
The differential test asks both for ``==`` request lists over seeded
parameter draws of all seven generators; two draw tests compare the
inline exponential with ``random.Random.expovariate`` directly, and one
compares 10,000 inline tenant draws with ``random.Random.randrange``.

Rounding hides a last-bit slip in most cases: token counts are integers
and arrival times are rounded to microseconds.  Means above ``2**53``
make every bit of a token count's variate show, and rates near 1e-9 rps
put arrival times above ``2**53`` microseconds, where the rounding keeps
every bit.  With means that are not powers of two, ``x * mean`` differs
from ``x / (1.0 / mean)`` (for 16, 32 or 64 the two are equal), so those
cases catch a draw that multiplies by the mean instead of dividing by
the rate.

Two more checks need no oracle: the prefix-shared generator hashes each
tenant's prefix at most once (counted through ``monkeypatch``), and every
generator rejects a bad parameter before its first draw with a
``ValueError`` naming the parameter and the value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
from typing import Callable, List, Optional

import pytest

from repro.serving import workload
from repro.serving.workload import Request


# --------------------------------------------------------------------------- #
# The oracle: the generators before the inline draws, verbatim
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


ORACLE = {
    "steady": steady_workload,
    "bursty": bursty_workload,
    "heavy-tail": heavy_tail_workload,
    "memory-pressure": memory_pressure_workload,
    "diurnal": diurnal_workload,
    "prefix-shared": prefix_shared_workload,
    "deadline": deadline_workload,
}

# Means above 2**53 that are not powers of two: every bit of a token
# count's variate shows in the integer.
HUGE_MEAN = 12_345_678_901_234_567
HUGE_MEAN_2 = 3 * 10**16 + 7


def _tier(num_requests, seed):
    """``bench_sim_scale.tier_workload``'s diurnal shape (spikes on)."""
    period_s = num_requests / 2500.0
    return dict(
        num_requests=num_requests, base_rate_rps=500.0, peak_rate_rps=1500.0,
        period_s=period_s, num_spikes=3, spike_multiplier=3.0,
        spike_duration_s=period_s / 16.0, mean_prompt_tokens=64,
        mean_output_tokens=32, seed=seed,
    )


def _drawn(seed):
    """One seeded parameter draw per generator."""
    rng = random.Random(f"workload-oracle:{seed}")
    means = dict(
        mean_prompt_tokens=rng.choice([1, 3, 37.5, 100, 511, HUGE_MEAN]),
        mean_output_tokens=rng.choice([2, 24, 97, 1000.25, HUGE_MEAN_2]),
    )
    rate = rng.choice([0.7, 3.3, 41.0, 950.0])
    return [
        ("steady", dict(num_requests=300, rate_rps=rate, **means, seed=seed)),
        ("bursty", dict(
            num_requests=250, burst_size=rng.randint(1, 40),
            burst_interval_ms=rng.uniform(5.0, 5000.0),
            intra_burst_ms=rng.choice([0.0, 3.3, 20.0]), **means, seed=seed,
        )),
        ("heavy-tail", dict(
            num_requests=300, rate_rps=rate,
            mean_prompt_tokens=means["mean_prompt_tokens"],
            min_output_tokens=rng.choice([1, 7, HUGE_MEAN]),
            pareto_alpha=rng.uniform(0.4, 3.0),
            max_output_tokens=rng.choice([50, 2048, 10**30]), seed=seed,
        )),
        ("memory-pressure", dict(
            num_requests=300, rate_rps=rate, **means,
            max_prompt_tokens=rng.choice([1, 300, 10**30]),
            max_output_tokens=rng.choice([5, 200, 10**30]), seed=seed,
        )),
        ("prefix-shared", dict(
            num_requests=300, rate_rps=rate, num_tenants=rng.randint(1, 40),
            shared_fraction=rng.choice([0.0, 0.37, 1.0]),
            system_prompt_tokens=rng.choice([0, 48]), tenant_template_tokens=rng.choice([1, 16]),
            mean_unique_tokens=means["mean_prompt_tokens"],
            mean_output_tokens=means["mean_output_tokens"], seed=seed,
        )),
        ("deadline", dict(
            num_requests=300, rate_rps=rate, **means,
            deadline_factor=rng.choice([0.05, 1.7, 3.0]), seed=seed,
        )),
    ]


# Diurnal shapes whose spike windows wrap past the end of the period at
# these seeds (``test_wrapped_cases_wrap`` checks it).
WRAPPED = [
    ("diurnal", dict(
        num_requests=1500, base_rate_rps=40.0, peak_rate_rps=300.0, period_s=2.0,
        num_spikes=3, spike_multiplier=2.5, spike_duration_s=0.3, seed=8,
    )),
    ("diurnal", dict(
        num_requests=1200, base_rate_rps=3.0, peak_rate_rps=7.0, period_s=50.0,
        num_spikes=4, spike_multiplier=4.0, spike_duration_s=6.0,
        mean_prompt_tokens=HUGE_MEAN, mean_output_tokens=37, seed=15,
    )),
    ("diurnal", dict(
        num_requests=500, base_rate_rps=1e-9, peak_rate_rps=4e-9, period_s=2e10,
        num_spikes=4, spike_duration_s=3e9, seed=8,
    )),
]

CASES = (
    [
        # perfbench's three traces: compile-buckets' steady trace,
        # serve-backlog's diurnal day and one of its crowds, and
        # fleet-prefix-crash's prefix-shared trace.
        ("steady", dict(
            num_requests=6000, rate_rps=800.0, mean_prompt_tokens=64,
            mean_output_tokens=32, seed=1000,
        )),
        ("diurnal", dict(
            num_requests=4000, base_rate_rps=500.0, peak_rate_rps=1500.0, period_s=4.0,
            num_spikes=0, spike_duration_s=0.0, mean_prompt_tokens=64,
            mean_output_tokens=32, seed=1000,
        )),
        ("steady", dict(
            num_requests=500, rate_rps=2000.0, mean_prompt_tokens=64,
            mean_output_tokens=32, seed=1000 * 1000 + 2,
        )),
        ("prefix-shared", dict(
            num_requests=10_000, rate_rps=2800.0, num_tenants=16, system_prompt_tokens=48,
            tenant_template_tokens=16, mean_unique_tokens=16, mean_output_tokens=32,
            seed=1000,
        )),
        ("diurnal", _tier(10_000, 3)),
        # Every default, and an explicit SLO.
        *((name, dict(seed=4)) for name in sorted(ORACLE)),
        ("steady", dict(num_requests=200, rate_rps=9.5, slo_ms=1234.5, seed=6)),
        ("diurnal", dict(
            num_requests=800, period_s=30.0, num_spikes=0, spike_multiplier=1.0,
            mean_prompt_tokens=HUGE_MEAN, mean_output_tokens=HUGE_MEAN_2, slo_ms=800.0,
            seed=7,
        )),
        ("prefix-shared", dict(
            num_requests=400, rate_rps=77.0, num_tenants=10**9, shared_fraction=0.37,
            mean_unique_tokens=HUGE_MEAN, mean_output_tokens=HUGE_MEAN_2, slo_ms=5e3,
            seed=9,
        )),
        # Rates near 1e-9 rps put arrival times above 2**53 us, where the
        # rounding to microseconds keeps every bit of the arrival draws
        # (the last diurnal case of WRAPPED is one too).
        ("steady", dict(num_requests=300, rate_rps=1e-9, seed=12)),
        ("bursty", dict(num_requests=300, burst_size=5, burst_interval_ms=3e12, seed=12)),
        ("prefix-shared", dict(
            num_requests=300, rate_rps=2e-9, num_tenants=5, shared_fraction=0.37, seed=13,
        )),
        *WRAPPED,
    ]
    + _drawn(1)
    + _drawn(2)
)


def _case_id(case):
    name, kwargs = case
    return f"{name}-n{kwargs.get('num_requests', 'default')}-s{kwargs['seed']}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_generators_match_the_oracle(case):
    name, kwargs = case
    generated = workload.WORKLOADS[name](**kwargs)
    assert generated == ORACLE[name](**kwargs)
    assert len(generated) == kwargs.get("num_requests", len(generated))


def test_wrapped_cases_wrap():
    for _, kwargs in WRAPPED:
        rng = random.Random(kwargs["seed"])
        offsets = [rng.uniform(0.0, kwargs["period_s"]) for _ in range(kwargs["num_spikes"])]
        assert max(offsets) + kwargs["spike_duration_s"] > kwargs["period_s"]


@pytest.mark.parametrize("rate", [0.3, 1.0, 3.7, 64.0, 800.0, 2800.0])
def test_inline_arrival_draw_is_expovariate(rate):
    rng = random.Random(7)
    now, expected = 0.0, []
    for _ in range(10_000):
        now += rng.expovariate(rate) * 1000.0
        expected.append(now)
    assert workload._poisson_arrivals(random.Random(7), 10_000, rate) == expected


@pytest.mark.parametrize("mean", [1, 3, 37.5, 100, HUGE_MEAN])
def test_inline_token_draw_is_expovariate(mean):
    rng = random.Random(11)
    expected = [_token_count(rng, mean) for _ in range(10_000)]
    built = workload._build_requests([0.0] * 5000, random.Random(11), mean, mean, None, None)
    assert [n for r in built for n in (r.prompt_tokens, r.output_tokens)] == expected


@pytest.mark.parametrize("num_tenants", [1, 2, 3, 16, 17, 10**9, 2**40 + 1])
def test_inline_tenant_draw_is_randrange(monkeypatch, num_tenants):
    """The generator draws each tenant with ``randrange``'s own loop over
    ``getrandbits``; sizes just above a power of two reject almost half
    of the draws, and ``2**40 + 1`` takes two 32-bit words per draw."""
    # Every request declares its prefix, whose id is then its tenant.
    monkeypatch.setattr(workload, "_prefix_hash", lambda system, tenant, template: str(tenant))
    requests = workload.prefix_shared_workload(
        num_requests=10_000, num_tenants=num_tenants, shared_fraction=1.0, seed=5
    )
    # The same stream drawn through ``Random``: per request an arrival,
    # the tenant, the unique and output token counts and the sharing coin.
    rng = random.Random(5)
    expected = []
    for _ in range(10_000):
        rng.random()
        expected.append(rng.randrange(num_tenants))
        rng.random(), rng.random(), rng.random()
    assert [int(r.prefix_id) for r in requests] == expected
    if num_tenants <= 17:
        assert set(expected) == set(range(num_tenants))


def test_prefix_hashed_once_per_tenant(monkeypatch):
    calls = []
    real = workload._prefix_hash

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(workload, "_prefix_hash", counting)
    requests = workload.prefix_shared_workload(num_requests=10_000, num_tenants=16, seed=3)
    assert len(calls) <= 16
    ids = {}
    for r in requests:
        assert ids.setdefault(r.prefix_id, r.prefix_id) is r.prefix_id
    assert len(ids) == 16
    # Lazily: a tenant count far above the request count hashes only the
    # tenants drawn.
    calls.clear()
    requests = workload.prefix_shared_workload(num_requests=50, num_tenants=10**12, seed=3)
    assert len(calls) == len({r.prefix_id for r in requests}) <= 50


# --------------------------------------------------------------------------- #
# Parameters are checked before any draw
# --------------------------------------------------------------------------- #
BAD_PARAMETERS = [
    ("bursty", "burst_size", 0),
    ("bursty", "burst_size", -2),
    ("bursty", "burst_size", 2.0),
    ("bursty", "burst_interval_ms", 0.0),
    ("bursty", "intra_burst_ms", -1.0),
    ("steady", "rate_rps", 0),
    ("steady", "rate_rps", -1),
    ("steady", "rate_rps", math.inf),
    ("steady", "rate_rps", math.nan),
    ("steady", "mean_prompt_tokens", 0),
    ("steady", "mean_prompt_tokens", -5),
    ("steady", "mean_output_tokens", 0.5),
    ("steady", "num_requests", -3),
    ("steady", "num_requests", 2.5),
    ("steady", "num_requests", True),
    ("steady", "slo_ms", 0.0),
    ("steady", "slo_ms", math.nan),
    ("prefix-shared", "mean_unique_tokens", 0),
    ("prefix-shared", "num_tenants", 0),
    ("prefix-shared", "shared_fraction", 1.5),
    ("prefix-shared", "system_prompt_tokens", -1),
    ("heavy-tail", "pareto_alpha", 0),
    ("heavy-tail", "pareto_alpha", math.nan),
    ("heavy-tail", "min_output_tokens", 0),
    ("heavy-tail", "max_output_tokens", 0),
    ("memory-pressure", "max_prompt_tokens", 0),
    ("memory-pressure", "max_output_tokens", -4),
    ("memory-pressure", "mean_output_tokens", math.inf),
    ("diurnal", "num_requests", "12"),
    ("diurnal", "peak_rate_rps", math.inf),
    ("diurnal", "period_s", math.nan),
    ("diurnal", "num_spikes", -1),
    ("diurnal", "spike_multiplier", math.nan),
    ("diurnal", "spike_duration_s", 600.0),
    ("deadline", "deadline_factor", 0.0),
    ("deadline", "deadline_factor", math.inf),
    ("deadline", "rate_rps", -2.0),
]


@pytest.mark.parametrize(
    "name, parameter, value", BAD_PARAMETERS, ids=lambda v: repr(v) if not isinstance(v, str) else v
)
def test_bad_parameters_name_the_parameter_and_value(name, parameter, value):
    with pytest.raises(ValueError, match=rf"^{parameter} must .*, got {re.escape(repr(value))}$"):
        workload.WORKLOADS[name](**{parameter: value})
