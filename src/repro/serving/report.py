"""Serving metrics: per-request records, percentiles and the ServeReport.

A :class:`ServeReport` summarizes one simulated serve: throughput,
latency/TTFT percentiles, queue depth, batch occupancy and SLO attainment,
with the raw per-request records attached.  ``digest()`` hashes the
per-request records bit-exactly (float values via ``float.hex``), which is
how the CI smoke job asserts that two identically seeded runs are
bit-identical.

:class:`BaseReport` holds everything a replica report and a fleet report
(:class:`~repro.serving.cluster.ClusterReport`) derive the same way — rates,
percentiles, availability, ``to_row()`` and ``summary()`` — so each class
only declares its label, its table ``COLUMNS`` and its own summary clauses.
``format_reports`` renders a sweep of either kind as the repo's standard
diff-friendly table (:mod:`repro.reporting.tables`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.reporting.tables import TableRow, format_table
from repro.serving.workload import frozen_record, slot_setters

__all__ = [
    "BaseReport",
    "RequestMetrics",
    "ServeReport",
    "format_reports",
    "percentile",
]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in [0, 100]); 0.0 if empty."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class RequestMetrics:
    """The lifecycle of one completed request.

    ``deadline_ms`` carries the request's optional hard deadline so
    goodput can tell useful completions from too-late ones.  It is
    deliberately absent from :meth:`record`: the digest hashes what was
    served and when, so deadlines that never lapse leave it unchanged.

    Every finishing request builds one, so the constructor stores each
    field through its slot (:func:`~repro.serving.workload.slot_setters`).
    """

    request_id: int
    arrival_ms: float
    scheduled_ms: float
    first_token_ms: float
    finish_ms: float
    prompt_tokens: int
    output_tokens: int
    slo_ms: float
    deadline_ms: Optional[float] = None

    def __init__(
        self,
        request_id: int,
        arrival_ms: float,
        scheduled_ms: float,
        first_token_ms: float,
        finish_ms: float,
        prompt_tokens: int,
        output_tokens: int,
        slo_ms: float,
        deadline_ms: Optional[float] = None,
    ):
        _set_request_id(self, request_id)
        _set_arrival_ms(self, arrival_ms)
        _set_scheduled_ms(self, scheduled_ms)
        _set_first_token_ms(self, first_token_ms)
        _set_finish_ms(self, finish_ms)
        _set_prompt_tokens(self, prompt_tokens)
        _set_output_tokens(self, output_tokens)
        _set_slo_ms(self, slo_ms)
        _set_deadline_ms(self, deadline_ms)

    @property
    def latency_ms(self) -> float:
        """End-to-end latency: arrival to final token."""
        return self.finish_ms - self.arrival_ms

    @property
    def ttft_ms(self) -> float:
        """Time to first token."""
        return self.first_token_ms - self.arrival_ms

    @property
    def slo_met(self) -> bool:
        return self.latency_ms <= self.slo_ms

    @property
    def deadline_met(self) -> bool:
        """Whether the request finished by its hard deadline (always True
        without one) — the goodput criterion."""
        return self.deadline_ms is None or self.finish_ms <= self.deadline_ms

    def record(self) -> list:
        """A bit-exact serializable form (floats as hex) for digesting."""
        return [
            self.request_id,
            float(self.arrival_ms).hex(),
            float(self.scheduled_ms).hex(),
            float(self.first_token_ms).hex(),
            float(self.finish_ms).hex(),
            self.prompt_tokens,
            self.output_tokens,
            float(self.slo_ms).hex(),
        ]


(
    _set_request_id,
    _set_arrival_ms,
    _set_scheduled_ms,
    _set_first_token_ms,
    _set_finish_ms,
    _set_prompt_tokens,
    _set_output_tokens,
    _set_slo_ms,
    _set_deadline_ms,
) = slot_setters(RequestMetrics)


def report_columns(*middle) -> tuple:
    """The ``(header, value)`` table columns every report shares, around a
    class's own ``middle`` ones; ``BaseReport.to_row()`` renders them."""
    return (
        ("tok/s", lambda r: r.throughput_tok_s),
        ("p50 (ms)", lambda r: r.latency_percentile_ms(50)),
        ("p95 (ms)", lambda r: r.latency_percentile_ms(95)),
        ("p99 (ms)", lambda r: r.latency_percentile_ms(99)),
        ("ttft p95", lambda r: r.ttft_percentile_ms(95)),
        ("slo %", lambda r: r.slo_attainment * 100.0),
        *middle,
        ("hit %", lambda r: r.prefix_hit_rate * 100.0),
    )


class BaseReport:
    """What a replica report and a fleet report derive the same way, from
    ``requests``, ``total_output_tokens``, ``duration_ms``,
    ``num_replicas`` and the prefix-cache and fault counters.

    A subclass declares ``label()``, its table ``COLUMNS`` and the two
    class-specific summary clauses, ``_summary_load()`` and
    ``_summary_outage()``.
    """

    @property
    def throughput_tok_s(self) -> float:
        """Generated tokens per second of simulated wall time."""
        if self.duration_ms <= 0:
            return 0.0
        return self.total_output_tokens / (self.duration_ms / 1000.0)

    @property
    def goodput_tok_s(self) -> float:
        """Throughput counting useful work only: tokens of completed,
        non-shed requests that met their hard deadline (shed requests
        generate nothing; a deadline-carrying request that finished late
        produced tokens nobody wanted).  Equal to ``throughput_tok_s``
        when no request carries a deadline."""
        if self.duration_ms <= 0:
            return 0.0
        useful = sum(m.output_tokens for m in self.requests if m.deadline_met)
        return useful / (self.duration_ms / 1000.0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met their end-to-end SLO."""
        if not self.requests:
            return 1.0
        return sum(1 for r in self.requests if r.slo_met) / len(self.requests)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix lookups that attached to a resident prefix
        (0.0 when the workload declared no prefixes)."""
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def availability(self) -> float:
        """Fraction of replica-time the serve was up over its duration:
        ``1 - downtime / (replicas x duration)`` — 1.0 fault-free."""
        span = self.duration_ms * self.num_replicas
        if span <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime_ms / span)

    def _sorted_metric(self, name: str) -> List[float]:
        # Lazily cached sorted samples: a summary line reads several
        # percentiles of the same million-entry series, and the records
        # are immutable once the report is built.
        cache = self.__dict__.setdefault("_metric_cache", {})
        values = cache.get(name)
        if values is None:
            values = cache[name] = sorted(getattr(r, name) for r in self.requests)
        return values

    def latency_percentile_ms(self, pct: float) -> float:
        return percentile(self._sorted_metric("latency_ms"), pct)

    def ttft_percentile_ms(self, pct: float) -> float:
        return percentile(self._sorted_metric("ttft_ms"), pct)

    # ------------------------------------------------------------------ #
    def to_row(self) -> TableRow:
        return TableRow(self.label(), {name: value(self) for name, value in self.COLUMNS})

    def summary(self) -> str:
        p50, p95, p99 = (self.latency_percentile_ms(pct) for pct in (50, 95, 99))
        parts = [
            f"{self.label()}: {self.num_requests} requests",
            f"{self.total_output_tokens} tokens in {self.duration_ms / 1000.0:.2f} s "
            f"({self.throughput_tok_s:.1f} tok/s)",
            f"p50/p95/p99 latency {p50:.0f}/{p95:.0f}/{p99:.0f} ms",
            f"SLO attainment {self.slo_attainment * 100.0:.1f}%",
            *self._summary_load(),
        ]
        if self.prefix_hits + self.prefix_misses:
            parts.append(
                f"prefix hit rate {self.prefix_hit_rate * 100.0:.1f}% "
                f"({self.prefix_blocks_saved} blocks saved)"
            )
        if self.crashes or self.shed:
            parts.append(
                f"{self.crashes} crashes ({self._summary_outage()}, availability "
                f"{self.availability * 100.0:.1f}%), {self.shed} shed, "
                f"goodput {self.goodput_tok_s:.1f} tok/s"
            )
        return ", ".join(parts)


@dataclass
class ServeReport(BaseReport):
    """Aggregate outcome of one simulated serve."""

    COLUMNS = report_columns(
        ("batch", lambda r: r.mean_batch_size),
        ("preempt", lambda r: r.preemptions),
        ("kv peak", lambda r: r.kv_peak_utilization),
    )
    num_replicas = 1  # the replica-time divisor of availability

    model: str
    backend: str
    scheduler: str
    workload: str
    arch: str
    num_requests: int
    total_output_tokens: int
    duration_ms: float
    steps: int
    mean_batch_size: float
    mean_queue_depth: float
    max_queue_depth: int
    requests: List[RequestMetrics] = field(default_factory=list, repr=False)
    # Counters, all outside digest(), which hashes only the per-request
    # trace.  KV-cache memory model:
    preemptions: int = 0
    kv_total_blocks: int = 0
    kv_peak_utilization: float = 0.0
    mean_kv_utilization: float = 0.0
    # Prefix cache (zeros when no request declared a shared prefix):
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_blocks_saved: int = 0
    prefix_evictions: int = 0
    prefix_resident_peak: int = 0
    # Robustness (zeros on a fault-free run):
    shed: int = 0
    crashes: int = 0
    downtime_ms: float = 0.0

    # ------------------------------------------------------------------ #
    def digest(self) -> str:
        """A bit-exact content hash of the serve outcome.

        Two runs of the same seeded workload through the same deterministic
        scheduler and step-latency model must produce equal digests — the
        CI smoke check enforces this.

        The hash is streamed record by record, producing the exact bytes
        ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
        would for the payload ``{model, backend, scheduler, workload,
        arch, steps, duration_ms, requests}`` — a million-request report
        must not materialize a hundred-megabyte JSON blob just to hash it.
        ``tests/test_sim_scale.py`` pins the equivalence to the monolithic
        form.
        """
        dumps = json.dumps
        # sort_keys orders the payload: arch, backend, duration_ms, model,
        # requests, scheduler, steps, workload — "requests" is streamed
        # between the head (keys before it) and the tail (keys after it).
        head = dumps(
            {
                "arch": self.arch,
                "backend": self.backend,
                "duration_ms": float(self.duration_ms).hex(),
                "model": self.model,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        tail = dumps(
            {
                "scheduler": self.scheduler,
                "steps": self.steps,
                "workload": self.workload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        hasher = hashlib.sha256()
        hasher.update(head[:-1].encode("utf-8"))  # keep the head's fields, drop "}"
        hasher.update(b',"requests":[')
        first = True
        for request in self.requests:
            if first:
                first = False
            else:
                hasher.update(b",")
            hasher.update(dumps(request.record(), separators=(",", ":")).encode("utf-8"))
        hasher.update(b"],")
        hasher.update(tail[1:].encode("utf-8"))  # keep the tail's fields, drop "{"
        return hasher.hexdigest()

    def label(self) -> str:
        return f"{self.model} / {self.backend} / {self.scheduler}"

    def _summary_load(self) -> List[str]:
        return [
            f"mean batch {self.mean_batch_size:.1f}",
            f"max queue depth {self.max_queue_depth}",
            f"{self.preemptions} preemptions",
            f"KV peak {self.kv_peak_utilization * 100.0:.0f}% of {self.kv_total_blocks} blocks",
        ]

    def _summary_outage(self) -> str:
        return f"{self.downtime_ms / 1000.0:.1f} s down"


def format_reports(title: str, reports: Sequence[BaseReport]) -> str:
    """Render a sweep of replica or fleet reports (one kind per table) as
    the standard benchmark table."""
    columns = (reports[0] if reports else ServeReport).COLUMNS
    return format_table(title, [name for name, _ in columns], [r.to_row() for r in reports])
