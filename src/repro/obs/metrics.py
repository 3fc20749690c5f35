"""Counters, gauges, and histograms.

The registry is dependency-free and deliberately small: metrics are
plain Python objects keyed by name, created on first touch, with a
JSON-serializable dump/restore so a run's measurements can be written
to disk and re-rendered later (``python -m repro stats``).

Histograms keep exact ``count``/``total``/``min``/``max`` plus sparse
counts on one geometric bucket grid shared by every histogram, so
histograms from different processes merge by adding counts and every
published p50/p95/p99 comes from :meth:`Histogram.quantile`.  Inside
the grid's range a quantile is within a relative :data:`RELATIVE_ERROR`
of the exact order statistic.

Nothing here reads a clock: a latency histogram is fed the
``duration_s`` of the span that timed the region (see
:mod:`repro.obs.spans`).
"""

from __future__ import annotations

import math

from repro.errors import ObservabilityError

# -- geometric bucket grid ----------------------------------------------------
GAMMA = 1.02
"""Ratio between successive bucket bounds: bucket ``i`` holds the
values in ``(GAMMA**(i-1), GAMMA**i]``."""

RELATIVE_ERROR = (GAMMA - 1.0) / (GAMMA + 1.0)
"""Worst relative error of a bucket's representative value (~0.99%)."""

_LOG_GAMMA = math.log(GAMMA)
# Values at or below 1e-9 share the lowest bucket and values above 1e9
# the highest; the error bound holds between the two.
_GRID_MIN = 1e-9
_GRID_MAX = 1e9
_MIN_INDEX = math.ceil(math.log(_GRID_MIN) / _LOG_GAMMA)
_MAX_INDEX = math.ceil(math.log(_GRID_MAX) / _LOG_GAMMA)
_ZERO_INDEX = _MIN_INDEX - 1  # zero and negative observations


def bucket_index(value: float) -> int:
    """Grid index of ``value``: ``ceil(log(value) / log(GAMMA))``,
    clamped to the grid; zero and negatives share one bucket below it."""
    if value > _GRID_MAX:
        return _MAX_INDEX
    if value > _GRID_MIN:
        return math.ceil(math.log(value) / _LOG_GAMMA)
    if value > 0.0:
        return _MIN_INDEX
    if value != value:
        raise ObservabilityError("cannot observe NaN")
    return _ZERO_INDEX


def bucket_value(index: int) -> float:
    """Representative of bucket ``index``, ``2 * GAMMA**index / (GAMMA
    + 1)``: within :data:`RELATIVE_ERROR` of every value in the bucket
    (0.0 for the zero-and-negative bucket)."""
    if index == _ZERO_INDEX:
        return 0.0
    return 2.0 * GAMMA ** index / (GAMMA + 1.0)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value:g})"


class Gauge:
    """A last-write-wins level (e.g. installed plan cost)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value:g})"


class Histogram:
    """A mergeable distribution summary on the shared geometric grid.

    ``count``/``total``/``min``/``max`` are exact; ``buckets`` maps a
    grid index (:func:`bucket_index`) to its observation count.  Every
    quantile comes from :meth:`quantile`, and two histograms
    :meth:`merge` exactly, so a merged fleet histogram reads the same
    quantiles as one histogram that saw every observation.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation; NaN raises :class:`ObservabilityError`."""
        value = float(value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-th percentile (0..100).

        The target is the order statistic of rank ``floor(q/100 *
        (count - 1))`` (0-based); the answer is the representative of
        the bucket holding it, clamped to the exact ``[min, max]``, so
        inside the grid's range it is within :data:`RELATIVE_ERROR` of
        that order statistic.
        """
        return self.quantiles(q)[0]

    def quantiles(self, *qs: float) -> tuple[float, ...]:
        """:meth:`quantile` of each of ``qs``, in the order given, from
        one sort of the bucket grid and one pass over it."""
        if not self.count:
            return (0.0,) * len(qs)
        buckets = self.buckets
        keys = sorted(buckets)
        position = 0
        cumulative = buckets[keys[0]]
        answers = [0.0] * len(qs)
        for rank, slot in sorted(
            (q / 100.0 * (self.count - 1), slot) for slot, q in enumerate(qs)
        ):
            while cumulative <= rank and position + 1 < len(keys):
                position += 1
                cumulative += buckets[keys[position]]
            answers[slot] = min(
                max(bucket_value(keys[position]), self.min), self.max
            )
        return tuple(answers)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one; counts,
        totals, extrema and buckets all combine exactly."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def summary(self) -> dict:
        """The row rendered by the ASCII reporter."""
        p50, p95 = self.quantiles(50, 95)
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "max": self.max if self.count else 0.0,
            "total": self.total,
        }

    def to_dict(self) -> dict:
        """The JSON-safe dump that registry dumps, stats replies and
        telemetry snapshots carry; :meth:`from_dict` restores it."""
        return {
            "gamma": GAMMA,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, name: str, dump: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        A dump built on another bucket grid raises
        :class:`ObservabilityError` rather than being misread.
        """
        try:
            if dump.get("gamma") != GAMMA:
                raise ValueError(
                    f"bucket grid gamma {dump.get('gamma')!r} is not"
                    f" this build's {GAMMA!r}"
                )
            hist = cls(name)
            hist.count = int(dump["count"])
            hist.total = float(dump["total"])
            if hist.count:
                hist.min = float(dump["min"])
                hist.max = float(dump["max"])
            hist.buckets = {
                int(i): int(n) for i, n in dump["buckets"].items()
            }
            if sum(hist.buckets.values()) != hist.count:
                raise ValueError(
                    f"bucket counts do not sum to count {hist.count}"
                )
            return hist
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed histogram dump for {name!r}: {exc}"
            ) from exc

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:g})"


class MetricsRegistry:
    """Named metrics, created on first touch."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- access (get-or-create) ---------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            metric = self.counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            metric = self.gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            metric = self.histograms[name] = Histogram(name)
            return metric

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {n: c.to_dict() for n, c in self.counters.items()},
            "gauges": {n: g.to_dict() for n, g in self.gauges.items()},
            "histograms": {n: h.to_dict() for n, h in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        try:
            registry = cls()
            for name, dump in data.get("counters", {}).items():
                registry.counter(name).value = float(dump["value"])
            for name, dump in data.get("gauges", {}).items():
                registry.gauge(name).set(dump["value"])
            for name, dump in data.get("histograms", {}).items():
                registry.histograms[name] = Histogram.from_dict(name, dump)
            return registry
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed metrics dump: {exc}") from exc
