"""Cross-session compiled-plan caches, keyed by content fingerprint.

Per-planner caches (:class:`~repro.lp.fastbuild.ReplanCache`, the
parametric forms held by ``plan_for_budgets``) only help within one
engine.  A multi-tenant service wants more: two sessions watching the
same topology with the same ``k`` and cost model compile the *same*
LP, so the service promotes both cache levels to one shared pool:

- one :class:`~repro.lp.fastbuild.ReplanCache` shared by every
  session's planner (the sample-independent constraint blocks);
- this module's :class:`SharedPlanCache` of fully-compiled
  :class:`~repro.lp.fastbuild.ParametricForm` objects, keyed by
  ``(formulation, topology content token, k, cost fingerprint,
  sample-window digest)``.

A hit means *zero* compile work — the budget RHS is patched into a
copy of the cached arrays (``form_for``), which is why the service
test can assert exactly one ``fastbuild.compile`` span across two
sessions on the same topology.  Counters land under
``service.cache.*`` when an :class:`~repro.obs.Instrumentation` is
attached.

Planners reach this pool through their ``form_cache`` hook (set via
:class:`~repro.planners.base.PlannerConfig`); the pool itself is
thread-safe and LRU-bounded, like the :class:`ReplanCache` it wraps.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.lp.fastbuild import ParametricForm, ReplanCache, _cost_fingerprint


def array_digest(values, *, extra: str = "") -> str:
    """A content hash of one numpy array (shape + raw bytes).

    The shared plan cache keys sample windows with it (via
    :func:`samples_digest`); ``extra`` folds in whatever else the key
    depends on.
    """
    values = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(values.shape).encode())
    digest.update(extra.encode())
    digest.update(values.tobytes())
    return digest.hexdigest()[:16]


def samples_digest(samples) -> str:
    """A content hash of a sample matrix (values, shape, and k).

    The compiled LP depends on the window's exact values (PROOF) or at
    least its top-k mask (LP±LF); hashing the value array covers both
    and makes the key safe for any formulation.
    """
    values = np.ascontiguousarray(
        getattr(samples, "values", samples), dtype=np.float64
    )
    return array_digest(values, extra=str(getattr(samples, "k", "")))


class SharedPlanCache:
    """Bounded LRU pool of compiled parametric LPs, shared by sessions.

    Parameters
    ----------
    capacity:
        Maximum retained :class:`ParametricForm` entries; least
        recently used beyond that are evicted (counted).
    replan_capacity:
        Capacity of the shared :class:`ReplanCache` handed to every
        planner built against this pool.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; hit/miss/eviction
        counters are mirrored to ``service.cache.{hits,misses,evictions}``.
    artifacts:
        Optional :class:`~repro.service.artifacts.ArtifactStore`; a
        memory miss consults it before compiling (a cold *process*
        loads mmap-backed arrays a sibling already built), and fresh
        compiles spill into it best-effort.
    """

    def __init__(
        self,
        capacity: int = 32,
        replan_capacity: int = 16,
        instrumentation=None,
        artifacts=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("shared plan cache capacity must be >= 1")
        self.capacity = capacity
        self.replan_cache = ReplanCache(capacity=replan_capacity)
        self.instrumentation = instrumentation
        self.artifacts = artifacts
        self._entries: "OrderedDict[tuple, ParametricForm]" = OrderedDict()
        self._solutions: "OrderedDict[tuple, list]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.sweep_hits = 0
        self.sweep_misses = 0

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if self.instrumentation is not None:
            self.instrumentation.counter(f"service.cache.{outcome}").inc()

    def key_for(self, formulation: str, context) -> tuple:
        """The content fingerprint of one compile request."""
        return (
            formulation,
            context.topology.cache_token(),
            context.k,
            _cost_fingerprint(context),
            samples_digest(context.samples),
        )

    def parametric(
        self, formulation: str, context, compile_fn
    ) -> ParametricForm:
        """The pooled compiled form for ``context``; compiles at most
        once per content key.

        The lock is held across ``compile_fn`` so concurrent sessions
        racing on a cold key block behind one compile instead of
        duplicating it — exactly-once is the property the shared pool
        exists to provide (and what the one-compile-span test pins).
        """
        key = self.key_for(formulation, context)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._count("hits")
                return entry
            self._count("misses")
            entry = None
            if self.artifacts is not None:
                entry = self.artifacts.load(key)
            if entry is None:
                entry = compile_fn()
                if self.artifacts is not None:
                    self.artifacts.save(key, entry)
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._count("evictions")
            self._entries[key] = entry
            return entry

    def sweep_solutions(
        self, formulation: str, context, parametric, rhs_values, backend
    ) -> list:
        """Pooled solutions for one budget ladder; solves at most once
        per ``(content key, backend, ladder)``.

        The cache level above :meth:`parametric`: equal-content tenants
        sweeping the same budgets share one ``solve_batch`` call, whose
        solutions a repeat call would reproduce exactly (a given form
        and ladder always solves the same way).  Like
        :meth:`parametric`, the lock is held across the solve so racing
        sessions block behind one batch instead of duplicating it.
        Entries share the plan-cache LRU capacity and counters land
        under ``service.cache.sweep_{hits,misses}``.
        """
        rhs = np.atleast_1d(np.asarray(rhs_values, dtype=float))
        key = (
            self.key_for(formulation, context),
            backend.name,
            hashlib.sha256(rhs.tobytes()).hexdigest()[:16],
        )
        with self._lock:
            entry = self._solutions.get(key)
            if entry is not None:
                self._solutions.move_to_end(key)
                self._count("sweep_hits")
                return list(entry)
            self._count("sweep_misses")
            entry = backend.solve_batch(parametric, rhs)
            while len(self._solutions) >= self.capacity:
                self._solutions.popitem(last=False)
                self._count("evictions")
            self._solutions[key] = entry
            return list(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __getstate__(self) -> dict:
        # like ReplanCache: warmth, lock, and the (possibly
        # unpicklable) instrumentation are process-local
        return {
            "capacity": self.capacity,
            "replan_capacity": self.replan_cache.capacity,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            capacity=state["capacity"],
            replan_capacity=state["replan_capacity"],
        )

    def stats(self) -> dict:
        """Counter snapshot (the ``service.cache.*`` numbers)."""
        with self._lock:
            snapshot = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "sweep_entries": len(self._solutions),
                "sweep_hits": self.sweep_hits,
                "sweep_misses": self.sweep_misses,
                "replan_hits": self.replan_cache.hits,
                "replan_misses": self.replan_cache.misses,
                "replan_evictions": self.replan_cache.evictions,
            }
            if self.artifacts is not None:
                snapshot["artifacts"] = self.artifacts.stats()
            return snapshot
