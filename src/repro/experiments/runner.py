"""Parallel experiment runner: deterministic seeds, cached trials.

Every figure of the evaluation is a bag of independent trials (one per
planner × budget, per variance level, per phase-1 budget factor...).
:class:`ExperimentRunner` runs such a bag through three layers:

- **Deterministic seeding.**  A root :class:`numpy.random.SeedSequence`
  is spawned once per trial (``root.spawn(len(trials))``), so trial
  ``i`` always sees the same independent stream regardless of how many
  workers execute the bag, in which order, or whether other trials were
  served from cache.
- **Content-keyed result cache.**  A trial's key is a digest of the
  trial function's qualified name, its parameters, and its spawned
  seed; re-running an experiment with identical inputs returns the
  stored row without recomputation (obs counters ``runner.cache.*``
  report hit rates).
- **Process pool.**  Cache misses are dispatched to a
  ``ProcessPoolExecutor`` when ``processes > 1``; with one process (or
  one miss) they run inline, which also keeps instrumentation usable —
  an :class:`~repro.obs.Instrumentation` cannot cross process
  boundaries, so parallel trials run without it.

Trial functions must be module-level (picklable) callables of the form
``fn(params: dict, rng: numpy.random.Generator) -> result``.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, is_dataclass, fields as dataclass_fields

import numpy as np

from repro.obs import Instrumentation
from repro.obs.spans import maybe_span


def _fingerprint(value, digest) -> None:
    """Feed a stable content digest of ``value`` into ``digest``.

    Primitives, sequences and mappings are walked structurally; numpy
    arrays hash their raw bytes; an :class:`~repro.obs.Instrumentation`
    sink hashes as its type alone; dataclasses hash their fields;
    objects exposing ``cache_token()`` delegate to it.  Everything else
    falls back to its pickle (stable for identical content within and
    across processes of the same build, which is all an experiment
    cache needs).
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        digest.update(repr(value).encode())
    elif isinstance(value, np.ndarray):
        digest.update(b"ndarray")
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(b"seq")
        for item in value:
            _fingerprint(item, digest)
    elif isinstance(value, (set, frozenset)):
        digest.update(b"set")
        for item in sorted(value, key=repr):
            _fingerprint(item, digest)
    elif isinstance(value, dict):
        digest.update(b"map")
        for key in sorted(value, key=repr):
            _fingerprint(key, digest)
            _fingerprint(value[key], digest)
    elif isinstance(value, Instrumentation):
        # a telemetry sink never changes a trial's result, and its
        # history grows with every trial: fingerprint the type alone
        digest.update(b"Instrumentation")
    elif hasattr(value, "cache_token"):
        digest.update(type(value).__qualname__.encode())
        _fingerprint(value.cache_token(), digest)
    elif is_dataclass(value) and not isinstance(value, type):
        digest.update(type(value).__qualname__.encode())
        for field in dataclass_fields(value):
            digest.update(field.name.encode())
            _fingerprint(getattr(value, field.name), digest)
    else:
        digest.update(type(value).__qualname__.encode())
        digest.update(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def content_key(fn, params: dict, seed: np.random.SeedSequence) -> str:
    """Digest identifying one trial: function + parameters + seed."""
    digest = hashlib.sha256()
    digest.update(f"{fn.__module__}.{fn.__qualname__}".encode())
    _fingerprint(params, digest)
    digest.update(str(seed.entropy).encode())
    digest.update(str(seed.spawn_key).encode())
    return digest.hexdigest()


def _call_trial(fn, params: dict, seed: np.random.SeedSequence):
    """Worker-side entry point (module-level so it pickles)."""
    return fn(params, np.random.default_rng(seed))


@dataclass
class TrialOutcome:
    """Bookkeeping for one executed or cache-served trial."""

    result: object
    cached: bool
    seconds: float


class ExperimentRunner:
    """Runs bags of independent experiment trials (see module docstring).

    Parameters
    ----------
    processes:
        Worker processes for cache-missed trials.  ``None`` or ``1``
        runs inline (deterministic order, instrumentation usable);
        larger values dispatch to a process pool.
    seed:
        Default root seed (int or ``SeedSequence``) used by
        :meth:`map` when the call does not pass its own.
    instrumentation:
        Optional observability sink; records ``runner.*`` counters and
        one ``runner.trial`` span per executed trial, whose duration
        feeds ``runner.trial_seconds`` (the trials themselves run
        without it: instrumentation cannot cross process boundaries).
    """

    def __init__(
        self,
        processes: int | None = None,
        seed=0,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.processes = 1 if processes is None else max(1, int(processes))
        self.seed = seed
        self.instrumentation = instrumentation
        self._cache: dict[str, object] = {}

    # -- cache ----------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- execution ------------------------------------------------------
    def _spawn(self, seed, count: int) -> list[np.random.SeedSequence]:
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        return root.spawn(count)

    def map(self, fn, param_list, *, seed=None) -> list:
        """Run ``fn(params, rng)`` for every params dict, in order.

        Results come back positionally aligned with ``param_list``.
        Identical trials (same function, parameters and root seed) are
        served from the content-keyed cache.
        """
        params_seq = list(param_list)
        if not params_seq:
            return []
        seeds = self._spawn(self.seed if seed is None else seed, len(params_seq))
        keys = [
            content_key(fn, params, child)
            for params, child in zip(params_seq, seeds)
        ]
        results: list = [None] * len(params_seq)
        misses: list[int] = []
        for index, key in enumerate(keys):
            if key in self._cache:
                results[index] = self._cache[key]
                if self.instrumentation is not None:
                    self.instrumentation.record_runner_trial()
            else:
                misses.append(index)

        if misses:
            if self.processes > 1 and len(misses) > 1:
                workers = min(self.processes, len(misses))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(_call_trial, fn, params_seq[i], seeds[i])
                        for i in misses
                    ]
                    for index, future in zip(misses, futures):
                        with maybe_span(
                            self.instrumentation, "runner.trial"
                        ) as span:
                            results[index] = future.result()
                        self._record_miss(span)
            else:
                for index in misses:
                    with maybe_span(
                        self.instrumentation, "runner.trial"
                    ) as span:
                        results[index] = _call_trial(
                            fn, params_seq[index], seeds[index]
                        )
                    self._record_miss(span)
            for index in misses:
                self._cache[keys[index]] = results[index]
        return results

    def _record_miss(self, span) -> None:
        if self.instrumentation is not None:
            self.instrumentation.record_runner_trial(span)


def run_trials(fn, param_list, *, seed=0, processes: int | None = None) -> list:
    """One-shot convenience wrapper around :class:`ExperimentRunner`."""
    return ExperimentRunner(processes=processes, seed=seed).map(
        fn, param_list, seed=seed
    )
