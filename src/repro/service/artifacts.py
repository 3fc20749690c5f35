"""Cross-process compiled-artifact store (mmap-backed directory).

The :class:`~repro.service.cache.SharedPlanCache` makes equal-content
tenants *within one process* pay one LP compile.  A sharded deployment
runs many processes, and a cold worker would recompile every form its
siblings already built — so the shared cache optionally spills each
compiled :class:`~repro.lp.fastbuild.ParametricForm` to a directory
keyed by the same content key, and a cold process **loads arrays
instead of recompiling**.

Layout: one subdirectory per content key (the key's SHA-256 digest)
holding ``meta.json`` plus one ``.npy`` file per array.  The heavy
constraint matrices are loaded with ``np.load(..., mmap_mode="r")`` so
N workers on one box share page-cache pages instead of N private
copies; the small RHS/objective vectors are materialized because
solver paths patch copies of them.

Writes are atomic (write to a temp directory, ``os.replace`` into
place), so concurrent workers racing on a cold key cannot expose a
half-written entry — the loser of the race just discards its copy.
Every failure path degrades to "cache miss": a corrupt, foreign, or
unparseable entry is ignored and the caller compiles as it would have
without the store.

Only forms whose parametric RHS slot is affine with unit slope
(``rhs_intercept`` set — both bandwidth formulations) are spilled;
reconstruction is then bitwise-exact, which keeps the sharded service
byte-identical to the single-process one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.lp.fastbuild import CompiledLP, ParametricForm
from repro.lp.standard_form import StandardForm

_FORMAT_VERSION = 1

_VECTORS = ("c", "b_ub", "b_eq", "bounds_lo", "bounds_hi")
_MATRIX_PARTS = ("data", "indices", "indptr")


def key_digest(key) -> str:
    """Stable filesystem name for one content key.

    Keys are nested tuples of strings/ints/floats (see
    :meth:`~repro.service.cache.SharedPlanCache.key_for`), whose
    ``repr`` is deterministic across processes and Python runs.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]


class ArtifactStore:
    """Directory of compiled parametric forms, shared across processes.

    Parameters
    ----------
    root:
        Directory to spill into (created on first use).
    max_entries:
        Soft bound on retained entries; the oldest (by mtime) are
        pruned when a save pushes past it.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; outcomes land
        under ``service.artifacts.{saves,disk_hits,disk_misses,errors}``.
    """

    def __init__(
        self,
        root,
        *,
        max_entries: int = 128,
        instrumentation=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("artifact store needs max_entries >= 1")
        self.root = Path(root)
        self.max_entries = max_entries
        self.instrumentation = instrumentation
        self.saves = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.errors = 0

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if self.instrumentation is not None:
            self.instrumentation.counter(
                f"service.artifacts.{outcome}"
            ).inc()

    def path_for(self, key) -> Path:
        return self.root / key_digest(key)

    # -- save -----------------------------------------------------------
    def save(self, key, parametric: ParametricForm) -> bool:
        """Best-effort spill; True when the entry is (now) on disk.

        Forms without an affine RHS slot are skipped (their closure
        cannot be reconstructed exactly), as is any entry that already
        exists.
        """
        if parametric.rhs_intercept is None:
            return False
        final = self.path_for(key)
        if final.exists():
            return True
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(prefix=f".tmp-{final.name}-", dir=self.root)
            )
            try:
                self._write_entry(tmp, key, parametric)
                os.replace(tmp, final)
            except OSError:
                # lost the race (target exists, non-empty) or disk error
                shutil.rmtree(tmp, ignore_errors=True)
                if not final.exists():
                    raise
        except (OSError, ValueError):
            self._count("errors")
            return False
        self._count("saves")
        self._prune()
        return True

    def _write_entry(self, into: Path, key, parametric) -> None:
        form = parametric.form
        compiled = parametric.compiled
        bounds_lo = np.array(
            [-np.inf if lo is None else lo for lo, __ in form.bounds]
        )
        bounds_hi = np.array(
            [np.inf if hi is None else hi for __, hi in form.bounds]
        )
        vectors = {
            "c": np.asarray(form.c, dtype=float),
            "b_ub": np.asarray(form.b_ub, dtype=float),
            "b_eq": np.asarray(form.b_eq, dtype=float),
            "bounds_lo": bounds_lo,
            "bounds_hi": bounds_hi,
        }
        for name, array in vectors.items():
            np.save(into / f"{name}.npy", array, allow_pickle=False)
        for prefix, matrix in (("ub", form.a_ub), ("eq", form.a_eq)):
            csr = sparse.csr_matrix(matrix)
            for part in _MATRIX_PARTS:
                np.save(
                    into / f"{prefix}_{part}.npy",
                    np.ascontiguousarray(getattr(csr, part)),
                    allow_pickle=False,
                )
        meta = {
            "version": _FORMAT_VERSION,
            "key_repr": repr(key),
            "name": compiled.name,
            "column_names": list(compiled.column_names),
            "primary_columns": [
                [int(k), int(v)] for k, v in compiled.primary_columns.items()
            ],
            "row": int(parametric.row),
            "rhs_intercept": float(parametric.rhs_intercept),
            "objective_constant": float(form.objective_constant),
            "maximize": bool(form.maximize),
            "ub_shape": [int(s) for s in form.a_ub.shape],
            "eq_shape": [int(s) for s in form.a_eq.shape],
        }
        (into / "meta.json").write_text(json.dumps(meta))

    # -- load -----------------------------------------------------------
    def load(self, key) -> ParametricForm | None:
        """The stored form for ``key``, or ``None`` (counted) if absent
        or unreadable.  Matrix payloads come back memory-mapped."""
        entry = self.path_for(key)
        try:
            meta = json.loads((entry / "meta.json").read_text())
            if (
                meta.get("version") != _FORMAT_VERSION
                or meta.get("key_repr") != repr(key)
            ):
                self._count("disk_misses")
                return None
            parametric = self._read_entry(entry, meta)
        except (OSError, ValueError, KeyError):
            self._count("disk_misses")
            return None
        self._count("disk_hits")
        return parametric

    def _read_entry(self, entry: Path, meta: dict) -> ParametricForm:
        vectors = {
            name: np.array(
                np.load(entry / f"{name}.npy", allow_pickle=False)
            )
            for name in _VECTORS
        }
        matrices = {}
        for prefix in ("ub", "eq"):
            data, indices, indptr = (
                np.load(
                    entry / f"{prefix}_{part}.npy",
                    mmap_mode="r",
                    allow_pickle=False,
                )
                for part in _MATRIX_PARTS
            )
            # build empty, then attach the arrays: the (data, indices,
            # indptr) constructor copies, which would defeat the mmap
            matrix = sparse.csr_matrix(tuple(meta[f"{prefix}_shape"]))
            matrix.data, matrix.indices, matrix.indptr = (
                data, indices, indptr,
            )
            matrices[prefix] = matrix
        bounds = [
            (
                None if lo == -np.inf else float(lo),
                None if hi == np.inf else float(hi),
            )
            for lo, hi in zip(vectors["bounds_lo"], vectors["bounds_hi"])
        ]
        form = StandardForm(
            c=vectors["c"],
            a_ub=matrices["ub"],
            b_ub=vectors["b_ub"],
            a_eq=matrices["eq"],
            b_eq=vectors["b_eq"],
            bounds=bounds,
            objective_constant=meta["objective_constant"],
            maximize=meta["maximize"],
        )
        compiled = CompiledLP(
            name=meta["name"],
            form=form,
            column_names=list(meta["column_names"]),
            primary_columns={
                int(k): int(v) for k, v in meta["primary_columns"]
            },
        )
        intercept = float(meta["rhs_intercept"])
        return ParametricForm(
            compiled=compiled,
            row=int(meta["row"]),
            rhs_of=lambda budget, __i=intercept: budget + __i,
            rhs_intercept=intercept,
        )

    # -- maintenance ----------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith(".tmp-")
        ]

    def _prune(self) -> None:
        entries = self._entries()
        if len(entries) <= self.max_entries:
            return
        entries.sort(key=lambda p: p.stat().st_mtime)
        for stale in entries[: len(entries) - self.max_entries]:
            shutil.rmtree(stale, ignore_errors=True)

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "saves": self.saves,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "errors": self.errors,
        }
