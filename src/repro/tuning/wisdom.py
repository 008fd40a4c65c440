"""Wisdom-file persistence for tuned parameters and algorithm choices.

The paper saves auto-tuning results "into a wisdom file and used in
inference".  The wisdom file here is a versioned JSON document with two
namespaced sections:

* ``gemm`` -- tuned :class:`~repro.gemm.BlockingParams` keyed by
  ``numpy|TxNxCxK`` (the GEMM problem signature); entries round-trip
  exactly.
* ``algorithms`` -- measured per-geometry algorithm selections written
  by :class:`~repro.tuning.selector.AlgorithmSelector`, keyed by
  ``numpy|b{B}c{C}h{H}w{W}k{K}r{R}s{S}p{P}`` (quantized family) or
  ``numpy|fp32|b...`` (fp32 family).

Every key starts with :data:`KEY_NAMESPACE` (``"numpy"``, the runtime's
one GEMM path).  Entries under any other namespace are kept and written
back untouched but never answer a lookup.  Legacy flat files (schema 1:
an un-namespaced ``{"TxNxCxK": {...}}`` mapping) are migrated
transparently on load -- their keys land in the ``gemm`` section under
:data:`KEY_NAMESPACE`.

Durability and sharing:

* Writes go through a temporary file in the same directory followed by
  ``os.replace``, so readers only ever see a complete JSON document.
* Flushes hold an exclusive ``flock`` on a ``<name>.lock`` sidecar and
  re-merge the on-disk document first, **disk entries winning** on key
  collisions.  First-writer-wins is what makes N workers sharing one
  file *converge*: whoever persists a geometry's choice first decides
  it for everyone (:meth:`store_algorithm` returns the winning entry so
  callers adopt it).
* :meth:`refresh` is a cheap ``os.stat`` check -- server workers poll
  it before lookups and only re-read the file when another process has
  replaced it.
* A corrupt or unreadable file is warned about and treated as empty
  (tuning regenerates it) instead of raising.

``store`` flushes immediately by default; wrap a sweep in
:meth:`batch` (or call :meth:`store_many` / :meth:`lookup_or_tune_many`)
to coalesce the whole sweep into a single read-merge-write instead of
O(n^2) I/O.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # POSIX; on platforms without flock we fall back to lock-free writes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..gemm import BlockingParams
from .search import TuneResult, tune_gemm

__all__ = ["WisdomFile", "problem_key", "SCHEMA_VERSION", "KEY_NAMESPACE"]

#: Current on-disk schema.  Version 1 was the flat, un-namespaced GEMM
#: mapping; version 2 splits sections and prefixes every key with
#: :data:`KEY_NAMESPACE`.
SCHEMA_VERSION = 2

#: First segment of every wisdom key, legacy (schema 1) entries included.
KEY_NAMESPACE = "numpy"


def problem_key(t: int, n: int, c: int, k: int) -> str:
    """GEMM problem key."""
    return f"{KEY_NAMESPACE}|{t}x{n}x{c}x{k}"


def _qualify(key: str) -> str:
    """Schema-2 form of a possibly-legacy key."""
    return key if "|" in key else f"{KEY_NAMESPACE}|{key}"


def _read_doc(path: Path) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """``(gemm, algorithms)`` sections from ``path``.

    A missing, corrupt, or non-dict file is an empty wisdom file (with
    a warning for the corrupt cases -- losing tuning time silently
    would be worse than the noise).  Legacy flat documents migrate into
    the ``gemm`` section under :data:`KEY_NAMESPACE`.
    """
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return {}, {}
    try:
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    except ValueError as exc:
        warnings.warn(
            f"wisdom file {path} is corrupt ({exc}); starting fresh",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}, {}
    if isinstance(doc.get("schema"), int):
        gemm = doc.get("gemm", {})
        algorithms = doc.get("algorithms", {})
        return (
            dict(gemm) if isinstance(gemm, dict) else {},
            dict(algorithms) if isinstance(algorithms, dict) else {},
        )
    # Legacy schema 1: flat {TxNxCxK: {...}} with no namespace.
    return {_qualify(key): entry for key, entry in doc.items()}, {}


class WisdomFile:
    """Load/store tuned blocking parameters and algorithm choices.

    >>> wf = WisdomFile(path)
    >>> params = wf.lookup_or_tune(16, 14400, 512, 512)   # tunes once
    >>> params = wf.lookup_or_tune(16, 14400, 512, 512)   # cached

    Instances are thread-safe (one file may back a Server's sessions
    *and* its background tuner thread); cross-process sharing is safe
    through the flock + disk-wins merge described in the module doc.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mutex = threading.RLock()
        self._gemm, self._algorithms = _read_doc(self.path)
        self._disk_stat = self._stat()
        self._batch_depth = 0
        self._dirty = False

    # -- GEMM blocking section -------------------------------------------

    def lookup(self, t: int, n: int, c: int, k: int) -> Optional[BlockingParams]:
        with self._mutex:
            entry = self._gemm.get(problem_key(t, n, c, k))
        if entry is None:
            return None
        params = BlockingParams(**entry["params"])
        params.validate()
        return params

    def store(self, t: int, n: int, c: int, k: int, result: TuneResult) -> None:
        with self._mutex:
            self._gemm[problem_key(t, n, c, k)] = {
                "params": asdict(result.params),
                "predicted_time": result.predicted_time,
            }
            self._dirty = True
            if self._batch_depth == 0:
                self._flush()

    def store_many(self, items: Iterable[Tuple[int, int, int, int, TuneResult]]) -> None:
        """Store a whole sweep with one read-merge-write."""
        with self.batch():
            for t, n, c, k, result in items:
                self.store(t, n, c, k, result)

    def lookup_or_tune(self, t: int, n: int, c: int, k: int, **tune_kwargs) -> BlockingParams:
        cached = self.lookup(t, n, c, k)
        if cached is not None:
            return cached
        result = tune_gemm(t, n, c, k, **tune_kwargs)
        self.store(t, n, c, k, result)
        return result.params

    def lookup_or_tune_many(
        self, problems: Sequence[Tuple[int, int, int, int]], **tune_kwargs
    ) -> List[BlockingParams]:
        """Sweep :meth:`lookup_or_tune` over ``problems`` with a single
        batched flush at the end (instead of one full-file rewrite per
        newly tuned problem)."""
        with self.batch():
            return [
                self.lookup_or_tune(t, n, c, k, **tune_kwargs)
                for t, n, c, k in problems
            ]

    # -- Algorithm-choice section ----------------------------------------

    def lookup_algorithm(self, key: str) -> Optional[dict]:
        """The stored selection entry for a geometry key, if any."""
        with self._mutex:
            entry = self._algorithms.get(key)
        return dict(entry) if entry is not None else None

    def store_algorithm(self, key: str, entry: dict) -> dict:
        """Persist a selection; returns the entry that *won*.

        With a populated file on disk the first writer wins (disk-wins
        merge), so the returned entry may be another worker's earlier
        choice -- callers must adopt it to converge.  Inside a
        :meth:`batch` the merge is deferred to the final flush and the
        local entry is returned.
        """
        with self._mutex:
            self._algorithms[key] = dict(entry)
            self._dirty = True
            if self._batch_depth == 0:
                self._flush()
            return dict(self._algorithms.get(key, entry))

    def algorithm_entries(self) -> Dict[str, dict]:
        """Copy of the algorithm-choice section (telemetry / tests)."""
        with self._mutex:
            return {k: dict(v) for k, v in self._algorithms.items()}

    # -- Shared machinery -------------------------------------------------

    @contextmanager
    def batch(self):
        """Defer flushing: all stores inside the block coalesce into one
        read-merge-write on exit.  Reentrant; only the outermost block
        flushes."""
        with self._mutex:
            self._batch_depth += 1
        try:
            yield self
        finally:
            with self._mutex:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._dirty:
                    self._flush()

    def refresh(self) -> bool:
        """Adopt changes another process has flushed, if any.

        Cheap when nothing changed: a single ``os.stat`` compared
        against the signature of the last document this instance read
        or wrote.  Returns True when new entries were merged in.
        """
        with self._mutex:
            sig = self._stat()
            if sig is None or sig == self._disk_stat:
                return False
            disk_gemm, disk_algorithms = _read_doc(self.path)
            self._gemm.update(disk_gemm)
            self._algorithms.update(disk_algorithms)
            self._disk_stat = sig
            return True

    def _stat(self) -> Optional[Tuple[int, int, int]]:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_ino, st.st_size)

    @contextmanager
    def _file_lock(self):
        """Exclusive advisory lock on a ``.lock`` sidecar, making the
        read-merge-write in :meth:`_flush` atomic across processes.
        (The sidecar is deliberately never unlinked: removing a flock
        file while another process holds its own fd open reintroduces
        the race the lock exists to prevent.)"""
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(f"{self.path}.lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _flush(self) -> None:
        """Read-merge-write under the cross-process lock.

        Disk entries win on collision (first writer decides), so
        concurrent workers converge on one choice per key; entries only
        this instance holds are unioned in, so no work is ever lost.
        """
        with self._mutex:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._file_lock():
                disk_gemm, disk_algorithms = _read_doc(self.path)
                self._gemm.update(disk_gemm)
                self._algorithms.update(disk_algorithms)
                doc = {
                    "schema": SCHEMA_VERSION,
                    "gemm": self._gemm,
                    "algorithms": self._algorithms,
                }
                self._write_atomic(json.dumps(doc, indent=2, sort_keys=True))
                self._disk_stat = self._stat()
            self._dirty = False

    def _write_atomic(self, text: str) -> None:
        """Write via tempfile + ``os.replace`` so the wisdom file on
        disk is always a complete document, even across a crash."""
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        with self._mutex:
            return len(self._gemm) + len(self._algorithms)
