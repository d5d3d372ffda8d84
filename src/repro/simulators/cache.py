"""Persistent, content-addressed result cache backing the execution engine.

QuTracer-style sweeps (qspc / tracer / pcs / jigsaw / sqem) resubmit the same
subset circuits across *processes and sessions*, not just within one batch:
a benchmark re-run, a parameter sweep restarted after a crash, or a fleet of
worker processes all simulate largely identical circuit populations.  The
in-memory LRU inside :class:`~repro.simulators.engine.ExecutionEngine`
evaporates at interpreter exit; this module adds the durable layer under it.

Design (following content-addressed shared-storage archives: results are
immutable blobs addressed by a fingerprint of everything that determined
them):

* **Content addressing.**  The cache key is the engine's cache-key tuple —
  circuit fingerprint, noise fingerprint, method, shots, derived seed,
  trajectory budget, kernel backend — which already names *content*, never
  object identity.  The key tuple is canonicalised to bytes and hashed; the
  digest is the file name.  Two processes that build equivalent circuits and
  noise models therefore share cache entries with no coordination.
* **Versioned file format.**  Entries live under ``<cache_dir>/vN/`` and
  every file starts with a magic header recording the format version.  A
  format bump changes both, so old trees are simply ignored — never
  misparsed.
* **Atomic writes.**  Entries are written to a temporary file in the target
  directory and published with :func:`os.replace`, so a reader never
  observes a half-written entry even with concurrent writers (the POSIX
  rename is atomic; last writer wins, and both writers wrote the same
  content anyway — the key addresses it).
* **Corruption tolerance.**  Every entry carries a SHA-256 checksum of its
  pickled payload, verified before unpickling — a flipped byte that would
  still unpickle cleanly (bit rot inside a float) is caught, not served.  A
  read that fails for *any* reason (truncated file, wrong magic, checksum
  mismatch, unpicklable payload, stale class layout) is treated as a miss
  and the offending file is **quarantined** — moved to
  ``<cache_dir>/quarantine/`` and counted in :attr:`corrupt_entries` — so a
  fault post-mortem can inspect the bad bytes.  A corrupt cache can cost a
  recomputation, never an exception or a wrong result.
* **I/O degradation ladder.**  After several *consecutive* write failures
  (disk full, tree gone read-only) the cache disables itself for the rest
  of the session — the persistent → memory-only ladder — instead of
  paying an OSError per put forever.  The decision is logged and visible
  via :meth:`stats`.
* **LRU size cap.**  Each hit refreshes the entry's mtime; when the tree
  exceeds ``max_bytes`` after a write, the oldest-mtime entries are evicted
  until the tree is back under the cap.

The payloads are pickled Python objects (``ExecutionResult`` or the
engine's ``(distribution, measured_qubits)`` density-matrix state entries).
The cache directory is trusted local storage — the same trust boundary as
the repository checkout itself.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from typing import Any, Iterator

__all__ = ["PersistentResultCache", "CACHE_FORMAT_VERSION", "canonical_key_bytes"]

logger = logging.getLogger(__name__)

# v2: the engine's result-cache key grew a trailing device-fingerprint
# component (hardware-aware compilation), and compiled-circuit artifacts
# ("compiled", ...) share the store — v1 trees are invisible, not misread.
# v3: circuit fingerprints stopped hashing standard-gate matrices (the
# (name, params) pair already determines them) and the engine key gained the
# resolved-method backend tag, so v2 entries are addressed differently —
# again invisible, not misread.
# v4: the entry header grew a payload checksum.  Truncation and foreign
# bytes already failed the magic/unpickle checks, but a flipped byte INSIDE
# a pickled float unpickles cleanly into silently wrong numbers — the
# checksum turns that into a quarantine + recompute like every other
# corruption.
# v5: non-depolarizing noise channels apply to density matrices as one
# superoperator contraction instead of a per-Kraus-operator sum, which moves
# exact distributions in the last bits; v4 entries must not be served next
# to fresh results of the same key.
# v6: sampled results draw their readout flips from a seed-keyed generator
# of their own (so one readout-free run serves every readout model, under
# "traj-state" lines) — seeded sampled results with readout error changed.
# v7: the engine stopped keying fusion settings.  The result key's execution
# slot holds the bare kernel backend for trajectory and statevector results
# (it held ``(fusion, width, backend)`` and ``(backend,)``), and "traj-state"
# keys inherit it; v6 entries of those results would never be hit again, so
# the new tree leaves them behind instead of carrying them.
CACHE_FORMAT_VERSION = 7

# Every entry file starts with this line; a reader that does not find it
# (old format, foreign file, truncation that ate the header) discards the
# file instead of attempting to unpickle garbage.
_MAGIC = b"repro-result-cache:v%d\n" % CACHE_FORMAT_VERSION

# SHA-256 of the pickled payload, stored between the magic line and the
# payload and verified before unpickling.
_CHECKSUM_BYTES = 32

# Default size cap: generous for result distributions (a few KB each) while
# still bounded — ~100k typical entries.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

# Consecutive put() failures tolerated before the cache degrades itself to
# memory-only for the rest of the session.  A transient hiccup (one full
# fsync, a racing cleanup) recovers on the next successful write; a dead
# filesystem stops costing an exception per put.
MAX_CONSECUTIVE_WRITE_FAILURES = 5



def canonical_key_bytes(key: tuple) -> bytes:
    """Deterministic byte encoding of an engine cache-key tuple.

    Keys are built from primitives (``str``/``int``/``bool``/``None`` and
    nested tuples of those), whose ``repr`` is stable across processes and
    Python builds — unlike ``hash()``, which is salted per process.
    """
    return repr(key).encode()


class PersistentResultCache:
    """On-disk LRU cache mapping engine cache keys to pickled results.

    Parameters
    ----------
    cache_dir:
        Root directory of the cache.  Created on demand; entries are stored
        under a version subdirectory, ``<cache_dir>/v<N>/`` with ``N`` the
        :data:`CACHE_FORMAT_VERSION`, fanned out by the first byte of the
        key digest.
    max_bytes:
        Size cap for the entry tree.  When exceeded, least-recently-used
        entries (by mtime — refreshed on every hit) are evicted.
        ``None`` disables eviction.
    """

    def __init__(self, cache_dir: str | os.PathLike, max_bytes: int | None = DEFAULT_MAX_BYTES) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = os.path.join(os.fspath(cache_dir), f"v{CACHE_FORMAT_VERSION}")
        self.quarantine_dir = os.path.join(os.fspath(cache_dir), "quarantine")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0
        # Entries that failed integrity checks on read and were moved to
        # ``quarantine/`` for post-mortem inspection.
        self.corrupt_entries = 0
        # True once repeated write failures degraded the cache to
        # memory-only (get/put become no-ops for the rest of the session).
        self.disabled = False
        self._consecutive_write_failures = 0
        # Running size estimate: measured from disk lazily, bumped per put,
        # re-measured after each eviction.  Scanning the tree on every put
        # would make writes O(entries); the estimate keeps the cap enforced
        # per put while only scanning when it is actually crossed.  (It can
        # undercount concurrent writers; their own estimates cover them.)
        self._approx_bytes: int | None = None
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def _path(self, key: tuple) -> str:
        digest = hashlib.sha256(canonical_key_bytes(key)).hexdigest()
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    def get(self, key: tuple) -> Any:
        """Return the cached value, or ``None`` on miss/corruption.

        A hit refreshes the entry's mtime (the LRU clock).  Any failure —
        missing file, bad magic, truncated or unpicklable payload — counts
        as a miss and quarantines the file for post-mortem inspection.
        """
        if self.disabled:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                if handle.read(len(_MAGIC)) != _MAGIC:
                    raise ValueError("bad cache entry header")
                digest = handle.read(_CHECKSUM_BYTES)
                body = handle.read()
                # Verify before unpickling: a flipped byte inside a pickled
                # float can unpickle cleanly into wrong numbers, and serving
                # those would break the bit-identity contract.
                if hashlib.sha256(body).digest() != digest:
                    raise ValueError("cache entry checksum mismatch")
                value = pickle.loads(body)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt / foreign / stale-format entry: move it aside so the
            # slot heals itself on the next put and the bad bytes survive
            # for a post-mortem.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return value

    def put(self, key: tuple, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic publish; last writer wins).

        Write failures (disk full, tree gone read-only) are swallowed and
        counted in :attr:`write_errors`: the caller's simulation already
        succeeded, and an unusable cache must only cost recomputation —
        the same contract corrupt reads honour.  After
        ``MAX_CONSECUTIVE_WRITE_FAILURES`` failures in a row the cache
        degrades itself to memory-only for the rest of the session.
        """
        if self.disabled:
            return
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        payload = _MAGIC + hashlib.sha256(body).digest() + body
        path = self._path(key)
        directory = os.path.dirname(path)
        temp_path = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            # Overwrites replace an existing entry: its size must come off
            # the running estimate or repeated puts of one key inflate
            # _approx_bytes and drive premature eviction.
            replaced_bytes = 0
            if self.max_bytes is not None:
                try:
                    replaced_bytes = os.stat(path).st_size
                except OSError:
                    replaced_bytes = 0
            os.replace(temp_path, path)
        except OSError:
            if temp_path is not None:
                self._remove(temp_path)
            self.write_errors += 1
            self._consecutive_write_failures += 1
            if self._consecutive_write_failures >= MAX_CONSECUTIVE_WRITE_FAILURES:
                self.disabled = True
                logger.warning(
                    "PersistentResultCache disabling itself after %d consecutive "
                    "write failures; continuing memory-only",
                    self._consecutive_write_failures,
                )
            return
        except BaseException:
            if temp_path is not None:
                self._remove(temp_path)
            raise
        self._consecutive_write_failures = 0
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(payload) - replaced_bytes
            if self._approx_bytes > self.max_bytes:
                self._evict()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for tests and fault post-mortems.

        ``approx_bytes`` is the eviction bookkeeping's running estimate of
        the tree size — 0 until the first size-capped write forces a scan
        (an unprompted ``total_bytes()`` walk here would scan the directory
        on every call).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "write_errors": self.write_errors,
            "corrupt_entries": self.corrupt_entries,
            "disabled": self.disabled,
            "approx_bytes": self._approx_bytes or 0,
        }

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry to ``quarantine/`` instead of deleting it."""
        self.corrupt_entries += 1
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(path, os.path.join(self.quarantine_dir, os.path.basename(path)))
            logger.warning(
                "PersistentResultCache quarantined corrupt entry %s",
                os.path.basename(path),
            )
        except OSError:
            # Quarantine tree unwritable or the entry raced away: removal
            # still restores the self-healing contract.
            self._remove(path)

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self._entries())

    def clear(self) -> None:
        for path, _, _ in list(self._entries()):
            self._remove(path)
        self._reap_temp_files(min_age_seconds=0.0)
        self._approx_bytes = 0

    def _entries(self) -> Iterator[tuple[str, float, int]]:
        """Yield ``(path, mtime, size)`` for every entry file."""
        try:
            shards = os.listdir(self.root)
        except FileNotFoundError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except (NotADirectoryError, FileNotFoundError):
                continue
            for name in names:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                yield path, stat.st_mtime, stat.st_size

    def _reap_temp_files(self, min_age_seconds: float = 300.0) -> None:
        """Remove ``.tmp`` files orphaned by interrupted writers.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves a
        ``.tmp`` file that no read or eviction would otherwise touch; left
        alone, crashes would accumulate untracked disk usage forever.  The
        age floor avoids racing a live writer (whose temp file is seconds
        old); a reaped live write simply loses that one put, which the
        write-failure contract already allows.
        """
        import time

        cutoff = time.time() - min_age_seconds
        try:
            shards = os.listdir(self.root)
        except FileNotFoundError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except (NotADirectoryError, FileNotFoundError):
                continue
            for name in names:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        self._remove(path)
                except OSError:
                    continue

    def _evict(self) -> None:
        """Delete oldest-mtime entries until the tree fits ``max_bytes``."""
        if self.max_bytes is None:
            return
        self._reap_temp_files()
        entries = sorted(self._entries(), key=lambda item: item[1])
        total = sum(size for _, _, size in entries)
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            self._remove(path)
            total -= size
            self.evictions += 1
        self._approx_bytes = total

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
