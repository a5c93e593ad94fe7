"""Content-addressed result cache for inference outcomes.

Verdicts are keyed by :func:`repro.dependencies.canonical.query_fingerprint`,
so alpha-renamed and reordered queries share one entry. Entries store the
outcome as its JSON payload (:func:`repro.io.json_codec.outcome_to_json`),
which keeps them cheap to persist and — more importantly — keeps cached
PROVED traces and DISPROVED counterexamples *independently checkable*: a
hit decodes to a full :class:`~repro.chase.implication.InferenceOutcome`
whose certificates replay exactly like freshly computed ones.

Caching policy by status:

* **PROVED / DISPROVED** — final answers; reusable under any budget.
  The service always records traces, so a PROVED entry always carries
  a replayable proof.
* **UNKNOWN** — only means "not decided *within this budget*", so the
  entry remembers the budgets its chases ran under and is served only
  to requests one of them covers; a bigger budget is a miss and
  retries (resuming the suspended chase stored beside the entry, when
  there is one). Re-recording an UNKNOWN never discards knowledge: a
  narrower recording *merges* into the existing entry's budget
  antichain instead of overwriting it, so a broad UNKNOWN survives
  narrow re-records and identical queries keep hitting, and the entry
  never claims a budget no chase ran.

Lines written before the cache dropped its per-variant budgets
(``"variants"`` / ``"variant_budgets"``) still load: an UNKNOWN keeps
only the budgets its ``standard`` arm ran under, and compaction
rewrites such lines in the current shape. Lines a service wrote with
tracing off (``"traced": false``) are skipped on load and dropped by
compaction: each is a proof without a certificate, or a checkpoint with
no trace prefix to replay.

The in-memory tier is a bounded LRU. An optional on-disk tier
(:class:`JsonLinesStore`, append-only JSON lines) makes verdicts survive
the process: later lines win on reload, so re-running an UNKNOWN with a
bigger budget simply appends the better entry.
"""

from __future__ import annotations

import contextlib
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

import json

try:  # POSIX advisory locking; absent on some platforms (Windows).
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

from repro import faults
from repro.chase.budget import Budget
from repro.chase.implication import InferenceOutcome, InferenceStatus
from repro.obs.metrics import MetricsRegistry
from repro.service.instruments import ServiceInstruments
from repro.io.json_codec import (
    CodecError,
    Json,
    budget_from_json,
    budget_to_json,
    outcome_from_json,
    outcome_to_json,
    slim_unknown_outcome,
)


def budget_covers(cached: Budget, requested: Budget) -> bool:
    """Does work done under ``cached`` subsume a request under ``requested``?

    True when every axis of ``cached`` is at least as generous as the
    corresponding axis of ``requested`` (``None`` = unlimited). An UNKNOWN
    computed under a covering budget cannot be improved by the request, so
    it is safe to serve from cache.
    """
    axes = (
        (cached.max_steps, requested.max_steps),
        (cached.max_rows, requested.max_rows),
        (cached.max_seconds, requested.max_seconds),
    )
    for have, want in axes:
        if have is None:
            continue
        if want is None or want > have:
            return False
    return True


def budget_join(first: Budget, second: Budget) -> Budget:
    """The axis-wise most generous of two budgets (``None`` = unlimited).

    The join covers both inputs; UNKNOWN entries use it as their
    summary budget (the budget antichain is what staleness reads).
    """

    def join(a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None or b is None:
            return None
        return max(a, b)

    steps = join(first.max_steps, second.max_steps)
    rows = join(first.max_rows, second.max_rows)
    return Budget(
        max_steps=None if steps is None else int(steps),
        max_rows=None if rows is None else int(rows),
        max_seconds=join(first.max_seconds, second.max_seconds),
    )


def budget_meet(first: Budget, second: Budget) -> Budget:
    """The axis-wise *least* generous of two budgets (``None`` loses).

    Both inputs cover the meet, so clamping a request against a ceiling
    (``budget_meet(requested, ceiling)``) can only narrow it — the HTTP
    server uses this to keep client-supplied budgets inside its own.
    """

    def meet(a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    steps = meet(first.max_steps, second.max_steps)
    rows = meet(first.max_rows, second.max_rows)
    return Budget(
        max_steps=None if steps is None else int(steps),
        max_rows=None if rows is None else int(rows),
        max_seconds=meet(first.max_seconds, second.max_seconds),
    )


@dataclass
class CacheEntry:
    """One cached verdict: fingerprint, status, budget and outcome payload."""

    fingerprint: str
    status: InferenceStatus
    budget: Budget
    payload: Json
    #: UNKNOWN only: the budgets the chases actually ran under — the
    #: *antichain* of mutually incomparable budgets tried (dominated
    #: ones are pruned on merge). Staleness is judged against these —
    #: never against a synthesized combination no chase ran — and
    #: keeping every maximal recording means clients with incomparable
    #: budgets (more steps vs more seconds) all hit instead of
    #: alternately re-chasing.
    budgets: tuple[Budget, ...] = ()
    #: Suspended-chase checkpoint (encoded,
    #: :func:`repro.io.json_codec.checkpoint_to_json`) for UNKNOWN
    #: entries only. Lives *outside* ``payload`` so it survives
    #: :func:`~repro.io.json_codec.slim_unknown_outcome`; a later
    #: covering-budget retry resumes from it instead of re-chasing
    #: from row zero.
    checkpoint: Optional[Json] = field(default=None, repr=False)
    #: Decoded-outcome memo (seeded with the live object on ``record``),
    #: so repeated hits don't re-decode. Treat the outcome as read-only.
    decoded: Optional[InferenceOutcome] = field(
        default=None, repr=False, compare=False
    )

    def outcome(self) -> InferenceOutcome:
        """The stored outcome (certificates included), decoded at most once."""
        if self.decoded is None:
            self.decoded = outcome_from_json(self.payload)
        return self.decoded

    def to_json(self) -> Json:
        """The entry as one JSON-lines record."""
        record: dict = {
            "fingerprint": self.fingerprint,
            "status": self.status.value,
            "budget": budget_to_json(self.budget),
            "outcome": self.payload,
        }
        if self.status is InferenceStatus.UNKNOWN:
            record["budgets"] = [budget_to_json(each) for each in self.budgets]
            if self.checkpoint is not None:
                record["checkpoint"] = self.checkpoint
        return record

    @staticmethod
    def from_json(payload: Json) -> "CacheEntry":
        """Decode one JSON-lines record; :class:`CodecError` on anything malformed."""
        if not isinstance(payload, dict) or "fingerprint" not in payload:
            raise CodecError(f"bad cache entry payload {payload!r}")
        try:
            budget = budget_from_json(payload["budget"])
            return CacheEntry(
                fingerprint=payload["fingerprint"],
                status=InferenceStatus(payload["status"]),
                budget=budget,
                payload=payload["outcome"],
                budgets=_budgets_from_json(payload, budget),
                checkpoint=payload.get("checkpoint"),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as error:
            raise CodecError(f"bad cache entry payload: {error}") from error


def _budgets_from_json(payload: dict, budget: Budget) -> tuple[Budget, ...]:
    """An entry line's budget antichain, older line shapes included.

    Lines from before the per-variant budgets were dropped carry
    ``"variant_budgets"`` (variant -> budgets) or, older still, only
    ``"variants"`` ran uniformly under ``"budget"``. The one chase the
    service runs now is the former ``standard`` variant, so only its
    budgets carry over; an entry whose ``standard`` arm never ran keeps
    none and is stale for every request (its checkpoint still resumes).
    """
    if "budgets" in payload:
        listed = payload["budgets"]
    elif isinstance(payload.get("variant_budgets"), dict):
        listed = payload["variant_budgets"].get("standard", ())
    elif "standard" in payload.get("variants", ("standard",)):
        return (budget,)
    else:
        return ()
    return tuple(budget_from_json(each) for each in listed)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    stale: int = 0
    evictions: int = 0
    #: LRU evictions incurred while replaying the disk store into memory.
    #: Kept apart from ``evictions`` so lifetime serving stats start at
    #: zero instead of inheriting load-time churn.
    load_evictions: int = 0

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"stale_unknown={self.stale} evictions={self.evictions} "
            f"load_evictions={self.load_evictions}"
        )


def _checkpoint_steps(checkpoint: Optional[Json]) -> int:
    """Chase steps a stored checkpoint has behind it.

    -1 when absent, so a stored checkpoint always beats none.
    """
    if not isinstance(checkpoint, dict):
        return -1
    steps = checkpoint.get("steps", 0)
    return int(steps) if isinstance(steps, (int, float)) else 0


def merge_unknown_entries(
    existing: CacheEntry, entry: CacheEntry
) -> Optional[CacheEntry]:
    """Combine two UNKNOWN recordings for one fingerprint.

    Returns None when ``entry`` adds nothing (every budget it ran under
    is covered by one already held); otherwise an entry whose budget
    antichain accumulates both recordings, so knowledge is never
    overwritten by whichever caller recorded last. Each kept budget is
    one a chase really ran under: a fresh budget joins the antichain
    (pruning budgets it covers) rather than replacing it, so clients
    with mutually incomparable budgets (more steps vs more seconds) all
    keep hitting — a synthesized join of two recordings would be
    unsound, and picking just one would make the others re-chase
    forever.

    Shared by the live cache (:meth:`ResultCache._insert`) and disk
    compaction (:func:`fold_entries`), so both agree on what a merged
    line means.
    """
    held = existing.budgets
    changed = False
    for fresh in entry.budgets:
        if any(budget_covers(kept, fresh) for kept in held):
            continue  # a prior chase subsumes this one
        held = tuple(
            kept for kept in held if not budget_covers(fresh, kept)
        ) + (fresh,)
        changed = True
    if not changed:
        return None
    budget = entry.budget
    for each in held:
        budget = budget_join(budget, each)
    # Keep whichever suspended chase got further: resuming from the
    # deeper checkpoint skips more recomputation, and both are sound.
    checkpoint = existing.checkpoint
    if _checkpoint_steps(entry.checkpoint) > _checkpoint_steps(checkpoint):
        checkpoint = entry.checkpoint
    return CacheEntry(
        fingerprint=entry.fingerprint,
        status=InferenceStatus.UNKNOWN,
        # The entry-level budget is a summary (the join of what ran,
        # for logs and humans); staleness reads ``budgets``.
        budget=budget,
        payload=entry.payload,
        budgets=held,
        checkpoint=checkpoint,
        decoded=entry.decoded,
    )


def fold_entries(entries: Iterator[CacheEntry]) -> "OrderedDict[str, CacheEntry]":
    """Fold a file-ordered entry stream to its last-wins survivors.

    Applies exactly the live cache's insert invariants: decisive
    verdicts are final (an UNKNOWN never replaces one), later decisive
    entries win, and UNKNOWN re-records *merge* their budget antichains.
    The result is what a fresh unbounded :class:`ResultCache` would
    hold after replaying the stream.
    """
    folded: "OrderedDict[str, CacheEntry]" = OrderedDict()
    for entry in entries:
        existing = folded.get(entry.fingerprint)
        if existing is None:
            folded[entry.fingerprint] = entry
            continue
        if entry.status is InferenceStatus.UNKNOWN:
            if existing.status is InferenceStatus.UNKNOWN:
                merged = merge_unknown_entries(existing, entry)
                if merged is not None:
                    folded[entry.fingerprint] = merged
            # else: never downgrade a decisive verdict
        else:
            folded[entry.fingerprint] = entry
        # Every touch refreshes recency, exactly as ``_insert`` does, so
        # a bounded cache reloading the compacted file evicts the same
        # fingerprints it would have evicted from the original.
        folded.move_to_end(entry.fingerprint)
    return folded


class JsonLinesStore:
    """Append-only on-disk tier: one JSON cache entry per line.

    Appends never rewrite history (a crash can at worst tear the final
    line), so merged UNKNOWN re-records grow the file over time.
    :meth:`compact` folds the file to its last-wins survivors — one
    line per live fingerprint — via an atomic replace; callers trigger
    it through :meth:`ResultCache.close`.

    **Cross-process sharing**: compaction is the one operation that
    rewrites history, so writers (``append``/``compact``) serialize
    through an advisory ``flock`` on a sidecar ``.lock`` file where the
    platform provides one — without it, an append racing another
    process's compaction could vanish from the rewritten file. Readers
    need no lock (the replace is atomic, so they see the old or the new
    file, never a torn one). A second store object on the same path may
    hold stale line counters after another process compacts; that only
    skews *when* its own trigger fires, never what a compaction keeps.
    On platforms without ``fcntl`` the store is single-writer only.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        #: Lines currently in the file and the distinct fingerprints
        #: they mention (counted by ``load``, bumped per ``append``,
        #: reset by ``compact``); None before the first load. Both
        #: exist so the compaction trigger is an O(1) decision instead
        #: of a shutdown-time full-file decode.
        self._lines: Optional[int] = None
        self._fingerprints: Optional[set[str]] = None
        #: Cumulative undecodable lines skipped across every load — a
        #: torn append after a crash, or hand edits. Surfaced as the
        #: ``repro_cache_torn_lines_total`` metric via
        #: :meth:`ResultCache.bind_metrics`.
        self.torn_lines = 0

    def load(self) -> Iterator[CacheEntry]:
        """Yield stored entries in file order (later entries override).

        Undecodable lines — a torn append after a crash, or hand edits —
        are skipped rather than raised: losing one verdict is recompute
        work, but refusing to open the cache would defeat its purpose.
        Lines written with tracing off (``"traced": false``) are skipped
        too, without counting as torn.
        """
        self._lines = 0
        self._fingerprints = set()
        if not self.path.exists():
            return
        torn = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                self._lines += 1
                try:
                    record = json.loads(line)
                    entry = CacheEntry.from_json(record)
                except (json.JSONDecodeError, CodecError):
                    torn += 1
                    continue
                if record.get("traced") is False:
                    continue  # no certificate to serve, no prefix to resume
                self._fingerprints.add(entry.fingerprint)
                yield entry
        if torn:
            self.torn_lines += torn
            # One line per load, however many lines tore: enough to
            # notice a crashed writer without flooding the log.
            logger.warning(
                "skipped %d torn cache line%s loading %s",
                torn,
                "" if torn == 1 else "s",
                self.path,
            )

    def append(self, entry: CacheEntry) -> None:
        """Persist one entry (parent directory created on demand)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_json(), separators=(",", ":"))
        if faults.fire("cache_tear", entry.fingerprint):
            # Chaos hook: simulate a writer crashing mid-append by
            # persisting only a prefix of the record.
            line = line[: max(1, len(line) // 2)]
        with self._write_lock():
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.write("\n")
        if self._lines is not None:
            self._lines += 1
        if self._fingerprints is not None:
            self._fingerprints.add(entry.fingerprint)

    @contextlib.contextmanager
    def _write_lock(self):
        """Exclusive advisory lock for writers (no-op without fcntl)."""
        if fcntl is None:  # pragma: no cover - platform-dependent
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        with lock_path.open("w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _ensure_scanned(self) -> None:
        if self._lines is None:
            for __ in self.load():
                pass

    def line_count(self) -> int:
        """Entry lines in the file (scans once when not yet known)."""
        self._ensure_scanned()
        assert self._lines is not None
        return self._lines

    def distinct_count(self) -> int:
        """Distinct fingerprints in the file (scans once when not known)."""
        self._ensure_scanned()
        assert self._fingerprints is not None
        return len(self._fingerprints)

    def compact(self) -> int:
        """Rewrite the file keeping only last-wins lines; returns lines kept.

        The fold applies the cache's own insert invariants (decisive
        verdicts final, UNKNOWN budget antichains merged), so a reload of the
        compacted file reconstructs the identical cache state. The
        rewrite goes through a sibling temp file and an atomic
        ``replace``, so a crash mid-compaction leaves the original
        intact.
        """
        with self._write_lock():
            folded = fold_entries(self.load())
            tmp = self.path.with_name(self.path.name + ".compact")
            tmp.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("w", encoding="utf-8") as handle:
                for entry in folded.values():
                    handle.write(
                        json.dumps(entry.to_json(), separators=(",", ":"))
                    )
                    handle.write("\n")
            tmp.replace(self.path)
        self._lines = len(folded)
        self._fingerprints = set(folded)
        return self._lines


class ResultCache:
    """Bounded LRU of verdicts, optionally backed by a :class:`JsonLinesStore`.

    ``compact_min_lines`` is the disk tier's size trigger: on
    :meth:`close`, a file holding at least that many lines — and at
    least twice as many lines as live fingerprints — is rewritten to
    last-wins form. Both conditions keep routine closes from rewriting
    a file that is already (near) minimal.
    """

    #: Default disk-tier compaction trigger (lines).
    COMPACT_MIN_LINES = 256

    def __init__(
        self,
        maxsize: int = 4096,
        store: Optional[JsonLinesStore] = None,
        *,
        compact_min_lines: Optional[int] = None,
    ):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.compact_min_lines = (
            compact_min_lines
            if compact_min_lines is not None
            else self.COMPACT_MIN_LINES
        )
        self.stats = CacheStats()
        self._store = store
        self._instruments = None
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        if store is not None:
            for entry in store.load():
                self._insert(entry)
            # Evictions while replaying the store are load churn, not
            # serving behaviour; segregate them so lifetime stats start
            # clean.
            self.stats.load_evictions = self.stats.evictions
            self.stats.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        return fingerprint in self._entries

    def bind_metrics(self, registry: MetricsRegistry) -> "ResultCache":
        """Expose this cache through ``registry`` (idempotent).

        The hit/miss/stale/eviction counters are *function-backed*: the
        registry reads :attr:`stats` at scrape time, so the hot lookup
        path pays nothing for telemetry. Compaction work (the one
        genuinely slow cache operation) is timed live on :meth:`close`.
        """
        self._instruments = ServiceInstruments(registry)
        registry.gauge(
            "repro_cache_entries",
            "Verdicts currently held in the in-memory tier",
            fn=lambda: float(len(self._entries)),
        )
        registry.gauge(
            "repro_cache_max_entries",
            "In-memory tier capacity (LRU bound)",
            fn=lambda: float(self.maxsize),
        )
        registry.counter(
            "repro_cache_lookup_hits_total",
            "Cache lookups served from a usable entry",
            fn=lambda: float(self.stats.hits),
        )
        registry.counter(
            "repro_cache_lookup_misses_total",
            "Cache lookups that found no entry",
            fn=lambda: float(self.stats.misses),
        )
        registry.counter(
            "repro_cache_stale_unknown_total",
            "Cache lookups that found only a stale entry",
            fn=lambda: float(self.stats.stale),
        )
        registry.counter(
            "repro_cache_evictions_total",
            "LRU evictions while serving (load churn excluded)",
            fn=lambda: float(self.stats.evictions),
        )
        if self._store is not None:
            store = self._store
            registry.counter(
                "repro_cache_torn_lines_total",
                "Torn or malformed JSON lines skipped while loading "
                "the disk cache",
                fn=lambda: float(store.torn_lines),
            )
        return self

    def close(self, *, force_compact: bool = False) -> bool:
        """Compact the disk tier if it has outgrown its live content.

        The append-only tier grows on every merged UNKNOWN re-record;
        compaction folds it back to one line per fingerprint (see
        :meth:`JsonLinesStore.compact` — the reload after a fold is
        state-identical). Triggered when the file holds at least
        ``compact_min_lines`` lines *and* at least twice as many lines
        as distinct fingerprints, or always with ``force_compact``.
        Idempotent; the cache stays fully usable afterwards. Returns
        True when a compaction ran.
        """
        store = self._store
        if store is None:
            return False
        if force_compact:
            self._timed_compact(store)
            return True
        # O(1) trigger: the store tracks line and distinct-fingerprint
        # counts incrementally, so a no-op close never re-reads the file.
        lines = store.line_count()
        if lines < self.compact_min_lines:
            return False
        if lines < 2 * max(store.distinct_count(), 1):
            return False
        self._timed_compact(store)
        return True

    def _timed_compact(self, store: JsonLinesStore) -> None:
        started = time.perf_counter()
        store.compact()
        if self._instruments is not None:
            self._instruments.cache_compactions.inc()
            self._instruments.cache_compaction_seconds.observe(
                time.perf_counter() - started
            )

    def lookup(self, fingerprint: str, budget: Budget) -> Optional[CacheEntry]:
        """Return a usable entry for ``fingerprint`` under ``budget``, or None.

        An UNKNOWN none of whose chased budgets covers the request is
        *stale* (more work may decide what the recorded chases could
        not): the caller should recompute and re-record, which merges.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.status is InferenceStatus.UNKNOWN and not any(
            budget_covers(chased, budget) for chased in entry.budgets
        ):
            self.stats.stale += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return entry

    def checkpoint_for(self, fingerprint: str) -> Optional[Json]:
        """The stored suspended-chase checkpoint for a stale UNKNOWN.

        Called after :meth:`lookup` returned None for an UNKNOWN whose
        budgets the request is not covered by: instead of re-chasing
        from row zero, the caller can resume the suspended chase under
        its own budget. Returns the encoded checkpoint, or None when
        the entry is missing, decisive, or was recorded without one.
        """
        entry = self._entries.get(fingerprint)
        if entry is None or entry.status is not InferenceStatus.UNKNOWN:
            return None
        return entry.checkpoint

    def record(
        self,
        fingerprint: str,
        outcome: InferenceOutcome,
        budget: Budget,
        *,
        checkpoint: Optional[Json] = None,
    ) -> CacheEntry:
        """Store ``outcome`` under ``fingerprint`` (and on disk, if tiered).

        An UNKNOWN carries no reusable certificate — only its status and
        budget matter for later lookups — so its payload is
        stripped of the (potentially huge, budget-exhausted) chase result
        before encoding. The in-process memo still holds the full outcome.
        An encoded ``checkpoint`` rides along with UNKNOWN entries so a
        later covering-budget retry resumes rather than restarts.

        FAILED outcomes are operational accidents (a quarantined
        payload, a crashed worker), not verdicts about ``D |= d`` —
        caching one would keep serving the accident after the fault is
        gone, so recording them is a programming error here.
        """
        if outcome.status is InferenceStatus.FAILED:
            raise ValueError("FAILED outcomes must not be cached")
        payload = slim_unknown_outcome(outcome_to_json(outcome))
        entry = CacheEntry(
            fingerprint=fingerprint,
            status=outcome.status,
            budget=budget,
            payload=payload,
            budgets=(budget,),
            checkpoint=(
                checkpoint
                if outcome.status is InferenceStatus.UNKNOWN
                else None
            ),
            decoded=outcome,
        )
        stored = self._insert(entry)
        if stored is None:
            return self._entries[entry.fingerprint]
        if self._store is not None:
            # The *stored* entry goes to disk: when an UNKNOWN was merged
            # with an earlier one, the appended line carries the whole
            # budget antichain, so a later-lines-win reload
            # keeps the merged knowledge rather than the narrow re-record.
            self._store.append(stored)
        return stored

    def _insert(self, entry: CacheEntry) -> Optional[CacheEntry]:
        """Insert ``entry``; returns what was stored, or None for a no-op.

        Two invariants protect accumulated knowledge:

        * PROVED/DISPROVED are final answers, so an UNKNOWN (some caller
          recomputed under a tighter budget) must never replace one —
          in memory or, via the skipped disk append, in the
          later-lines-win on-disk tier.
        * An UNKNOWN must never *downgrade* an UNKNOWN: re-recording
          under a narrower budget merges the budget antichains instead
          of overwriting, otherwise the staleness
          logic in :meth:`lookup` sees only the narrow entry and
          identical queries re-chase forever.
        """
        existing = self._entries.get(entry.fingerprint)
        if existing is not None and entry.status is InferenceStatus.UNKNOWN:
            if existing.status is not InferenceStatus.UNKNOWN:
                self._entries.move_to_end(entry.fingerprint)
                return None
            merged = merge_unknown_entries(existing, entry)
            if merged is None:
                self._entries.move_to_end(entry.fingerprint)
                return None
            entry = merged
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry
