"""Tests for repro.service.cache: round-trips, budgets, LRU, disk tier."""

import json

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import replay
from repro.chase.implication import (
    InferenceStatus,
    conclusion_satisfied,
    implies,
)
from repro.dependencies.canonical import query_fingerprint
from repro.dependencies.parser import parse_td
from repro.service.cache import (
    JsonLinesStore,
    ResultCache,
    budget_covers,
    budget_join,
)


@pytest.fixture
def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


@pytest.fixture
def provable_target():
    return parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")


@pytest.fixture
def refutable_target():
    return parse_td("R(a, b) -> R(b, a)")


def _fingerprint(dependencies, target):
    return query_fingerprint(dependencies, target)


class TestBudgetCovers:
    def test_equal_budgets_cover(self):
        budget = Budget(max_steps=10, max_rows=20, max_seconds=1.0)
        assert budget_covers(budget, budget)

    def test_bigger_request_is_not_covered(self):
        cached = Budget(max_steps=10)
        assert not budget_covers(cached, Budget(max_steps=11))
        assert not budget_covers(cached, Budget(max_steps=None))

    def test_smaller_request_is_covered(self):
        cached = Budget(max_steps=10)
        assert budget_covers(cached, Budget(max_steps=5))

    def test_unlimited_cache_covers_everything(self):
        assert budget_covers(Budget.unlimited(), Budget())

    def test_each_axis_vetoes_independently(self):
        cached = Budget(max_steps=10, max_rows=10, max_seconds=10.0)
        assert not budget_covers(cached, Budget(max_steps=5, max_rows=20, max_seconds=5.0))
        assert not budget_covers(cached, Budget(max_steps=5, max_rows=5, max_seconds=20.0))
        assert not budget_covers(cached, Budget(max_steps=20, max_rows=5, max_seconds=5.0))
        assert budget_covers(cached, Budget(max_steps=10, max_rows=10, max_seconds=10.0))

    def test_unlimited_request_axis_defeats_finite_cache_axis(self):
        cached = Budget(max_steps=10, max_rows=None, max_seconds=None)
        assert not budget_covers(cached, Budget(max_steps=None, max_rows=1, max_seconds=1.0))
        # The cache's own unlimited axes cover any finite request.
        assert budget_covers(cached, Budget(max_steps=10, max_rows=10**9, max_seconds=10**9))


class TestBudgetJoin:
    def test_join_takes_the_generous_axis_each_way(self):
        first = Budget(max_steps=10, max_rows=500, max_seconds=1.0)
        second = Budget(max_steps=100, max_rows=50, max_seconds=9.0)
        joined = budget_join(first, second)
        assert joined.max_steps == 100
        assert joined.max_rows == 500
        assert joined.max_seconds == 9.0

    def test_none_is_unlimited_and_wins(self):
        joined = budget_join(Budget(max_steps=None, max_rows=5, max_seconds=1.0),
                             Budget(max_steps=10, max_rows=None, max_seconds=2.0))
        assert joined.max_steps is None
        assert joined.max_rows is None
        assert joined.max_seconds == 2.0

    def test_join_covers_both_inputs(self):
        first = Budget(max_steps=3, max_rows=100, max_seconds=None)
        second = Budget(max_steps=30, max_rows=10, max_seconds=5.0)
        joined = budget_join(first, second)
        assert budget_covers(joined, first)
        assert budget_covers(joined, second)

    def test_meet_is_covered_by_both_inputs(self):
        from repro.service.cache import budget_meet

        first = Budget(max_steps=3, max_rows=100, max_seconds=None)
        second = Budget(max_steps=30, max_rows=10, max_seconds=5.0)
        met = budget_meet(first, second)
        assert budget_covers(first, met)
        assert budget_covers(second, met)
        assert (met.max_steps, met.max_rows, met.max_seconds) == (3, 10, 5.0)

    def test_meet_clamps_unlimited_axes_to_the_ceiling(self):
        from repro.service.cache import budget_meet

        ceiling = Budget(max_steps=100, max_rows=1000, max_seconds=10.0)
        met = budget_meet(Budget.unlimited(), ceiling)
        assert (met.max_steps, met.max_rows, met.max_seconds) == (
            100,
            1000,
            10.0,
        )


class TestRoundTrip:
    def test_proved_outcome_trace_still_replays(
        self, transitivity, provable_target
    ):
        outcome = implies([transitivity], provable_target)
        assert outcome.status is InferenceStatus.PROVED
        cache = ResultCache()
        fingerprint = _fingerprint([transitivity], provable_target)
        cache.record(fingerprint, outcome, Budget())
        entry = cache.lookup(fingerprint, Budget())
        assert entry is not None
        cached = entry.outcome()
        assert cached.status is InferenceStatus.PROVED
        # The certificate is independently checkable: replay the trace
        # (with verification on) from the frozen target and confirm the
        # conclusion is derived.
        start, frozen = cached.target.freeze()
        final = replay(start, cached.chase_result.steps, verify=True)
        assert conclusion_satisfied(final, cached.target, frozen)

    def test_disproved_counterexample_still_violates(
        self, transitivity, refutable_target
    ):
        from repro.io.json_codec import outcome_from_json

        outcome = implies([transitivity], refutable_target)
        assert outcome.status is InferenceStatus.DISPROVED
        cache = ResultCache()
        fingerprint = _fingerprint([transitivity], refutable_target)
        cache.record(fingerprint, outcome, Budget())
        entry = cache.lookup(fingerprint, Budget())
        # The counterexample is the chased instance: stored once, not twice.
        assert "counterexample" not in entry.payload
        assert entry.payload.get("counterexample_shared") is True
        # Decode the stored payload (what a fresh process would read).
        cached = outcome_from_json(entry.payload)
        counterexample = cached.counterexample
        assert counterexample is not None
        # Still a genuine counterexample: satisfies the premises,
        # violates the target.
        assert transitivity.holds_in(counterexample)
        assert refutable_target.find_violation(counterexample) is not None

    def test_decoded_stats_clock_is_pinned(self, transitivity, provable_target):
        import time

        from repro.io.json_codec import outcome_from_json

        outcome = implies([transitivity], provable_target)
        cache = ResultCache()
        cache.record("q", outcome, Budget())
        # Decode from the JSON payload (not the memoized live object):
        # the recorded elapsed time must not keep growing with wall-clock.
        decoded = outcome_from_json(cache.lookup("q", Budget()).payload)
        first = decoded.chase_result.stats.elapsed_seconds
        time.sleep(0.05)
        assert decoded.chase_result.stats.elapsed_seconds == first

    def test_unknown_round_trip_keeps_status(self, transitivity):
        from repro.io.json_codec import outcome_from_json

        diverging = parse_td("R(x, y) -> R(y, z)")
        tight = Budget(max_steps=3)
        outcome = implies([diverging], parse_td("R(a, b) -> R(b, a)"), budget=tight)
        assert outcome.status is InferenceStatus.UNKNOWN
        cache = ResultCache()
        cache.record("unknown-query", outcome, tight)
        entry = cache.lookup("unknown-query", tight)
        assert entry is not None
        assert entry.outcome().status is InferenceStatus.UNKNOWN
        # UNKNOWN carries no certificate, so its stored payload is slim:
        # the budget-exhausted chase result is stripped before encoding.
        assert "chase_result" not in entry.payload
        assert outcome_from_json(entry.payload).status is InferenceStatus.UNKNOWN


class TestUnknownBudgetPolicy:
    def _unknown_outcome(self, budget):
        diverging = parse_td("R(x, y) -> R(y, z)")
        return implies([diverging], parse_td("R(a, b) -> R(b, a)"), budget=budget)

    def test_bigger_budget_is_a_stale_miss(self):
        cached_budget = Budget(max_steps=3)
        cache = ResultCache()
        cache.record("q", self._unknown_outcome(cached_budget), cached_budget)
        assert cache.lookup("q", Budget(max_steps=100)) is None
        assert cache.stats.stale == 1

    def test_covered_budget_is_a_hit(self):
        cached_budget = Budget(max_steps=50)
        cache = ResultCache()
        cache.record("q", self._unknown_outcome(Budget(max_steps=3)), cached_budget)
        assert cache.lookup("q", Budget(max_steps=10)) is not None

    def test_broad_unknown_survives_narrower_budget_rerecord(self):
        """Regression: a narrow re-record must not downgrade a broad UNKNOWN."""
        broad, narrow = Budget(max_steps=100), Budget(max_steps=5)
        cache = ResultCache()
        cache.record("q", self._unknown_outcome(broad), broad)
        cache.record("q", self._unknown_outcome(narrow), narrow)
        # A request the broad entry covers still hits — before the fix the
        # narrow re-record overwrote it and this was a stale miss forever.
        entry = cache.lookup("q", Budget(max_steps=100))
        assert entry is not None
        assert entry.budget.max_steps == 100

    def test_incomparable_budgets_accumulate_and_all_clients_hit(self):
        """Regression: clients with incomparable budgets must not make
        each other's recordings vanish and alternate re-chasing forever.

        Client A uses (100 steps, 10 s); client B uses (5 steps, 50 s).
        Neither covers the other, so the entry keeps *both* chased
        budgets; after one chase each, both clients hit every time.
        """
        budget_a = Budget(max_steps=100, max_seconds=10.0)
        budget_b = Budget(max_steps=5, max_seconds=50.0)
        cache = ResultCache()
        cache.record("q", self._unknown_outcome(budget_a), budget_a)
        assert cache.lookup("q", budget_b) is None
        cache.record("q", self._unknown_outcome(budget_b), budget_b)
        # Both recordings survive side by side...
        entry = cache.lookup("q", budget_a)
        assert entry is not None
        assert len(entry.budgets) == 2
        # ...so both clients' identical re-requests are hits, not the
        # alternating stale misses a keep-one policy would produce.
        assert cache.lookup("q", budget_b) is not None
        assert cache.lookup("q", budget_a) is not None
        assert cache.stats.stale == 1  # only B's first-ever request

    def test_covering_budget_prunes_dominated_antichain_entries(self):
        narrow = Budget(max_steps=10, max_seconds=5.0)
        wide = Budget(max_steps=100, max_seconds=50.0)
        cache = ResultCache()
        cache.record("q", self._unknown_outcome(narrow), narrow)
        cache.record("q", self._unknown_outcome(wide), wide)
        entry = cache.lookup("q", narrow)
        # The covering recording subsumed the narrow one: no pile-up.
        assert [b.max_steps for b in entry.budgets] == [100]

    def test_merged_unknown_survives_a_disk_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        steps = Budget(max_steps=100, max_seconds=10.0)
        seconds = Budget(max_steps=5, max_seconds=50.0)
        cache = ResultCache(store=JsonLinesStore(path))
        cache.record("q", self._unknown_outcome(steps), steps)
        cache.record("q", self._unknown_outcome(seconds), seconds)
        # A fresh process reloads the *merged* knowledge (later lines
        # win, and the appended line carries the whole antichain, not
        # just the last record).
        reloaded = ResultCache(store=JsonLinesStore(path))
        entry = reloaded.lookup("q", steps)
        assert entry is not None
        assert set(entry.budgets) == {steps, seconds}
        assert reloaded.lookup("q", seconds) is not None
        # Honesty survives the reload too: no chase ran under the join.
        assert (
            reloaded.lookup("q", Budget(max_steps=100, max_seconds=50.0))
            is None
        )

    def test_subsumed_rerecord_appends_nothing_to_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        broad, narrow = Budget(max_steps=100), Budget(max_steps=5)
        cache = ResultCache(store=JsonLinesStore(path))
        cache.record("q", self._unknown_outcome(broad), broad)
        lines_before = path.read_text().count("\n")
        cache.record("q", self._unknown_outcome(narrow), narrow)
        assert path.read_text().count("\n") == lines_before

    def test_service_does_not_rechase_after_narrow_rerecord(self):
        """End to end: identical queries keep hitting after a downgrade attempt."""
        from repro.service import InferenceService

        diverging = parse_td("R(x, y) -> R(y, z)")
        target = parse_td("R(a, b) -> R(b, a)")
        cache = ResultCache()
        service = InferenceService(cache)
        broad, narrow = Budget(max_steps=50), Budget(max_steps=5)
        service.run_batch([diverging], [target], budget=broad)
        # A narrower client re-records its own UNKNOWN... (the cache serves
        # the covered request, so force the narrow recording directly)
        from repro.chase.implication import implies

        cache.record(
            service.submit([diverging], target),
            implies([diverging], target, budget=narrow),
            narrow,
        )
        service._pending.clear()
        # ...and the broad client's identical re-run still hits.
        again = service.run_batch([diverging], [target], budget=broad)
        assert again.stats.cache_hits == 1
        assert again.stats.executed == 0

    def test_retry_overwrites_the_unknown(self, transitivity, provable_target):
        cache = ResultCache()
        tight = Budget(max_steps=1)
        unknown = implies([transitivity], provable_target, budget=tight)
        assert unknown.status is InferenceStatus.UNKNOWN
        cache.record("q", unknown, tight)
        proved = implies([transitivity], provable_target)
        cache.record("q", proved, Budget())
        entry = cache.lookup("q", Budget())
        assert entry.status is InferenceStatus.PROVED


class TestLru:
    def test_eviction_drops_least_recently_used(
        self, transitivity, refutable_target
    ):
        outcome = implies([transitivity], refutable_target)
        cache = ResultCache(maxsize=2)
        budget = Budget()
        cache.record("a", outcome, budget)
        cache.record("b", outcome, budget)
        assert cache.lookup("a", budget) is not None  # refresh "a"
        cache.record("c", outcome, budget)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1


    def test_load_time_evictions_do_not_inflate_lifetime_stats(
        self, tmp_path, transitivity, refutable_target
    ):
        path = tmp_path / "cache.jsonl"
        outcome = implies([transitivity], refutable_target)
        writer = ResultCache(store=JsonLinesStore(path))
        for index in range(5):
            writer.record(f"q{index}", outcome, Budget())
        # Reload into a cache too small for the store: the overflow is
        # load churn, not serving behaviour.
        reloaded = ResultCache(maxsize=2, store=JsonLinesStore(path))
        assert reloaded.stats.evictions == 0
        assert reloaded.stats.load_evictions == 3
        # Serving evictions still count from zero.
        reloaded.record("fresh", outcome, Budget())
        assert reloaded.stats.evictions == 1
        assert reloaded.stats.load_evictions == 3


class TestDiskStore:
    def test_verdicts_survive_the_process(
        self, tmp_path, transitivity, provable_target
    ):
        path = tmp_path / "cache.jsonl"
        outcome = implies([transitivity], provable_target)
        fingerprint = _fingerprint([transitivity], provable_target)
        first = ResultCache(store=JsonLinesStore(path))
        first.record(fingerprint, outcome, Budget())

        # A fresh cache (fresh "process") reloads the verdict from disk.
        second = ResultCache(store=JsonLinesStore(path))
        entry = second.lookup(fingerprint, Budget())
        assert entry is not None
        assert entry.outcome().status is InferenceStatus.PROVED

    def test_corrupt_lines_are_skipped_not_fatal(
        self, tmp_path, transitivity, provable_target
    ):
        path = tmp_path / "cache.jsonl"
        outcome = implies([transitivity], provable_target)
        first = ResultCache(store=JsonLinesStore(path))
        first.record("good", outcome, Budget())
        # Simulate a torn append and a hand-mangled record.
        with path.open("a") as handle:
            handle.write('{"fingerprint": "torn", "status": "pro')
            handle.write("\n")
            handle.write('{"fingerprint": "partial", "status": "proved"}\n')
        reloaded = ResultCache(store=JsonLinesStore(path))
        assert reloaded.lookup("good", Budget()) is not None
        assert "torn" not in reloaded and "partial" not in reloaded

    def test_untraced_lines_miss_after_reload(
        self, tmp_path, transitivity, provable_target
    ):
        """A line written with tracing off (``"traced": false``) holds a
        proof without a certificate: reload skips it without counting it
        as torn, and compaction drops it."""
        from repro.obs.metrics import MetricsRegistry

        path = tmp_path / "cache.jsonl"
        traced = implies([transitivity], provable_target)
        bare = implies([transitivity], provable_target, record_trace=False)
        ResultCache(store=JsonLinesStore(path)).record("good", traced, Budget())
        line = ResultCache().record("bare", bare, Budget()).to_json()
        with path.open("a") as handle:
            handle.write(json.dumps(dict(line, traced=False)) + "\n")
        registry = MetricsRegistry()
        reloaded = ResultCache(store=JsonLinesStore(path)).bind_metrics(registry)
        assert reloaded.lookup("bare", Budget()) is None
        assert reloaded.stats.misses == 1
        assert reloaded.lookup("good", Budget()) is not None
        assert "repro_cache_torn_lines_total 0" in registry.render_prometheus()
        assert reloaded.close(force_compact=True) is True
        lines = path.read_text().splitlines()
        assert [json.loads(each)["fingerprint"] for each in lines] == ["good"]

    def test_unknown_never_demotes_a_decisive_verdict(
        self, tmp_path, transitivity, provable_target
    ):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(store=JsonLinesStore(path))
        proved = implies([transitivity], provable_target)
        cache.record("q", proved, Budget())
        tight = Budget(max_steps=1)
        unknown = implies([transitivity], provable_target, budget=tight)
        assert unknown.status is InferenceStatus.UNKNOWN
        cache.record("q", unknown, tight)
        # The decisive verdict survives, in memory and on disk.
        assert cache.lookup("q", Budget()).status is InferenceStatus.PROVED
        reloaded = ResultCache(store=JsonLinesStore(path))
        assert reloaded.lookup("q", Budget()).status is InferenceStatus.PROVED

    def test_later_lines_override_earlier(self, tmp_path, transitivity, provable_target):
        path = tmp_path / "cache.jsonl"
        store = JsonLinesStore(path)
        tight = Budget(max_steps=1)
        unknown = implies([transitivity], provable_target, budget=tight)
        proved = implies([transitivity], provable_target)
        first = ResultCache(store=store)
        first.record("q", unknown, tight)
        first.record("q", proved, Budget())

        reloaded = ResultCache(store=JsonLinesStore(path))
        assert reloaded.lookup("q", Budget()).status is InferenceStatus.PROVED


class TestCompaction:
    """The disk tier's last-wins compaction (ResultCache.close)."""

    def _cache_state(self, cache):
        """Everything staleness and serving read, per fingerprint."""
        return {
            fingerprint: (entry.status, entry.budgets)
            for fingerprint, entry in cache._entries.items()
        }

    def _grow_file(self, path, transitivity, provable_target, refutable_target):
        """A store with merged UNKNOWN re-records and decisive upgrades."""
        store = JsonLinesStore(path)
        cache = ResultCache(store=store)
        # Incomparable UNKNOWN budgets accumulate (each appends a line).
        for budget in (
            Budget(max_steps=1, max_rows=None, max_seconds=None),
            Budget(max_steps=None, max_rows=3, max_seconds=None),
            Budget(max_steps=1, max_rows=None, max_seconds=0.0),
        ):
            unknown = implies([transitivity], provable_target, budget=Budget(max_steps=1))
            cache.record("merged-unknown", unknown, budget)
        # An UNKNOWN later upgraded to a decisive verdict.
        tight = Budget(max_steps=1)
        cache.record(
            "upgraded",
            implies([transitivity], provable_target, budget=tight),
            tight,
        )
        cache.record("upgraded", implies([transitivity], provable_target), Budget())
        # A plain decisive verdict, re-recorded (last wins, same content).
        disproved = implies([transitivity], refutable_target)
        cache.record("decisive", disproved, Budget())
        cache.record("decisive", disproved, Budget())
        return store, cache

    def test_compacted_file_reloads_to_identical_state(
        self, tmp_path, transitivity, provable_target, refutable_target
    ):
        path = tmp_path / "cache.jsonl"
        store, cache = self._grow_file(
            path, transitivity, provable_target, refutable_target
        )
        lines_before = store.line_count()
        assert lines_before > 3  # the file really did grow past its content
        before = self._cache_state(ResultCache(store=JsonLinesStore(path)))

        assert cache.close(force_compact=True) is True
        assert store.line_count() == 3  # one line per fingerprint
        after_cache = ResultCache(store=JsonLinesStore(path))
        assert self._cache_state(after_cache) == before

        # The merged UNKNOWN antichain still serves incomparable budgets.
        assert (
            after_cache.lookup("merged-unknown", Budget(max_steps=1, max_rows=None, max_seconds=None))
            is not None
        )
        assert (
            after_cache.lookup("merged-unknown", Budget(max_steps=None, max_rows=2, max_seconds=None))
            is not None
        )
        assert after_cache.lookup("upgraded", Budget()).status is InferenceStatus.PROVED
        assert after_cache.lookup("decisive", Budget()).status is InferenceStatus.DISPROVED

    def test_hostile_downgrade_line_is_dropped_by_compaction(
        self, tmp_path, transitivity, provable_target
    ):
        path = tmp_path / "cache.jsonl"
        store = JsonLinesStore(path)
        cache = ResultCache(store=store)
        cache.record("q", implies([transitivity], provable_target), Budget())
        tight = Budget(max_steps=1)
        unknown = implies([transitivity], provable_target, budget=tight)
        # Hand-append what the live cache would have refused to write.
        entry = ResultCache().record("q", unknown, tight)
        store.append(entry)
        cache.close(force_compact=True)
        reloaded = ResultCache(store=JsonLinesStore(path))
        assert reloaded.lookup("q", Budget()).status is InferenceStatus.PROVED

    def test_close_size_trigger(self, tmp_path, transitivity, provable_target):
        path = tmp_path / "cache.jsonl"
        store = JsonLinesStore(path)
        cache = ResultCache(store=store, compact_min_lines=4)
        tight = Budget(max_steps=1)
        # One fingerprint, four incomparable recordings: 4 lines, 1 live.
        for limit in (1, 2, 3, 4):
            unknown = implies([transitivity], provable_target, budget=tight)
            cache.record(
                "q", unknown, Budget(max_steps=limit, max_rows=10**limit)
            )
        assert store.line_count() == 4
        assert cache.close() is True
        assert store.line_count() == 1

    def test_close_leaves_small_files_alone(
        self, tmp_path, transitivity, refutable_target
    ):
        path = tmp_path / "cache.jsonl"
        store = JsonLinesStore(path)
        cache = ResultCache(store=store)  # default trigger: 256 lines
        cache.record("q", implies([transitivity], refutable_target), Budget())
        assert cache.close() is False
        assert store.line_count() == 1

    def test_close_without_store_is_a_noop(self):
        assert ResultCache().close() is False

    def test_fold_preserves_recency_order_for_bounded_reloads(
        self, tmp_path, transitivity, provable_target, refutable_target
    ):
        """A re-record must move its fingerprint to MRU in the fold, as
        `_insert` does live — otherwise compaction changes which entries
        a bounded cache evicts at load time."""
        from repro.service.cache import fold_entries

        path = tmp_path / "cache.jsonl"
        store = JsonLinesStore(path)
        cache = ResultCache(store=store)
        proved = implies([transitivity], provable_target)
        disproved = implies([transitivity], refutable_target)
        cache.record("a", proved, Budget())
        cache.record("b", disproved, Budget())
        cache.record("a", proved, Budget())  # touch: a is now MRU
        folded = fold_entries(store.load())
        assert list(folded) == ["b", "a"]


class TestPreAntichainCacheFiles:
    """Cache files written while entries still kept per-variant budgets
    (``"variants"`` / ``"variant_budgets"``) load, serve and compact."""

    @pytest.fixture
    def legacy_file(self, tmp_path, transitivity, provable_target, refutable_target):
        from repro.io.json_codec import (
            budget_to_json,
            encode_checkpoint,
            outcome_to_json,
            slim_unknown_outcome,
        )

        def budget(steps):
            return budget_to_json(Budget(max_steps=steps))

        starved = Budget(max_steps=2)
        unknown = implies(
            [transitivity], provable_target, budget=starved, checkpoint=True
        )
        assert unknown.status is InferenceStatus.UNKNOWN
        checkpoint = encode_checkpoint(unknown)
        assert checkpoint is not None
        unknown_payload = slim_unknown_outcome(outcome_to_json(unknown))
        disproved = implies([transitivity], refutable_target)
        lines = [
            {
                "fingerprint": "decisive",
                "status": "disproved",
                "budget": budget(None),
                "traced": True,
                "variants": ["standard"],
                "outcome": outcome_to_json(disproved),
            },
            {
                "fingerprint": "one-variant",
                "status": "unknown",
                "budget": budget(2),
                "traced": True,
                "variants": ["standard"],
                "outcome": unknown_payload,
                "variant_budgets": {"standard": [budget(2)]},
                "checkpoint": checkpoint,
            },
            {
                "fingerprint": "two-variant",
                "status": "unknown",
                "budget": budget(50),
                "traced": True,
                "variants": ["standard", "semi_naive"],
                "outcome": unknown_payload,
                "variant_budgets": {
                    "standard": [budget(2)],
                    "semi_naive": [budget(50)],
                },
                "checkpoint": checkpoint,
            },
            {
                "fingerprint": "semi-naive-only",
                "status": "unknown",
                "budget": budget(50),
                "traced": True,
                "variants": ["semi_naive"],
                "outcome": unknown_payload,
                "variant_budgets": {"semi_naive": [budget(50)]},
                "checkpoint": checkpoint,
            },
        ]
        path = tmp_path / "cache.jsonl"
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        return path, disproved

    def test_old_lines_load_without_tearing(self, legacy_file):
        from repro.obs.metrics import MetricsRegistry

        path, __ = legacy_file
        registry = MetricsRegistry()
        cache = ResultCache(store=JsonLinesStore(path)).bind_metrics(registry)
        assert len(cache) == 4
        assert "repro_cache_torn_lines_total 0" in registry.render_prometheus()

    def test_decisive_lines_hit_unchanged(self, legacy_file):
        path, disproved = legacy_file
        cache = ResultCache(store=JsonLinesStore(path))
        entry = cache.lookup("decisive", Budget(max_steps=1))
        assert entry is not None
        assert entry.outcome().status is InferenceStatus.DISPROVED
        assert entry.outcome().counterexample == disproved.counterexample

    def test_unknowns_keep_only_their_standard_budgets(self, legacy_file):
        path, __ = legacy_file
        cache = ResultCache(store=JsonLinesStore(path))
        for fingerprint in ("one-variant", "two-variant"):
            assert [b.max_steps for b in cache._entries[fingerprint].budgets] == [2]
            assert cache.lookup(fingerprint, Budget(max_steps=2)) is not None
            # The semi_naive arm's 50 steps are not the one chase's work.
            assert cache.lookup(fingerprint, Budget(max_steps=50)) is None

    def test_unknown_without_a_standard_arm_is_stale_but_resumable(
        self, legacy_file
    ):
        path, __ = legacy_file
        cache = ResultCache(store=JsonLinesStore(path))
        assert cache._entries["semi-naive-only"].budgets == ()
        assert cache.lookup("semi-naive-only", Budget(max_steps=1)) is None
        assert cache.checkpoint_for("semi-naive-only") is not None

    def test_service_resumes_a_legacy_checkpoint(
        self, tmp_path, transitivity, provable_target
    ):
        """End to end: a retry over an old-shape UNKNOWN line resumes
        its stored chase instead of re-chasing."""
        from repro.io.json_codec import (
            budget_to_json,
            encode_checkpoint,
            outcome_to_json,
            slim_unknown_outcome,
        )
        from repro.service import InferenceService

        starved = Budget(max_steps=2)
        unknown = implies(
            [transitivity], provable_target, budget=starved, checkpoint=True
        )
        line = {
            "fingerprint": _fingerprint([transitivity], provable_target),
            "status": "unknown",
            "budget": budget_to_json(starved),
            "traced": True,
            "variants": ["standard"],
            "outcome": slim_unknown_outcome(outcome_to_json(unknown)),
            "variant_budgets": {"standard": [budget_to_json(starved)]},
            "checkpoint": encode_checkpoint(unknown),
        }
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        service = InferenceService(ResultCache(store=JsonLinesStore(path)))
        again = service.run_batch([transitivity], [provable_target], budget=starved)
        assert again.stats.cache_hits == 1
        retry = service.run_batch(
            [transitivity], [provable_target], budget=Budget(max_steps=500)
        )
        assert retry.stats.resumed == 1 and retry.stats.executed == 0
        assert retry.outcomes[0].status is InferenceStatus.PROVED

    def test_compaction_rewrites_lines_in_the_new_shape(self, legacy_file):
        path, __ = legacy_file
        cache = ResultCache(store=JsonLinesStore(path))
        before = {
            fingerprint: (entry.status, entry.budgets, entry.checkpoint)
            for fingerprint, entry in cache._entries.items()
        }
        assert cache.close(force_compact=True) is True
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 4
        for line in lines:
            assert "variants" not in line and "variant_budgets" not in line
            assert ("budgets" in line) == (line["status"] == "unknown")
        reloaded = ResultCache(store=JsonLinesStore(path))
        assert {
            fingerprint: (entry.status, entry.budgets, entry.checkpoint)
            for fingerprint, entry in reloaded._entries.items()
        } == before
