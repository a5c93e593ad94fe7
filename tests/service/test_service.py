"""Tests for the InferenceService facade and the chase scheduler."""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import replay
from repro.chase.implication import (
    InferenceStatus,
    conclusion_satisfied,
    implies_all,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    InferenceService,
    QueryTask,
    ResultCache,
    WorkerPool,
    serial_run,
)
from repro.dependencies import canonical
from repro.dependencies.parser import parse_td
from repro.workloads.generators import inference_workload


@pytest.fixture
def workload():
    return inference_workload(queries=24, seed=3)


class TestRunBatchEquivalence:
    def test_matches_serial_implies_all(self, workload):
        dependencies, targets = workload
        budget = Budget(max_steps=2_000)
        serial = implies_all(dependencies, targets, budget=budget)
        report = InferenceService().run_batch(dependencies, targets, budget=budget)
        assert [o.status for o in report.outcomes] == [o.status for o in serial]

    def test_items_align_with_submission_order(self, workload):
        dependencies, targets = workload
        report = InferenceService().run_batch(dependencies, targets)
        assert [item.index for item in report.items] == list(range(len(targets)))
        for item, target in zip(report.items, targets):
            assert item.target.schema == target.schema



class TestDedupAndCache:
    def test_disguised_duplicates_chase_once(self, workload):
        dependencies, targets = workload
        report = InferenceService().run_batch(dependencies, targets)
        stats = report.stats
        assert stats.submitted == len(targets)
        assert stats.deduplicated > 0
        assert stats.executed + stats.deduplicated + stats.cache_hits == len(targets)
        assert stats.executed < len(targets)

    def test_warm_second_batch_is_all_hits(self, workload):
        dependencies, targets = workload
        service = InferenceService()
        service.run_batch(dependencies, targets)
        warm = service.run_batch(dependencies, targets)
        assert warm.stats.cache_hits == len(targets)
        assert warm.stats.executed == 0

    def test_unknown_retries_with_bigger_budget(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)")
        service = InferenceService()
        starved = Budget(max_steps=1)
        first = service.run_batch([transitivity], [target], budget=starved)
        assert first.outcomes[0].status is InferenceStatus.UNKNOWN
        # Same budget: the UNKNOWN is served from cache.
        again = service.run_batch([transitivity], [target], budget=starved)
        assert again.stats.cache_hits == 1
        # Bigger budget: the entry is stale; the suspended chase is
        # resumed from its checkpoint (not re-run from scratch) and
        # decided.
        bigger = service.run_batch(
            [transitivity], [target], budget=Budget(max_steps=500)
        )
        assert bigger.stats.cache_hits == 0
        assert bigger.stats.resumed == 1
        assert bigger.stats.executed == 0
        assert bigger.outcomes[0].status is InferenceStatus.PROVED

    @pytest.mark.parametrize("workers", [0, 1])
    def test_pooled_retry_resumes_like_serial(self, workers):
        """The resume runs on the one dispatch path: serially or on the
        pool, the retry resumes its checkpoint to the same verdict."""
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)")
        with InferenceService(workers=workers) as service:
            first = service.run_batch(
                [transitivity], [target], budget=Budget(max_steps=1)
            )
            assert first.outcomes[0].status is InferenceStatus.UNKNOWN
            bigger = service.run_batch(
                [transitivity], [target], budget=Budget(max_steps=500)
            )
        assert bigger.stats.resumed == 1
        assert bigger.stats.executed == 0
        assert bigger.outcomes[0].status is InferenceStatus.PROVED
        trace = service.traces.get(bigger.trace_id)
        assert [row["source"] for row in trace.queries] == ["resume"]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_resumed_proof_replays(self, workers):
        """A PROVED resumed from a stale UNKNOWN's checkpoint carries the
        whole trace, the checkpoint's prefix included: it replays from
        the frozen target and derives the conclusion."""
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)")
        with InferenceService(workers=workers) as service:
            service.run_batch([transitivity], [target], budget=Budget(max_steps=2))
            bigger = service.run_batch(
                [transitivity], [target], budget=Budget(max_steps=500)
            )
        assert bigger.stats.resumed == 1
        outcome = bigger.outcomes[0]
        assert outcome.status is InferenceStatus.PROVED
        start, frozen = outcome.target.freeze()
        final = replay(start, outcome.chase_result.steps, verify=True)
        assert conclusion_satisfied(final, outcome.target, frozen)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_resume_counts_only_the_work_past_its_checkpoint(self, workers):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)")
        with InferenceService(workers=workers) as service:
            service.run_batch([transitivity], [target], budget=Budget(max_steps=2))
            steps = service.metrics.get("repro_chase_steps_total")
            before = steps.value
            retry = service.run_batch(
                [transitivity], [target], budget=Budget(max_steps=500)
            )
            resumes = service.metrics.get("repro_checkpoint_resumes_total")
            assert resumes.value == 1
        cumulative = retry.outcomes[0].chase_result.stats.steps
        assert steps.value - before == cumulative - 2

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize(
        "checkpoint",
        [
            # Does not decode: an unknown checkpoint version.
            {"version": -1, "rows": []},
            # Decodes, but cannot rebuild: no memo for the premise.
            {"version": 1, "rows": [], "dependencies": [], "evaluated": [[]]},
        ],
        ids=["undecodable", "unrebuildable"],
    )
    def test_broken_checkpoint_falls_back_to_a_fresh_chase(
        self, workers, checkpoint
    ):
        from repro.chase.implication import implies
        from repro.io.json_codec import dependency_to_json

        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)")
        checkpoint = dict(checkpoint, target=dependency_to_json(target))
        starved = Budget(max_steps=1)
        with InferenceService(workers=workers) as service:
            fingerprint = service.submit([transitivity], target)
            service.discard_pending()
            service.cache.record(
                fingerprint,
                implies([transitivity], target, budget=starved),
                starved,
                checkpoint=checkpoint,
            )
            bigger = service.run_batch(
                [transitivity], [target], budget=Budget(max_steps=500)
            )
        assert bigger.stats.resumed == 0
        assert bigger.stats.executed == 1
        assert bigger.outcomes[0].status is InferenceStatus.PROVED

    def test_submit_returns_matching_fingerprints_for_duplicates(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        disguised = parse_td("R(q, r) & R(p, q) -> R(p, r)")
        service = InferenceService()
        assert service.submit([transitivity], target) == service.submit(
            [transitivity], disguised
        )


class TestWorkerPool:
    def test_pool_matches_serial(self):
        dependencies, targets = inference_workload(queries=10, seed=11)
        budget = Budget(max_steps=2_000)
        serial = InferenceService().run_batch(dependencies, targets, budget=budget)
        with InferenceService(workers=2) as service:
            pooled = service.run_batch(dependencies, targets, budget=budget)
        assert [o.status for o in pooled.outcomes] == [
            o.status for o in serial.outcomes
        ]

    def test_pooled_proof_traces_replay(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        with InferenceService(workers=1) as service:
            report = service.run_batch([transitivity], [target])
        outcome = report.outcomes[0]
        assert outcome.status is InferenceStatus.PROVED
        start, frozen = outcome.target.freeze()
        final = replay(start, outcome.chase_result.steps, verify=True)
        assert conclusion_satisfied(final, outcome.target, frozen)


class TestWorkerPoolLifecycle:
    @pytest.fixture
    def tasks(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        targets = [
            parse_td("R(a, b) & R(b, c) -> R(a, c)"),
            parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)"),
        ]
        return [
            QueryTask(slot=index, dependencies=(transitivity,), target=target)
            for index, target in enumerate(targets)
        ]

    def test_pool_is_reused_across_batches(self, tasks):
        with WorkerPool(1, MetricsRegistry()) as pool:
            first = pool.run(tasks, Budget(max_steps=500))
            # The worker processes survive between run() calls.
            second = pool.run(tasks, Budget(max_steps=500))
        for run in (first, second):
            assert all(
                run.outcomes[slot].status is InferenceStatus.PROVED
                for slot in (0, 1)
            )

    def test_close_is_idempotent_and_pool_restartable(self, tasks):
        pool = WorkerPool(1, MetricsRegistry())
        first = pool.run(tasks, Budget(max_steps=500))
        pool.close()
        pool.close()
        # A fresh set of workers is forked transparently after close().
        second = pool.run(tasks, Budget(max_steps=500))
        pool.close()
        assert [o.status for o in first.outcomes.values()] == [
            o.status for o in second.outcomes.values()
        ]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0, MetricsRegistry())

    def test_dead_worker_is_contained_within_the_batch(self, tasks):
        """A killed worker must not wedge OR fail the batch: the pool is
        rebuilt in place, lost payloads are re-dispatched, and every
        slot still gets a real verdict (a long-lived server depends on
        this)."""
        import os

        pool = WorkerPool(1, MetricsRegistry()).start()
        try:
            # Kill the worker out from under the executor.
            pool._pool.submit(os._exit, 13).exception(timeout=30)
            contained = pool.run(tasks, Budget(max_steps=500))
            assert contained.pool_restarts >= 1
            assert all(
                outcome.status is InferenceStatus.PROVED
                for outcome in contained.outcomes.values()
            )
            # The rebuilt pool persists: the next batch just works.
            recovered = pool.run(tasks, Budget(max_steps=500))
            assert recovered.pool_restarts == 0
            assert all(
                outcome.status is InferenceStatus.PROVED
                for outcome in recovered.outcomes.values()
            )
        finally:
            pool.close()

    def test_service_reuses_one_pool_across_batches(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        with InferenceService(workers=1) as service:
            service.run_batch([transitivity], [parse_td("R(a, b) & R(b, c) -> R(a, c)")])
            pool = service.pool()
            service.run_batch(
                [transitivity], [parse_td("R(p, q) & R(q, r) -> R(p, r)")]
            )
            assert service.pool() is pool

    def test_serial_service_has_no_pool(self):
        assert InferenceService().pool() is None


class TestShapeMemo:
    def test_submissions_keep_the_shape_memo_bounded(self, monkeypatch):
        monkeypatch.setattr(canonical, "_SHAPE_CACHE", {})
        monkeypatch.setattr(canonical, "_SHAPE_CACHE_MAX", 32)
        service = InferenceService()
        target = parse_td("R(a, b) -> R(b, a)")
        hot = (parse_td("R(x, y) & R(y, z) -> R(x, z)"),)
        first = service.submit(hot, target)
        # Flood the memo past its bound with distinct premise shapes,
        # re-submitting the hot premise set along the way.
        for index in range(40):
            chain = " & ".join(f"R(v{i}, v{i + 1})" for i in range(index + 2))
            filler = (parse_td(f"{chain} -> R(v0, v{index + 2})"),)
            service.submit(filler, target)
            assert service.submit(hot, target) == first
            assert len(canonical._SHAPE_CACHE) <= 32
        service.discard_pending()


class TestScheduler:
    def test_serial_run_decides(self):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        target = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        task = QueryTask(slot=0, dependencies=(transitivity,), target=target)
        run = serial_run([task], Budget(max_steps=500), MetricsRegistry())
        assert run.outcomes[0].status is InferenceStatus.PROVED
        assert run.resumed == set()


class TestCliBatch:
    @pytest.fixture
    def files(self, tmp_path):
        deps = tmp_path / "deps.txt"
        deps.write_text("R(x, y) & R(y, z) -> R(x, z)\n")
        targets = tmp_path / "targets.txt"
        targets.write_text(
            "R(a, b) & R(b, c) -> R(a, c)\n"
            "R(u, v) & R(v, w) -> R(u, w)\n"
            "R(a, b) -> R(b, a)\n"
        )
        return str(deps), str(targets)

    def test_batch_table_and_exit_code(self, files, capsys):
        from repro.cli import EXIT_DISPROVED, main

        deps, targets = files
        code = main(["batch", "--deps", deps, "--targets", targets])
        assert code == EXIT_DISPROVED  # one refuted target dominates
        output = capsys.readouterr().out
        assert "proved" in output and "disproved" in output
        assert "dedup" in output  # the disguised duplicate was not re-chased
        assert "cache" in output

    def test_batch_all_proved_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_PROVED, main

        deps = tmp_path / "deps.txt"
        deps.write_text("R(x, y) & R(y, z) -> R(x, z)\n")
        targets = tmp_path / "targets.txt"
        targets.write_text("R(a, b) & R(b, c) -> R(a, c)\n")
        code = main(["batch", "--deps", str(deps), "--targets", str(targets)])
        assert code == EXIT_PROVED

    def test_batch_empty_targets_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE, main

        deps = tmp_path / "deps.txt"
        deps.write_text("R(x, y) & R(y, z) -> R(x, z)\n")
        targets = tmp_path / "targets.txt"
        targets.write_text("# only comments, no targets\n")
        code = main(["batch", "--deps", str(deps), "--targets", str(targets)])
        assert code == EXIT_USAGE
        assert "no targets" in capsys.readouterr().err

    def test_batch_negative_workers_is_usage_error(self, files, capsys):
        from repro.cli import EXIT_USAGE, main

        deps, targets = files
        code = main(
            ["batch", "--deps", deps, "--targets", targets, "--workers", "-1"]
        )
        assert code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    def test_batch_disk_cache_warms_across_invocations(self, files, tmp_path, capsys):
        from repro.cli import main

        deps, targets = files
        cache = str(tmp_path / "cache.jsonl")
        main(["batch", "--deps", deps, "--targets", targets, "--cache", cache])
        capsys.readouterr()
        main(["batch", "--deps", deps, "--targets", targets, "--cache", cache])
        output = capsys.readouterr().out
        assert "3 cache hit(s)" in output
