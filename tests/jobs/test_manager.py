"""JobManager lifecycle: submit/status/result/cancel, idempotency,
admission control, crash-restart recovery, and slot accounting.

All tests run thread-mode workers (fast, deterministic); the process-mode
path is exercised end-to-end by ``scripts/check_chaos_jobs.py``.  Slow
jobs are manufactured with a ``sleep`` fault on the ``jobs.step`` site —
the worker passes its attempt explicitly, so the fault fires at *every*
step of attempt 0, stretching the job without any timing guesswork.
"""

from __future__ import annotations

import pytest

from repro.jobs.errors import JobConflict, JobNotDone, JobNotFound, JobQueueFull
from repro.jobs.journal import JobJournal, summarize
from repro.jobs.manager import JobManager
from repro.jobs.select import run_to_completion
from repro.jobs.spec import JobSpec
from repro.runtime.faults import FaultSpec, fault_scope

from tests.jobs.conftest import wait_drained, wait_state, wait_terminal

CELFPP = {"model": "celfpp", "k": 4}


def _slow(job_id: str, seconds: float = 0.2) -> list[FaultSpec]:
    return [
        FaultSpec(site="jobs.step", kind="sleep", key=job_id, seconds=seconds)
    ]


class TestLifecycle:
    def test_submit_runs_to_done(self, manager_factory, index):
        manager = manager_factory()
        view = manager.submit(CELFPP)
        assert view["state"] == "queued"
        assert view["model"] == "celfpp"
        final = wait_terminal(manager, view["id"])
        assert final["state"] == "done"
        assert final["steps"] == 4
        assert final["attempts"] == 1
        result = manager.result(view["id"])
        reference = run_to_completion(
            JobSpec.from_payload(CELFPP, index.num_nodes), index
        )
        assert result["result"]["seeds"] == reference["seeds"]
        wait_drained(manager)
        assert manager.healthz() == {
            "mode": "thread",
            "queued": 0,
            "running": 0,
            "max_queued": 16,
            "max_running": 2,
        }

    def test_result_before_done_conflicts(self, manager_factory):
        manager = manager_factory()
        job_id = manager.submit(CELFPP)["id"]
        # Whether or not the worker finished yet, the *queued* snapshot we
        # took is enough: poll a fresh slow job instead for determinism.
        slow_id = None
        with fault_scope(_slow("j000002", 10.0)):
            slow_id = manager.submit({"model": "celfpp", "k": 3})["id"]
            with pytest.raises(JobNotDone):
                manager.result(slow_id)
            manager.cancel(slow_id)
        wait_terminal(manager, job_id)
        wait_terminal(manager, slow_id)

    def test_unknown_and_malformed_ids(self, manager_factory):
        manager = manager_factory()
        with pytest.raises(JobNotFound):
            manager.status("j999999")
        with pytest.raises(JobNotFound):
            manager.status("../../etc/passwd")
        with pytest.raises(JobNotFound):
            manager.cancel("nope nope")

    def test_list_jobs(self, manager_factory):
        manager = manager_factory()
        first = manager.submit(CELFPP)["id"]
        second = manager.submit({"model": "greedy_tc", "k": 2})["id"]
        wait_terminal(manager, first)
        wait_terminal(manager, second)
        listing = manager.list_jobs()
        assert listing["count"] == 2
        by_id = {row["id"]: row for row in listing["jobs"]}
        assert by_id[first]["state"] == "done"
        assert by_id[second]["model"] == "greedy_tc"

    def test_slow_journal_write_does_not_orphan_the_job(self, manager_factory):
        # The sleep holds the submission between admission and its submit
        # record for longer than the scheduler's 0.5 s wait, so a scheduler
        # that could already see the id would pop it, find no journal and
        # drop it, leaving the job queued forever.
        manager = manager_factory()
        plan = [
            FaultSpec(site="jobs.submit", kind="sleep", key="j000001", seconds=1.2)
        ]
        with fault_scope(plan):
            view = manager.submit(CELFPP)
        assert view["state"] == "queued"
        assert wait_terminal(manager, view["id"], timeout=15.0)["state"] == "done"
        wait_drained(manager)


class TestIdempotency:
    def test_duplicate_key_returns_same_job(self, manager_factory):
        manager = manager_factory()
        payload = {**CELFPP, "idempotency_key": "batch-7"}
        first = manager.submit(payload)
        second = manager.submit(payload)
        assert second["id"] == first["id"]
        assert second["deduplicated"] is True
        assert "deduplicated" not in first
        wait_terminal(manager, first["id"])

    def test_key_reuse_with_different_spec_conflicts(self, manager_factory):
        manager = manager_factory()
        manager.submit({**CELFPP, "idempotency_key": "batch-7"})
        with pytest.raises(JobConflict):
            manager.submit(
                {"model": "celfpp", "k": 5, "idempotency_key": "batch-7"}
            )
        wait_drained(manager)

    def test_dedup_survives_restart(self, manager_factory, tmp_path):
        jobs_dir = tmp_path / "restartable"
        manager = manager_factory(jobs_dir=jobs_dir)
        payload = {**CELFPP, "idempotency_key": "batch-7"}
        job_id = manager.submit(payload)["id"]
        wait_terminal(manager, job_id)
        manager.stop()
        reborn = manager_factory(jobs_dir=jobs_dir)
        view = reborn.submit(payload)
        assert view["id"] == job_id
        assert view["deduplicated"] is True


class TestCancellation:
    def test_cancel_queued_job(self, manager_factory):
        manager = manager_factory(max_running=1)
        with fault_scope(_slow("j000001", 10.0)):
            blocker = manager.submit(CELFPP)["id"]
            queued = manager.submit({"model": "greedy_tc", "k": 3})["id"]
            view = manager.cancel(queued)
            assert view["state"] == "cancelled"
            manager.cancel(blocker)
        assert wait_terminal(manager, blocker)["state"] == "cancelled"
        wait_drained(manager)

    def test_cancel_running_job_frees_slot(self, manager_factory):
        manager = manager_factory(max_running=1)
        with fault_scope(_slow("j000001", 0.2)):
            running = manager.submit({"model": "celfpp", "k": 50})["id"]
            manager.cancel(running)
            final = wait_terminal(manager, running)
        assert final["state"] == "cancelled"
        # The freed slot admits and completes new work.
        after = manager.submit(CELFPP)["id"]
        assert wait_terminal(manager, after)["state"] == "done"
        wait_drained(manager)

    def test_cancel_done_job_is_a_noop(self, manager_factory):
        manager = manager_factory()
        job_id = manager.submit(CELFPP)["id"]
        wait_terminal(manager, job_id)
        view = manager.cancel(job_id)
        assert view["state"] == "done"


class TestAdmission:
    def test_queue_full_rejects_with_retryable(self, manager_factory):
        manager = manager_factory(max_running=1, max_queued=1)
        with fault_scope(_slow("j000001", 10.0)):
            running = manager.submit(CELFPP)["id"]
            # The drive loop must promote the first job out of the queue
            # before it can occupy the running slot; submitting the second
            # job earlier would hit the queue bound instead of filling it.
            wait_state(manager, running, "running")
            queued = manager.submit({"model": "greedy_tc", "k": 2})["id"]
            with pytest.raises(JobQueueFull):
                manager.submit({"model": "greedy_tc", "k": 3})
            manager.cancel(queued)
            manager.cancel(running)
        wait_terminal(manager, running)
        wait_drained(manager)

    def test_bad_payload_rejected_before_admission(self, manager_factory):
        from repro.serve.errors import BadRequest

        manager = manager_factory()
        with pytest.raises(BadRequest):
            manager.submit({"model": "nope", "k": 3})
        with pytest.raises(BadRequest):
            manager.submit({"model": "celfpp", "k": 0})
        with pytest.raises(BadRequest):
            manager.submit({"model": "celfpp"})
        assert manager.healthz()["queued"] == 0


class TestRecovery:
    def test_restart_reenqueues_unfinished_jobs(self, manager_factory, tmp_path, index):
        jobs_dir = tmp_path / "recover"
        manager = manager_factory(jobs_dir=jobs_dir, max_running=1)
        with fault_scope(_slow("j000001", 30.0)):
            stuck = manager.submit(CELFPP)["id"]
            queued = manager.submit({"model": "greedy_tc", "k": 3})["id"]
            manager.stop(timeout=0.2)
        # A fresh manager over the same directory adopts both jobs and
        # finishes them with the exact uninterrupted-reference results.
        reborn = manager_factory(jobs_dir=jobs_dir, max_running=2)
        assert wait_terminal(reborn, stuck)["state"] == "done"
        assert wait_terminal(reborn, queued)["state"] == "done"
        ref = run_to_completion(
            JobSpec.from_payload(CELFPP, index.num_nodes), index
        )
        assert reborn.result(stuck)["result"]["seeds"] == ref["seeds"]
        wait_drained(reborn)

    def test_retryable_failures_back_off_then_give_up(self, manager_factory):
        plan = [
            FaultSpec(
                site="jobs.step",
                kind="error",
                key="j000001",
                attempts=(0, 1, 2, 3),
            )
        ]
        manager = manager_factory(max_retries=2)
        with fault_scope(plan):
            job_id = manager.submit(CELFPP)["id"]
            final = wait_terminal(manager, job_id)
        assert final["state"] == "failed-permanent"
        assert final["attempts"] == 3  # initial + 2 retries
        assert "gave up" in final["error"]
        wait_drained(manager)

    def test_transient_failure_recovers(self, manager_factory, index):
        plan = [
            FaultSpec(site="jobs.step", kind="error", key="j000001", attempts=(0,))
        ]
        manager = manager_factory(max_retries=3)
        with fault_scope(plan):
            job_id = manager.submit(CELFPP)["id"]
            final = wait_terminal(manager, job_id)
        assert final["state"] == "done"
        assert final["attempts"] == 2
        ref = run_to_completion(
            JobSpec.from_payload(CELFPP, index.num_nodes), index
        )
        assert manager.result(job_id)["result"]["seeds"] == ref["seeds"]

    def test_journal_reflects_manager_view(self, manager_factory, tmp_path):
        jobs_dir = tmp_path / "mirror"
        manager = manager_factory(jobs_dir=jobs_dir)
        job_id = manager.submit(CELFPP)["id"]
        final = wait_terminal(manager, job_id)
        records = JobJournal(jobs_dir / job_id).replay()
        view = summarize(records)
        assert view["state"] == final["state"] == "done"
        assert view["steps"] == final["steps"]
