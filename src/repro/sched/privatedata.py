"""Slurm-style ``PrivateData`` visibility filtering (paper Section IV-B).

"The PrivateData configuration is used to restrict globally visible
scheduler information, thereby hiding other users' jobs, usage, scheduling,
information, accounting information, etc."

:func:`squeue` and :func:`sacct` are the user-facing query commands; with
the corresponding PrivateData flag set, a non-privileged viewer sees only
their own rows.  Administrators (root) and designated Slurm *operators*
always see everything — that is how LLSC support staff do their jobs.

A plain viewer's filtered ``squeue`` costs O(own jobs): it reads the
scheduler's per-uid index of unfinished jobs
(:meth:`~repro.sched.scheduler.Scheduler.live_jobs`) instead of walking
every other user's jobs just to hide them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.users import User
from repro.sched.accounting import UsageRecord
from repro.sched.jobs import Job, JobState
from repro.sched.scheduler import Scheduler


@dataclass(frozen=True)
class PrivateData:
    """Which categories are hidden from other users (all True = paper)."""

    jobs: bool = False
    usage: bool = False
    users: bool = False

    @classmethod
    def all_private(cls) -> "PrivateData":
        return cls(jobs=True, usage=True, users=True)


@dataclass(frozen=True)
class JobRow:
    """One squeue row as shown to a viewer."""

    job_id: int
    user_name: str
    job_name: str
    state: JobState
    command: str
    workdir: str
    nodes: tuple[str, ...]


@dataclass
class SchedulerView:
    """Query façade over a scheduler for a given PrivateData config."""

    scheduler: Scheduler
    private: PrivateData = field(default_factory=PrivateData)
    operators: frozenset[int] = frozenset()

    def _privileged(self, viewer: User) -> bool:
        return viewer.is_root or viewer.uid in self.operators

    def sees_all_jobs(self, viewer: User) -> bool:
        """PrivateData.jobs hides nobody's jobs from *viewer*."""
        return not self.private.jobs or self._privileged(viewer)

    def sees_job(self, viewer: User, job: Job) -> bool:
        """*job* exists as far as *viewer* can tell."""
        return job.uid == viewer.uid or self.sees_all_jobs(viewer)

    def squeue(self, viewer: User) -> list[JobRow]:
        """Pending + running jobs visible to *viewer*, in job-id order.

        A plain viewer under ``PrivateData.jobs`` reads only their own
        entry of the scheduler's per-uid live index; root, operators and
        PrivateData-off walk every job."""
        if not self.sees_all_jobs(viewer):
            jobs = self.scheduler.live_jobs(viewer.uid)
        else:
            jobs = [j for j in self.scheduler.jobs.values()
                    if not j.state.finished]
        return [JobRow(job_id=job.job_id, user_name=job.spec.user.name,
                       job_name=job.spec.name, state=job.state,
                       command=job.spec.command, workdir=job.spec.workdir,
                       nodes=tuple(job.nodes))
                for job in jobs]

    def sacct(self, viewer: User) -> list[UsageRecord]:
        """Accounting rows visible to *viewer*."""
        db = self.scheduler.accounting
        if self.private.usage and not self._privileged(viewer):
            return db.user_records(viewer.uid)
        return db.all_records()

    def sreport(self, viewer: User, *, t_end: float,
                n_buckets: int = 10):
        """Usage summary over the viewer-visible accounting records.

        PrivateData gating is inherited from :meth:`sacct`: a plain user
        summarises only their own usage; operators/root see the fleet.
        """
        from repro.sched.accounting import usage_summary
        return usage_summary(self.sacct(viewer), t_end=t_end,
                             n_buckets=n_buckets)

    def sreport_users(self, viewer: User) -> set[str]:
        """Which usernames the viewer can enumerate through the scheduler."""
        if self.private.users and not self._privileged(viewer):
            return {viewer.name}
        return {j.spec.user.name for j in self.scheduler.jobs.values()}
