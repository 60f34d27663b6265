"""Per-node process table: fork/exec, signals, exit.

Processes carry the :class:`~repro.kernel.users.Credentials` every kernel
enforcement point consumes, plus the command line that Section IV-A worries
about leaking ("many job properties could contain private information
including username, jobname, command, working directory path").  The
``/proc`` *view* of this table — where hidepid applies — lives in
:mod:`repro.kernel.procfs`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.kernel.errors import NoSuchProcess, PermissionError_
from repro.kernel.users import Credentials

SIGKILL = 9
SIGTERM = 15


class ProcState(enum.Enum):
    """Lifecycle state of a simulated process."""

    RUNNING = "R"
    SLEEPING = "S"
    ZOMBIE = "Z"
    DEAD = "X"


@dataclass
class Process:
    """One process on one node."""

    pid: int
    ppid: int
    creds: Credentials
    argv: list[str]
    cwd: str = "/"
    state: ProcState = ProcState.RUNNING
    job_id: int | None = None
    is_daemon: bool = False  # system daemon (owned by root or service uids)
    rss_mb: int = 10
    environ: dict[str, str] = field(default_factory=dict)
    exit_code: int | None = None
    #: each socket the process holds open — bound sockets and the TCP
    #: connections it is either end of — mapped to the call that releases
    #: it; exit makes every call (None until the process holds one)
    sockets: dict | None = field(default=None, repr=False, compare=False)

    @property
    def comm(self) -> str:
        """Executable short name, as in /proc/<pid>/comm."""
        return self.argv[0].rsplit("/", 1)[-1][:15] if self.argv else "?"

    @property
    def cmdline(self) -> str:
        return " ".join(self.argv)

    @property
    def alive(self) -> bool:
        return self.state in (ProcState.RUNNING, ProcState.SLEEPING)


class ProcessTable:
    """All processes on a single node.

    ``spawn`` is fork+exec fused; ``kill`` enforces the standard Linux
    rule that an unprivileged sender may only signal processes with a
    matching uid.
    """

    def __init__(self, node_name: str = "node"):
        self.node_name = node_name
        self._pids = itertools.count(2)
        # Live processes only: reap drops a process from every index, so
        # procfs queries for a non-exempt viewer and the scheduler epilog
        # never scan what already exited.
        self._procs: dict[int, Process] = {}         # pid -> live process
        #: the process reaped last, which :meth:`get` still returns (a
        #: caller may read the owner of a pid it listed just before the
        #: exit); every earlier exit is gone
        self._last_exit: Process | None = None
        self._by_uid: dict[int, dict[int, Process]] = {}
        self._by_job: dict[int, set[int]] = {}       # job_id -> live pids
        self._rss_mb = 0
        # pid 1: init, root-owned, always present
        self._index(Process(pid=1, ppid=0,
                            creds=Credentials(uid=0, egid=0,
                                              groups=frozenset({0})),
                            argv=["/sbin/init"], is_daemon=True))

    def _index(self, proc: Process) -> None:
        self._procs[proc.pid] = proc
        self._by_uid.setdefault(proc.creds.uid, {})[proc.pid] = proc
        if proc.job_id is not None:
            self._by_job.setdefault(proc.job_id, set()).add(proc.pid)
        self._rss_mb += proc.rss_mb

    def _unindex(self, proc: Process) -> None:
        owned = self._by_uid.get(proc.creds.uid)
        if owned is not None:
            owned.pop(proc.pid, None)
            if not owned:
                del self._by_uid[proc.creds.uid]
        if proc.job_id is not None:
            pids = self._by_job.get(proc.job_id)
            if pids is not None:
                pids.discard(proc.pid)
                if not pids:
                    del self._by_job[proc.job_id]
        self._rss_mb -= proc.rss_mb

    def spawn(self, creds: Credentials, argv: list[str], *, ppid: int = 1,
              cwd: str = "/", job_id: int | None = None,
              daemon: bool = False, rss_mb: int = 10,
              environ: dict[str, str] | None = None) -> Process:
        pid = next(self._pids)
        proc = Process(pid=pid, ppid=ppid, creds=creds, argv=list(argv),
                       cwd=cwd, job_id=job_id, is_daemon=daemon,
                       rss_mb=rss_mb, environ=dict(environ or {}))
        self._index(proc)
        return proc

    def get(self, pid: int) -> Process:
        """The live process *pid*, or the one reaped last."""
        proc = self._procs.get(pid)
        if proc is None:
            proc = self._last_exit
            if proc is None or proc.pid != pid:
                raise NoSuchProcess(f"pid {pid}")
        return proc

    def exists(self, pid: int) -> bool:
        return pid in self._procs

    def pids(self) -> list[int]:
        """All live pids — the *kernel's* view; procfs filters this."""
        return sorted(self._procs)

    def processes(self) -> list[Process]:
        return [self._procs[p] for p in sorted(self._procs)]

    def kill(self, sender: Credentials, pid: int, sig: int = SIGTERM) -> None:
        """Signal *pid*; unprivileged senders need a uid match."""
        proc = self._procs.get(pid)
        if proc is None:
            raise NoSuchProcess(f"pid {pid}")
        if not sender.is_root and sender.uid != proc.creds.uid:
            raise PermissionError_(
                f"uid {sender.uid} may not signal pid {pid} (uid {proc.creds.uid})"
            )
        if sig in (SIGKILL, SIGTERM):
            self.reap(pid, exit_code=-sig)

    def reap(self, pid: int, exit_code: int = 0) -> None:
        """Exit *pid*: it leaves the table, marked dead on the caller's
        :class:`Process`, and every socket it holds closes.  Reaping a
        pid that is not live does nothing."""
        proc = self._procs.pop(pid, None)
        if proc is None:
            return
        self._last_exit = proc
        self._unindex(proc)
        proc.state = ProcState.DEAD
        proc.exit_code = exit_code
        held = proc.sockets
        if held is not None:
            proc.sockets = None  # so no release pops from the dict walked
            for handle, release in held.items():
                release(handle)

    def kill_job(self, job_id: int) -> list[int]:
        """Kernel-side cleanup of every process of a job (scheduler epilog).

        O(job's own processes) via the per-job index — not a scan of every
        process ever spawned on the node."""
        killed = sorted(self._by_job.get(job_id, ()))
        for pid in killed:
            self.reap(pid, exit_code=-SIGKILL)
        return killed

    def reap_orphans(self, live_job_ids: set[int]) -> list[int]:
        """Reap every job-owned process whose job is not in *live_job_ids*.

        Node remediation after a crash: daemons and init survive the reboot
        model, job residue does not.  The caller passes the job ids that
        still hold an allocation on this node (for a fenced node that set is
        empty — a requeued job restarted *elsewhere* must not shield its
        stale processes here).  Reaping goes through the normal indexes, so
        procfs views resync for free.  Returns the reaped pids.
        """
        doomed = sorted(pid for jid, pids in self._by_job.items()
                        if jid not in live_job_ids for pid in pids)
        for pid in doomed:
            self.reap(pid, exit_code=-SIGKILL)
        return doomed

    def of_user(self, uid: int) -> list[Process]:
        """Live processes of *uid*, pid-sorted — O(own processes)."""
        owned = self._by_uid.get(uid, {})
        return [owned[p] for p in sorted(owned)]

    def total_rss_mb(self) -> int:
        return self._rss_mb
