"""The ``/proc`` view with ``hidepid`` semantics (paper Section IV-A).

The paper's configuration is ``hidepid=2`` on the ``/proc`` mount, which
"isolates and hides processes and command line entries belonging to other
users or system daemons", plus a ``gid=`` mount flag naming a group that is
*exempt* from the restriction — how the ``seepid`` support tool works
(Section IV-A: a whitelisted set of HPC support personnel may add a
supplemental group to their logon session that is exempt from hidepid).

Linux semantics implemented here, per proc(5):

========  =====================================================================
hidepid   effect for a viewer that does not own the target process
========  =====================================================================
0         everything readable (stock default)
1         ``/proc/<pid>`` directories visible, but their contents
          (cmdline, status, ...) unreadable → EACCES
2         ``/proc/<pid>`` entirely invisible → listing omits it, reads ESRCH
========  =====================================================================

Root and members of the ``gid=`` group always see everything.  hidepid=2 is
what pre-mitigated SLURM CVE-2020-27746 (credentials readable from another
user's command line) on LLSC systems — reproduced as experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.errors import AccessDenied, NoSuchProcess
from repro.kernel.process import Process, ProcessTable
from repro.kernel.users import Credentials
from repro.observer import Observers


@dataclass(frozen=True)
class ProcMountOptions:
    """Options of the /proc mount: ``-o hidepid=N[,gid=G]``."""

    hidepid: int = 0
    gid: int | None = None

    def __post_init__(self):
        if self.hidepid not in (0, 1, 2):
            raise ValueError(f"hidepid must be 0, 1 or 2, got {self.hidepid}")


@dataclass(frozen=True)
class PsEntry:
    """One row of ``ps`` output as assembled from /proc."""

    pid: int
    uid: int
    comm: str
    cmdline: str
    state: str
    rss_mb: int


class ProcFS:
    """Filtered view over a :class:`ProcessTable`.

    For a non-exempt viewer under hidepid the answer only ever contains the
    viewer's own processes, so listings use the table's per-uid index and
    touch O(own processes) instead of the whole node (the E24 procfs hot
    path).  ``naive=True`` keeps the original filter-everything scans as the
    differential-testing reference.
    """

    def __init__(self, table: ProcessTable,
                 options: ProcMountOptions = ProcMountOptions(),
                 naive: bool = False):
        self.table = table
        self.options = options
        self.naive = naive
        #: optional planes (repro.observer) shown every listing and read
        self.observers = Observers()

    # -- visibility predicates ----------------------------------------------

    def _exempt(self, viewer: Credentials) -> bool:
        if viewer.is_root:
            return True
        gid = self.options.gid
        return gid is not None and (viewer.in_group(gid) or viewer.proc_exempt)

    def pid_visible(self, viewer: Credentials, proc: Process) -> bool:
        """May *viewer* see that this pid exists (i.e. the /proc/<pid> dir)?"""
        if self.options.hidepid < 2 or self._exempt(viewer):
            return True
        return proc.creds.uid == viewer.uid

    def pid_readable(self, viewer: Credentials, proc: Process) -> bool:
        """May *viewer* read /proc/<pid>/* contents?"""
        if self.options.hidepid == 0 or self._exempt(viewer):
            return True
        return proc.creds.uid == viewer.uid

    # -- reads ---------------------------------------------------------------

    def list_pids(self, viewer: Credentials) -> list[int]:
        """Directory listing of /proc — the pids *viewer* can see."""
        if (not self.naive and self.options.hidepid == 2
                and not self._exempt(viewer)):
            # hidepid=2 hides everything but the viewer's own processes.
            procs = self.table.of_user(viewer.uid)
        else:
            procs = [p for p in self.table.processes()
                     if self.pid_visible(viewer, p)]
        for f in self.observers.procfs_viewed:
            f(self, viewer, procs, "list_pids")
        return [p.pid for p in procs]

    def _lookup(self, viewer: Credentials, pid: int) -> Process:
        try:
            proc = self.table.get(pid)
        except NoSuchProcess:
            raise
        if not proc.alive:
            raise NoSuchProcess(f"pid {pid}")
        if not self.pid_visible(viewer, proc):
            # hidepid=2: indistinguishable from a nonexistent process
            raise NoSuchProcess(f"pid {pid}")
        return proc

    def read_cmdline(self, viewer: Credentials, pid: int) -> str:
        """/proc/<pid>/cmdline — the CVE-2020-27746 leak channel."""
        proc = self._lookup(viewer, pid)
        if not self.pid_readable(viewer, proc):
            raise AccessDenied(f"/proc/{pid}/cmdline")
        for f in self.observers.procfs_viewed:
            f(self, viewer, [proc], "read")
        return proc.cmdline

    def read_status(self, viewer: Credentials, pid: int) -> dict[str, object]:
        proc = self._lookup(viewer, pid)
        if not self.pid_readable(viewer, proc):
            raise AccessDenied(f"/proc/{pid}/status")
        for f in self.observers.procfs_viewed:
            f(self, viewer, [proc], "read")
        return {
            "Name": proc.comm,
            "Pid": proc.pid,
            "PPid": proc.ppid,
            "Uid": proc.creds.uid,
            "Gid": proc.creds.egid,
            "State": proc.state.value,
            "VmRSS": proc.rss_mb,
        }

    def ps(self, viewer: Credentials) -> list[PsEntry]:
        """What ``ps aux`` shows *viewer*: one row per readable process;
        under hidepid=1 other users' pids appear but without detail rows
        (real ``ps`` silently skips unreadable /proc entries, so they are
        omitted from output just like under hidepid=2 — the difference is
        observable via :meth:`list_pids`)."""
        if (not self.naive and self.options.hidepid in (1, 2)
                and not self._exempt(viewer)):
            # Only the viewer's own rows survive the readability filter.
            procs = self.table.of_user(viewer.uid)
        else:
            procs = [p for p in self.table.processes()
                     if self.pid_visible(viewer, p)
                     and self.pid_readable(viewer, p)]
        for f in self.observers.procfs_viewed:
            f(self, viewer, procs, "ps")
        return [PsEntry(pid=proc.pid, uid=proc.creds.uid,
                        comm=proc.comm, cmdline=proc.cmdline,
                        state=proc.state.value, rss_mb=proc.rss_mb)
                for proc in procs]

    def visible_users(self, viewer: Credentials) -> set[int]:
        """Distinct uids whose activity *viewer* can observe — the headline
        information-leak metric of experiment E1."""
        if (not self.naive and self.options.hidepid in (1, 2)
                and not self._exempt(viewer)):
            uids = {viewer.uid} if self.table.of_user(viewer.uid) else set()
        else:
            uids = {p.uid for p in self.ps(viewer)}
        for f in self.observers.procfs_viewed:
            f(self, viewer, (), "visible_users", uids=uids)
        return uids

    # -- aggregate files (hidepid does NOT hide these) ------------------------

    def loadavg(self, viewer: Credentials) -> dict[str, int]:
        """/proc/loadavg-shaped aggregate: world-readable under every
        hidepid level.  This is exactly why hidepid alone doesn't let staff
        *attribute* load — they can see THAT the node is busy, but need the
        seepid exemption to see WHO (Section IV-A)."""
        procs = self.table.processes()
        return {
            "running": sum(1 for p in procs
                           if p.state.value == "R" and not p.is_daemon),
            "total": len(procs),
        }

    def meminfo(self, viewer: Credentials) -> dict[str, int]:
        """/proc/meminfo-shaped aggregate (MB)."""
        return {"used_mb": self.table.total_rss_mb()}
