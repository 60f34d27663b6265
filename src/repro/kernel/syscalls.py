"""The syscall façade: what user code (workloads, attack probes) calls.

A :class:`SyscallInterface` binds a process on a node and exposes the
filesystem / process / signal / group surface with that process's
credentials.  Keeping all enforcement behind one façade mirrors the paper's
stance that controls must be "enforced at a system level" rather than left
to application code — probes cannot reach an inode or a process table except
through these calls.

Network syscalls (socket/bind/connect) live on the
:class:`repro.net.stack.HostStack` attached to the node; :meth:`socket` is a
convenience forwarder.

An :class:`ObservedSyscalls` façade reports every call's outcome to its
``observers`` (:mod:`repro.observer`): the cluster opens one for telemetry,
and :func:`repro.monitor.wiring.audited_session` one for the event log.
A spawned child's façade is its parent's, rebound to the child.
"""

from __future__ import annotations

import copy

from repro.kernel.errors import (
    AccessDenied,
    InvalidArgument,
    NoSuchProcess,
    PermissionError_,
)
from repro.kernel.process import Process, SIGTERM
from repro.kernel.procfs import PsEntry
from repro.kernel.node import LinuxNode
from repro.kernel.users import Credentials
from repro.kernel.vfs import AclEntry, Stat, stat_of
from repro.observer import as_observers


class SyscallInterface:
    """Typed handle to the kernel for one process."""

    def __init__(self, node: LinuxNode, process: Process):
        self.node = node
        self.process = process
        #: the mount namespace every file syscall resolves in (a
        #: container's façade swaps in the container's VFS)
        self.vfs = node.vfs

    @property
    def creds(self) -> Credentials:
        return self.process.creds

    # -- filesystem ----------------------------------------------------------

    def open_read(self, path: str) -> bytes:
        return self.vfs.read(path, self.creds)

    def open_write(self, path: str, data: bytes, *, append: bool = False) -> int:
        return self.vfs.write(path, self.creds, data, append=append)

    def create(self, path: str, *, mode: int = 0o666, data: bytes = b"") -> Stat:
        return stat_of(self.vfs.create(path, self.creds, mode=mode,
                                       data=data))

    def mkdir(self, path: str, *, mode: int = 0o777) -> Stat:
        return stat_of(self.vfs.mkdir(path, self.creds, mode=mode))

    def unlink(self, path: str) -> None:
        self.vfs.unlink(path, self.creds)

    def listdir(self, path: str) -> list[str]:
        return self.vfs.listdir(path, self.creds)

    def stat(self, path: str) -> Stat:
        return self.vfs.stat(path, self.creds)

    def lstat(self, path: str) -> Stat:
        return self.vfs.lstat(path, self.creds)

    def symlink(self, target: str, linkpath: str) -> None:
        self.vfs.symlink(target, linkpath, self.creds)

    def readlink(self, path: str) -> str:
        return self.vfs.readlink(path, self.creds)

    def link(self, oldpath: str, newpath: str) -> None:
        self.vfs.link(oldpath, newpath, self.creds)

    def rename(self, oldpath: str, newpath: str) -> None:
        self.vfs.rename(oldpath, newpath, self.creds)

    def chmod(self, path: str, mode: int) -> int:
        return self.vfs.chmod(path, self.creds, mode)

    def chown(self, path: str, *, uid: int | None = None,
              gid: int | None = None) -> None:
        self.vfs.chown(path, self.creds, uid=uid, gid=gid)

    def setfacl(self, path: str, entry: AclEntry) -> None:
        self.vfs.setfacl(path, self.creds, entry)

    def getfacl(self, path: str) -> list[AclEntry]:
        return self.vfs.getfacl(path, self.creds)

    def access(self, path: str, want: int) -> bool:
        return self.vfs.access(path, self.creds, want)

    def umask(self, new_umask: int) -> None:
        self.process.creds = self.creds.with_umask(new_umask)

    # -- processes / proc ------------------------------------------------------

    def ps(self) -> list[PsEntry]:
        return self.node.procfs.ps(self.creds)

    def list_proc_pids(self) -> list[int]:
        return self.node.procfs.list_pids(self.creds)

    def read_proc_cmdline(self, pid: int) -> str:
        return self.node.procfs.read_cmdline(self.creds, pid)

    def read_proc_status(self, pid: int) -> dict[str, object]:
        return self.node.procfs.read_status(self.creds, pid)

    def kill(self, pid: int, sig: int = SIGTERM) -> None:
        self.node.procs.kill(self.creds, pid, sig)

    def spawn_child(self, argv: list[str], *, rss_mb: int = 10) -> "SyscallInterface":
        """Spawn a child of this process.  Its façade is this one rebound
        to the child: same class, node, mount namespace and observers."""
        child = self.node.procs.spawn(self.creds, argv,
                                      ppid=self.process.pid,
                                      cwd=self.process.cwd,
                                      job_id=self.process.job_id,
                                      rss_mb=rss_mb)
        facade = copy.copy(self)
        facade.process = child
        return facade

    def exit(self, code: int = 0) -> None:
        self.node.procs.reap(self.process.pid, exit_code=code)

    # -- group identity (newgrp / sg) ------------------------------------------

    def newgrp(self, gid: int) -> None:
        """Switch the effective gid (Section IV-D: 'the primary group of the
        listening process can be controlled via standard Linux tools such as
        newgrp or sg')."""
        self.process.creds = self.creds.with_egid(gid)

    # -- network ----------------------------------------------------------------

    def socket(self):
        """Return the node's network endpoint bound to this process."""
        if self.node.net is None:
            raise InvalidArgument(f"node {self.node.name} has no network stack")
        return self.node.net.endpoint(self.process)


class ObservedSyscalls(SyscallInterface):
    """A façade that reports the outcome of every call to its observers.

    Each public method of :class:`SyscallInterface` is overridden once, at
    import, by one that calls the base method and then reports
    :meth:`~repro.observer.Observer.syscall_allowed` if it returned or
    :meth:`~repro.observer.Observer.syscall_denied` if it raised
    :class:`AccessDenied`, :class:`PermissionError_` or
    :class:`NoSuchProcess`.  Arguments, results and exceptions pass
    through untouched.  ``observers`` is fixed when the façade opens, and
    a spawned child's façade reports to the same container.
    """

    def __init__(self, node: LinuxNode, process: Process, observers):
        super().__init__(node, process)
        self.observers = as_observers(observers)


def _observed(name: str, method):
    """*method* of :class:`SyscallInterface`, reporting its outcome."""
    def call(self, *args, **kwargs):
        try:
            result = method(self, *args, **kwargs)
        except (AccessDenied, PermissionError_, NoSuchProcess) as exc:
            for f in self.observers.syscall_denied:
                f(self, name, args, exc)
            raise
        for f in self.observers.syscall_allowed:
            f(self, name)
        return result

    call.__name__, call.__doc__ = name, method.__doc__
    return call


for _name, _method in vars(SyscallInterface).items():
    if callable(_method) and not _name.startswith("_"):
        setattr(ObservedSyscalls, _name, _observed(_name, _method))
del _name, _method
