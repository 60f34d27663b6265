"""errno-style exceptions raised by the simulated kernel.

Every enforcement point in the simulated substrate (VFS, process table,
procfs, network stack, scheduler PAM hooks) raises one of these rather than
returning sentinel values, mirroring how a real Linux syscall surfaces
``-EPERM``/``-EACCES``/... to userspace.  The probes of the attack catalog
(:mod:`repro.core.attacks`: E14's battery and the numbered adversaries
A1–A14) catch :class:`KernelError` broadly and put the error observed in
their detail string.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for simulated-kernel errors.

    Attributes
    ----------
    errno:
        Numeric errno matching the Linux value (``EPERM == 1`` etc.).
    errname:
        Symbolic name (``"EPERM"``).
    """

    errno: int = -1
    errname: str = "E???"

    def __init__(self, message: str = ""):
        self.message = message
        super().__init__(f"[{self.errname}] {message}" if message else self.errname)


class PermissionError_(KernelError):
    """EPERM: operation not permitted (ownership / capability failure)."""

    errno = 1
    errname = "EPERM"


class NoSuchEntity(KernelError):
    """ENOENT: no such file, directory, process, or object."""

    errno = 2
    errname = "ENOENT"


class NoSuchProcess(KernelError):
    """ESRCH: no such process (also used when hidepid hides a pid)."""

    errno = 3
    errname = "ESRCH"


class AccessDenied(KernelError):
    """EACCES: permission bits / ACL / firewall denied the access."""

    errno = 13
    errname = "EACCES"


class Exists(KernelError):
    """EEXIST: object already exists."""

    errno = 17
    errname = "EEXIST"


class NotADirectory(KernelError):
    """ENOTDIR: path component is not a directory."""

    errno = 20
    errname = "ENOTDIR"


class IsADirectory(KernelError):
    """EISDIR: tried to treat a directory as a regular file."""

    errno = 21
    errname = "EISDIR"


class InvalidArgument(KernelError):
    """EINVAL: malformed request."""

    errno = 22
    errname = "EINVAL"


class NotEmpty(KernelError):
    """ENOTEMPTY: directory not empty."""

    errno = 39
    errname = "ENOTEMPTY"


class AddressInUse(KernelError):
    """EADDRINUSE: port already bound."""

    errno = 98
    errname = "EADDRINUSE"


class ConnectionRefused(KernelError):
    """ECONNREFUSED: nothing listening on the destination port."""

    errno = 111
    errname = "ECONNREFUSED"


class TimedOut(KernelError):
    """ETIMEDOUT: dropped by a firewall (silent drop looks like a timeout)."""

    errno = 110
    errname = "ETIMEDOUT"


class NotConnected(KernelError):
    """ENOTCONN: socket is not connected."""

    errno = 107
    errname = "ENOTCONN"


class QuotaExceeded(KernelError):
    """EDQUOT / ENOMEM stand-in: resource limit exceeded (e.g. node OOM)."""

    errno = 122
    errname = "EDQUOT"
