"""Simulated Linux kernel substrate (per-node).

Public surface: users/groups (:mod:`repro.kernel.users`), VFS with DAC +
smask (:mod:`repro.kernel.vfs`, :mod:`repro.kernel.smask`), process table
and hidepid-aware /proc (:mod:`repro.kernel.process`,
:mod:`repro.kernel.procfs`), PAM (:mod:`repro.kernel.pam`), nodes
(:mod:`repro.kernel.node`) and the syscall façade
(:mod:`repro.kernel.syscalls`).
"""

from repro.kernel.errors import (
    AccessDenied,
    AddressInUse,
    ConnectionRefused,
    Exists,
    InvalidArgument,
    IsADirectory,
    KernelError,
    NoSuchEntity,
    NoSuchProcess,
    NotADirectory,
    PermissionError_,
    TimedOut,
)
from repro.kernel.node import LinuxNode, NodeRole, NodeSpec, ROOT_CREDS
from repro.kernel.pam import PamSlurm, PamSmask, PamStack, PamUnix
from repro.kernel.process import Process, ProcessTable, SIGKILL, SIGTERM
from repro.kernel.procfs import ProcFS, ProcMountOptions, PsEntry
from repro.kernel.smask import (
    FilePermissionHandler,
    LLSC_KERNEL,
    PAPER_SMASK,
    RELAXED_SMASK,
    STOCK_KERNEL,
)
from repro.kernel.syscalls import ObservedSyscalls, SyscallInterface
from repro.kernel.users import Credentials, Group, User, UserDB
from repro.kernel.vfs import (
    AclEntry,
    FileKind,
    Filesystem,
    R_OK,
    S_ISGID,
    S_ISUID,
    S_ISVTX,
    Stat,
    VFS,
    W_OK,
    X_OK,
    check_access,
)

__all__ = [
    "AccessDenied", "AddressInUse", "ConnectionRefused", "Exists",
    "InvalidArgument", "IsADirectory", "KernelError", "NoSuchEntity",
    "NoSuchProcess", "NotADirectory", "PermissionError_", "TimedOut",
    "LinuxNode", "NodeRole", "NodeSpec", "ROOT_CREDS",
    "PamSlurm", "PamSmask", "PamStack", "PamUnix",
    "Process", "ProcessTable", "SIGKILL", "SIGTERM",
    "ProcFS", "ProcMountOptions", "PsEntry",
    "FilePermissionHandler", "LLSC_KERNEL", "PAPER_SMASK", "RELAXED_SMASK",
    "STOCK_KERNEL",
    "ObservedSyscalls", "SyscallInterface",
    "Credentials", "Group", "User", "UserDB",
    "AclEntry", "FileKind", "Filesystem", "R_OK", "S_ISGID", "S_ISUID",
    "S_ISVTX", "Stat", "VFS", "W_OK", "X_OK", "check_access",
]
