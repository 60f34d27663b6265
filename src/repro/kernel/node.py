"""A simulated Linux node: VFS + process table + /proc + PAM + devices.

Each node owns node-local filesystems (``/``, ``/tmp``, ``/dev``) and mounts
the cluster's shared central filesystems (``/home``, ``/scratch``) — writes
to a shared mount are visible from every node, like Lustre.  The node also
carries the /proc mount options (hidepid) and the PAM stack evaluated at
every ssh / job launch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kernel.devices import make_dev_tree
from repro.kernel.pam import PamStack
from repro.kernel.process import ProcessTable
from repro.kernel.procfs import ProcFS, ProcMountOptions
from repro.kernel.smask import STOCK_KERNEL, FilePermissionHandler
from repro.kernel.users import Credentials, User, UserDB
from repro.kernel.vfs import VFS, Filesystem

ROOT_CREDS = Credentials(uid=0, egid=0, groups=frozenset({0}))


class NodeRole(enum.Enum):
    """The role a host plays in the cluster."""

    LOGIN = "login"
    COMPUTE = "compute"
    DTN = "dtn"  # data transfer node
    PORTAL = "portal"
    WORKSTATION = "workstation"  # user's own machine (root allowed; container builds)


@dataclass(frozen=True)
class NodeSpec:
    """Hardware shape of a node."""

    cores: int = 48
    mem_mb: int = 192_000
    gpus: int = 0


class LinuxNode:
    """One host of the cluster."""

    def __init__(self, name: str, userdb: UserDB, *,
                 role: NodeRole = NodeRole.COMPUTE,
                 spec: NodeSpec = NodeSpec(),
                 handler: FilePermissionHandler = STOCK_KERNEL,
                 proc_options: ProcMountOptions = ProcMountOptions(),
                 pam: PamStack | None = None,
                 protected_symlinks: bool = True,
                 protected_hardlinks: bool = True):
        self.name = name
        self.userdb = userdb
        self.role = role
        self.spec = spec
        self.handler = handler
        self.vfs = VFS(Filesystem(f"{name}:rootfs"), handler=handler,
                       protected_symlinks=protected_symlinks,
                       protected_hardlinks=protected_hardlinks)
        # node-local tmpfs and devtmpfs are distinct filesystems so that
        # container runtimes can bind-mount exactly these into a container's
        # namespace (Section IV-G passthrough)
        self.tmpfs = Filesystem(f"{name}:tmpfs")
        self.devfs = Filesystem(f"{name}:devtmpfs")
        self.procs = ProcessTable(name)
        self.procfs = ProcFS(self.procs, proc_options)
        self.pam = pam if pam is not None else PamStack()
        self.net = None  # attached by repro.net.stack.HostStack
        self._build_local_layout()

    def _build_local_layout(self) -> None:
        """Standard node-local tree: /tmp and /dev/shm world-writable+sticky."""
        v = self.vfs
        v.mount("/tmp", self.tmpfs, creds=ROOT_CREDS)
        v.mount("/dev", self.devfs, creds=ROOT_CREDS)
        self.tmpfs.root.mode = 0o1777
        make_dev_tree(v, ROOT_CREDS)
        v.mkdir("/var", ROOT_CREDS, mode=0o755)
        v.mkdir("/var/run", ROOT_CREDS, mode=0o755)

    # -- shared storage -----------------------------------------------------

    def mount_shared(self, path: str, fs: Filesystem) -> None:
        self.vfs.mount(path, fs, creds=ROOT_CREDS)

    # -- sessions -----------------------------------------------------------

    def open_session(self, user: User, *, umask: int = 0o022) -> Credentials:
        """ssh/login onto this node: PAM account checks + session transforms.

        Raises :class:`~repro.kernel.errors.AccessDenied` when pam_slurm (or
        any other stacked module) denies the login.
        """
        base = self.userdb.credentials_for(user, umask=umask)
        return self.pam.open_session(user, self.name, base)

    def set_proc_options(self, options: ProcMountOptions) -> None:
        """Remount /proc with new hidepid options (admin action).

        ``mount -o remount`` changes the options of the mount in place:
        the same :class:`ProcFS` keeps its observers and ``naive`` flag,
        so planes attached before the remount keep seeing every listing.
        """
        self.procfs.options = options

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LinuxNode {self.name} role={self.role.value}>"
