"""HPC container runtime: unprivileged run with host passthrough.

Section IV-G's distinction: HPC containers (Singularity/Apptainer,
Charliecloud, Shifter) are *software-encapsulation* containers.  Unlike
enterprise service containers they

* run without root and without granting the user any new privilege —
  processes inside keep exactly the invoking user's credentials;
* "can only pass-through shared access to the host network stack";
* "often pass-through the host local and central file systems for their
  persistent storage";
* therefore "all of the security features described in this paper pass
  through to the container as well" — smask (in the credentials), hidepid
  (host /proc), the UBF (host stack), GPU /dev permissions (host devfs).

The runtime materialises the image into a fresh read-only-by-convention
filesystem, then bind-mounts the host's ``/tmp``, ``/dev``, and every shared
mount (``/home``, ``/scratch``) into the container's VFS.  No USB/port/
storage virtualisation exists to configure — the features whose absence
removes whole classes of container security concerns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.errors import PermissionError_
from repro.kernel.node import LinuxNode, ROOT_CREDS
from repro.kernel.process import Process
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.vfs import VFS, FileKind, Filesystem
from repro.containers.image import ContainerImage


@dataclass
class Container:
    """A running container instance on one node."""

    node: LinuxNode
    image: ContainerImage
    process: Process  # the containerised process (same creds as invoker)
    vfs: VFS  # container-namespace view

    def syscalls(self) -> "ContainerSyscalls":
        return ContainerSyscalls(self)


class ContainerSyscalls(SyscallInterface):
    """Syscall façade inside the container: same process/creds, container
    VFS for every file syscall, host /proc and host network untouched."""

    def __init__(self, container: Container):
        super().__init__(container.node, container.process)
        self.container = container
        # file syscalls resolve in the container namespace; everything
        # else (ps, kill, sockets) is the host node's, as inherited
        self.vfs = container.vfs


class SingularityRuntime:
    """``apptainer exec``-style launcher bound to one node.

    ``allowed_users`` models the LLSC practice of enabling Singularity
    per-user/team ("we do enable Singularity privileges to users and teams
    for which this is the case"); None means everyone may run containers.
    """

    def __init__(self, node: LinuxNode, *,
                 allowed_users: frozenset[int] | None = None):
        self.node = node
        self.allowed_users = allowed_users

    def run(self, process: Process, image: ContainerImage) -> Container:
        """Instantiate *image* for *process*; no privilege change occurs.

        The container VFS shares the node's smask handler (the kernel is the
        host kernel), binds host tmpfs/devfs, and re-mounts every shared
        filesystem the host has (central /home, /scratch ...).
        """
        creds = process.creds
        if (self.allowed_users is not None and not creds.is_root
                and creds.uid not in self.allowed_users):
            raise PermissionError_(
                f"uid {creds.uid} is not enabled for Singularity on "
                f"{self.node.name}"
            )
        rootfs = self._materialise(image)
        cvfs = VFS(rootfs, handler=self.node.handler,
                   protected_symlinks=self.node.vfs.protected_symlinks,
                   protected_hardlinks=self.node.vfs.protected_hardlinks)
        cvfs.clock = self.node.vfs.clock
        cvfs.mount("/tmp", self.node.tmpfs, creds=ROOT_CREDS)
        cvfs.mount("/dev", self.node.devfs, creds=ROOT_CREDS)
        for mnt in self.node.vfs.mounts():
            if mnt.path in ("/", "/tmp", "/dev"):
                continue
            cvfs.mount(mnt.path, mnt.fs, creds=ROOT_CREDS)
        return Container(node=self.node, image=image, process=process,
                         vfs=cvfs)

    def _materialise(self, image: ContainerImage) -> Filesystem:
        """Unpack the image into a fresh filesystem (root-owned content,
        like a squashfs: users cannot modify the image's own files)."""
        fs = Filesystem(f"container:{image.name}", honors_smask=True)
        v = VFS(fs)  # stock handler: image content is root-authored
        for f in sorted(image.files, key=lambda f: f.path.count("/")):
            if f.is_dir:
                v.makedirs(f.path, ROOT_CREDS, mode=f.mode)
            else:
                parent = f.path.rsplit("/", 1)[0] or "/"
                if parent != "/":
                    v.makedirs(parent, ROOT_CREDS, mode=0o755)
                v.create(f.path, ROOT_CREDS, mode=f.mode, data=f.data,
                         kind=FileKind.FILE)
        return fs
