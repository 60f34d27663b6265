"""In-memory virtual filesystem with Linux DAC semantics.

This is the substrate for Section IV-C of the paper.  It implements:

* inodes with owner/group, the full 12-bit mode (setuid/setgid/sticky +
  rwxrwxrwx), and POSIX-style ACL entries;
* the classic discretionary access-control algorithm (owner class, then ACL
  user entries, then group class including ACL groups, then other class —
  with *no* fall-through between classes, matching POSIX.1e);
* ``umask`` on create, sticky-bit delete protection in world-writable
  directories (``/tmp``, ``/dev/shm``);
* the File Permission Handler hooks (:mod:`repro.kernel.smask`): smask
  applied on create *and re-applied on chmod*, and ACL grants restricted to
  the caller's own groups;
* a mount table so a central (Lustre-style) filesystem can be mounted on
  every node while ``/tmp`` and ``/dev`` stay node-local.  A filesystem can
  be marked ``honors_smask=False`` to model pre-LU-4746 Lustre, which read
  the umask variable directly and therefore *bypassed* the smask patch on
  file create — the bug the authors upstreamed a fix for.

All operations take a :class:`~repro.kernel.users.Credentials` and raise
:mod:`repro.kernel.errors` exceptions exactly where a real kernel would
return ``-EACCES``/``-EPERM``/...
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.kernel.errors import (
    AccessDenied,
    Exists,
    InvalidArgument,
    IsADirectory,
    NoSuchEntity,
    NotADirectory,
    NotEmpty,
    PermissionError_,
)
from repro.kernel.smask import STOCK_KERNEL, FilePermissionHandler
from repro.kernel.users import Credentials
from repro.observer import Observers

R_OK = 4
W_OK = 2
X_OK = 1

S_ISUID = 0o4000
S_ISGID = 0o2000
S_ISVTX = 0o1000  # sticky


class FileKind(enum.Enum):
    """Inode type: file, directory, device, socket, or symlink."""

    FILE = "file"
    DIR = "dir"
    DEVICE = "device"
    SOCKET = "socket"
    SYMLINK = "symlink"


#: Symlink-chain depth limit, as in Linux (ELOOP beyond this).
MAX_SYMLINK_DEPTH = 40


@dataclass(frozen=True)
class AclEntry:
    """One POSIX ACL entry: a grant of rwx bits to a uid or gid."""

    tag: str  # "user" | "group"
    qualifier: int  # uid or gid
    perms: int  # rwx bits, 0..7

    def __post_init__(self):
        if self.tag not in ("user", "group"):
            raise InvalidArgument(f"bad ACL tag {self.tag!r}")
        if not 0 <= self.perms <= 7:
            raise InvalidArgument(f"bad ACL perms {self.perms!r}")


@dataclass
class Inode:
    """One filesystem object: mode, ownership, ACL, and content."""

    ino: int
    kind: FileKind
    uid: int
    gid: int
    mode: int  # 12-bit: suid/sgid/sticky + rwx*3
    data: bytearray = field(default_factory=bytearray)
    children: dict[str, "Inode"] = field(default_factory=dict)
    acl: list[AclEntry] = field(default_factory=list)
    device: object | None = None  # payload for FileKind.DEVICE
    nlink: int = 1
    mtime: float = 0.0
    atime: float = 0.0

    @property
    def is_dir(self) -> bool:
        return self.kind is FileKind.DIR

    @property
    def sticky(self) -> bool:
        return bool(self.mode & S_ISVTX)

    @property
    def setgid(self) -> bool:
        return bool(self.mode & S_ISGID)

    def perm_string(self) -> str:
        """``rwxr-x---``-style rendering (tests and `ls -l` output)."""
        out = []
        for shift in (6, 3, 0):
            bits = (self.mode >> shift) & 7
            out.append("r" if bits & 4 else "-")
            out.append("w" if bits & 2 else "-")
            out.append("x" if bits & 1 else "-")
        if self.sticky:
            out[8] = "t" if out[8] == "x" else "T"
        return "".join(out)


@dataclass(frozen=True)
class Stat:
    """Result of :meth:`VFS.stat` — what ``stat(2)`` exposes."""

    ino: int
    kind: FileKind
    uid: int
    gid: int
    mode: int
    size: int
    nlink: int
    mtime: float = 0.0
    atime: float = 0.0


def check_access(inode: Inode, creds: Credentials, want: int) -> bool:
    """POSIX.1e access decision for *creds* wanting *want* (R/W/X bits).

    Evaluation order: root → owner class → ACL user entries → group class
    (owning group and ACL group entries, any match that grants suffices) →
    other class.  Classes do not fall through: an owner denied by owner bits
    is denied even if the other bits would allow.
    """
    if creds.is_root:
        return True
    mode = inode.mode
    if creds.uid == inode.uid:
        return (mode >> 6) & want == want
    for entry in inode.acl:
        if entry.tag == "user" and entry.qualifier == creds.uid:
            return entry.perms & want == want
    in_group_class = False
    if creds.in_group(inode.gid):
        in_group_class = True
        if (mode >> 3) & want == want:
            return True
    for entry in inode.acl:
        if entry.tag == "group" and creds.in_group(entry.qualifier):
            in_group_class = True
            if entry.perms & want == want:
                return True
    if in_group_class:
        return False
    return mode & want == want


class Filesystem:
    """A single filesystem instance (one inode table, one root).

    Parameters
    ----------
    name:
        Label ("rootfs", "lustre-home", "tmpfs", ...).
    honors_smask:
        False models pre-LU-4746 Lustre: the filesystem reads the raw umask
        instead of the kernel accessor, so the smask patch is bypassed *on
        create* within this filesystem.  The authors' upstreamed patch sets
        this to True.
    """

    def __init__(self, name: str, *, honors_smask: bool = True):
        self.name = name
        self.honors_smask = honors_smask
        self._ino_counter = itertools.count(2)
        self.root = Inode(ino=1, kind=FileKind.DIR, uid=0, gid=0, mode=0o755)

    def alloc_inode(self, kind: FileKind, uid: int, gid: int, mode: int) -> Inode:
        return Inode(ino=next(self._ino_counter), kind=kind, uid=uid, gid=gid,
                     mode=mode & 0o7777)


@dataclass(frozen=True)
class Mount:
    """A mount-table entry binding a path prefix to a filesystem."""

    path: str  # normalized absolute mount point, e.g. "/home"
    fs: Filesystem


def _parts(path: str) -> list[str]:
    """The components of absolute *path*, with ``.``, ``..`` and empty
    components resolved lexically (``..`` at the root stays there)."""
    if not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    out: list[str] = []
    for p in path.split("/"):
        if p == "..":
            if out:
                out.pop()
        elif p and p != ".":
            out.append(p)
    return out


def _join(parts: list[str]) -> str:
    return "/" + "/".join(parts)


def _normalize(path: str) -> str:
    return _join(_parts(path))


def stat_of(inode: Inode) -> Stat:
    """What ``stat(2)`` reports for *inode*."""
    return Stat(ino=inode.ino, kind=inode.kind, uid=inode.uid, gid=inode.gid,
                mode=inode.mode, size=len(inode.data), nlink=inode.nlink,
                mtime=inode.mtime, atime=inode.atime)


class VFS:
    """Per-node view: a mount table over one or more :class:`Filesystem`.

    The same Filesystem object mounted into many nodes' VFS instances is how
    the central (home/scratch) storage is shared cluster-wide, exactly like a
    Lustre mount: writes on one node are instantly visible on all others.
    """

    def __init__(self, rootfs: Filesystem | None = None,
                 handler: FilePermissionHandler = STOCK_KERNEL,
                 *, protected_symlinks: bool = True,
                 protected_hardlinks: bool = True):
        self.rootfs = rootfs or Filesystem("rootfs")
        self.handler = handler
        # the fs.protected_symlinks / fs.protected_hardlinks sysctls,
        # default-on as on every modern distribution
        self.protected_symlinks = protected_symlinks
        self.protected_hardlinks = protected_hardlinks
        # timestamp source for mtime/atime; the cluster wires this to the
        # simulation engine's clock
        self.clock: Callable[[], float] = lambda: 0.0
        #: optional planes (repro.observer) shown every stored mode and ACL
        self.observers = Observers()
        self._mounts: dict[str, Mount] = {"/": Mount("/", self.rootfs)}
        #: components in the deepest mount point (no lookup probes deeper)
        self._mount_depth = 0

    # -- mounts ------------------------------------------------------------

    def mount(self, path: str, fs: Filesystem, *, creds: Credentials) -> None:
        """Attach *fs* at *path* (root only). The mount point need not exist."""
        if not creds.is_root:
            raise PermissionError_("mount requires root")
        parts = _parts(path)
        norm = _join(parts)
        if norm in self._mounts and norm != "/":
            raise Exists(f"mount point {norm} busy")
        self._mounts[norm] = Mount(norm, fs)
        self._mount_depth = max(self._mount_depth, len(parts))

    def mounts(self) -> list[Mount]:
        return sorted(self._mounts.values(), key=lambda m: m.path)

    def _find_mount(self, parts: list[str]) -> tuple[Mount, list[str]]:
        """The deepest mount on the path *parts* spell, found by probing
        the mount table with the path's own prefixes, deepest first; returns
        the mount and the residual components inside its filesystem."""
        mounts = self._mounts
        for depth in range(min(len(parts), self._mount_depth), 0, -1):
            mnt = mounts.get(_join(parts[:depth]))
            if mnt is not None:
                return mnt, parts[depth:]
        return mounts["/"], parts

    def _mount_at(self, parts: list[str]) -> Mount | None:
        """The mount whose mount point *parts* spell, if any."""
        if len(parts) <= self._mount_depth:
            return self._mounts.get(_join(parts))
        return None

    # -- resolution --------------------------------------------------------

    def resolve(self, path: str, creds: Credentials, *,
                follow: bool = True, _depth: int = 0) -> Inode:
        """Walk *path*, enforcing search (x) permission on every directory.

        Symlinks are followed (including for the final component unless
        ``follow=False``, i.e. lstat semantics), subject to the
        ``fs.protected_symlinks`` sysctl: a symlink located in a sticky
        world-writable directory is only followed when the link's owner
        matches the directory's owner or the caller — the kernel's defence
        against the classic ``/tmp`` symlink attack.
        """
        return self._walk(_parts(path), creds, follow=follow, path=path,
                          depth=_depth)[1]

    def _walk(self, parts: list[str], creds: Credentials, *,
              follow: bool = True, path: str | None = None,
              depth: int = 0) -> tuple[Filesystem, Inode]:
        """:meth:`resolve` on already-split *parts*; returns the filesystem
        the walk ends in together with the inode.  Errors name *path*, or
        the path *parts* spell when it is None (a parent lookup)."""
        if depth > MAX_SYMLINK_DEPTH:
            raise InvalidArgument(f"too many levels of symbolic links: {path!r}")
        mnt, rest = self._find_mount(parts)
        node = mnt.fs.root
        last = len(rest) - 1
        for i, part in enumerate(rest):
            if not node.is_dir:
                raise NotADirectory("/".join(rest[:i]) or "/")
            if not check_access(node, creds, X_OK):
                raise AccessDenied(
                    f"search permission denied in {path or _join(parts)!r}")
            parent = node
            try:
                node = node.children[part]
            except KeyError:
                raise NoSuchEntity(path or _join(parts)) from None
            if node.kind is FileKind.SYMLINK and (follow or i < last):
                self._check_symlink_follow(parent, node, creds,
                                           path or _join(parts))
                target = node.data.decode()
                if not target.startswith("/"):
                    target = "/".join([mnt.path.rstrip("/"), *rest[:i], target])
                newpath = "/".join([target, *rest[i + 1:]])
                return self._walk(_parts(newpath), creds, follow=follow,
                                  path=newpath, depth=depth + 1)
        return mnt.fs, node

    def _check_symlink_follow(self, parent: Inode, link: Inode,
                              creds: Credentials, path: str) -> None:
        if not self.protected_symlinks or creds.is_root:
            return
        world_writable = bool(parent.mode & 0o002)
        if parent.sticky and world_writable:
            if link.uid != parent.uid and link.uid != creds.uid:
                raise AccessDenied(
                    f"protected_symlinks: refusing to follow foreign link "
                    f"in sticky world-writable dir ({path!r})"
                )

    def _resolve_parent(self, parts: list[str], creds: Credentials
                        ) -> tuple[Filesystem, Inode, str]:
        """Resolve the directory holding the last of *parts*: returns the
        filesystem that walk ends in, the directory and the name.  A new
        name belongs to its parent's filesystem, wherever symlinks led."""
        if not parts:
            raise InvalidArgument("cannot split the root path")
        fs, parent = self._walk(parts[:-1], creds)
        if not parent.is_dir:
            raise NotADirectory(_join(parts[:-1]))
        return fs, parent, parts[-1]

    def exists(self, path: str, creds: Credentials) -> bool:
        try:
            self.resolve(path, creds)
            return True
        except (NoSuchEntity, AccessDenied, NotADirectory):
            return False

    # -- create / remove ---------------------------------------------------

    def _create_mode(self, requested: int, creds: Credentials,
                     fs: Filesystem) -> int:
        mode = requested & 0o7777 & ~(creds.umask & 0o777) if not creds.is_root \
            else requested & 0o7777
        if fs.honors_smask:
            mode = self.handler.effective_mode(mode, creds)
        return mode

    def create(self, path: str, creds: Credentials, *, mode: int = 0o666,
               kind: FileKind = FileKind.FILE, data: bytes = b"",
               device: object | None = None, exist_ok: bool = False) -> Inode:
        """Create a file/device/socket node; needs w+x on the parent dir.

        New-file group ownership follows Linux: the creator's egid, unless
        the parent directory is setgid, in which case the parent's group is
        inherited (how project-group shared directories work).
        """
        parts = _parts(path)
        mnt = self._mount_at(parts)
        if mnt is not None:
            if exist_ok and mnt.fs.root.kind is kind:
                return mnt.fs.root
            raise Exists(f"{mnt.path} is a mount point")
        fs, parent, name = self._resolve_parent(parts, creds)
        # EEXIST before EACCES, as in Linux: the lookup (needing only x on
        # the parent) happens before the write-permission check
        if name in parent.children:
            if exist_ok and parent.children[name].kind is kind:
                return parent.children[name]
            raise Exists(path)
        if not check_access(parent, creds, W_OK | X_OK):
            raise AccessDenied(f"cannot create in {path!r}")
        gid = parent.gid if parent.setgid else creds.egid
        eff = self._create_mode(mode, creds, fs)
        if kind is FileKind.DIR and parent.setgid:
            eff |= S_ISGID  # setgid propagates to subdirectories
        inode = fs.alloc_inode(kind, creds.uid, gid, eff)
        if fs.honors_smask:
            for f in self.observers.vfs_mode_set:
                f(self, path, creds, eff, "create")
        inode.mtime = inode.atime = self.clock()
        if data:
            inode.data.extend(data)
        if device is not None:
            inode.device = device
        parent.children[name] = inode
        parent.mtime = self.clock()
        return inode

    def mkdir(self, path: str, creds: Credentials, *, mode: int = 0o777,
              exist_ok: bool = False) -> Inode:
        return self.create(path, creds, mode=mode, kind=FileKind.DIR,
                           exist_ok=exist_ok)

    def makedirs(self, path: str, creds: Credentials, *, mode: int = 0o777) -> Inode:
        cur = ""
        node = self.resolve("/", creds)
        for p in _parts(path):
            cur += "/" + p
            if not self.exists(cur, creds):
                node = self.mkdir(cur, creds, mode=mode)
            else:
                node = self.resolve(cur, creds)
        return node

    def unlink(self, path: str, creds: Credentials) -> None:
        """Remove a file; sticky-bit semantics protect /tmp-style dirs."""
        _, parent, name = self._resolve_parent(_parts(path), creds)
        if not check_access(parent, creds, W_OK | X_OK):
            raise AccessDenied(f"cannot unlink in {path!r}")
        try:
            victim = parent.children[name]
        except KeyError:
            raise NoSuchEntity(path) from None
        if victim.is_dir and victim.children:
            raise NotEmpty(path)
        if (parent.sticky and not creds.is_root
                and creds.uid not in (victim.uid, parent.uid)):
            raise PermissionError_(
                f"sticky bit: uid {creds.uid} may not remove {path!r}"
            )
        del parent.children[name]
        victim.nlink -= 1

    def rename(self, oldpath: str, newpath: str, creds: Credentials) -> None:
        """rename(2): move/overwrite within one filesystem.

        Needs w+x on both parent directories; sticky-bit protection applies
        to removing the *source* name and to replacing an existing target,
        exactly as for unlink.  Cross-filesystem renames raise EINVAL
        (userspace ``mv`` would fall back to copy+unlink); as in Linux,
        both parents are resolved before that check.  A mount point is
        never renamed, nor replaced.
        """
        old_parts, new_parts = _parts(oldpath), _parts(newpath)
        for parts, label in ((old_parts, oldpath), (new_parts, newpath)):
            if self._mount_at(parts) is not None:
                raise InvalidArgument(f"rename: {label!r} is a mount point")
        old_fs, old_parent, old_name = self._resolve_parent(old_parts, creds)
        new_fs, new_parent, new_name = self._resolve_parent(new_parts, creds)
        if old_fs is not new_fs:
            raise InvalidArgument("cross-filesystem rename")
        for parent, label in ((old_parent, oldpath), (new_parent, newpath)):
            if not check_access(parent, creds, W_OK | X_OK):
                raise AccessDenied(f"rename: no write access at {label!r}")
        try:
            moving = old_parent.children[old_name]
        except KeyError:
            raise NoSuchEntity(oldpath) from None
        if (old_parent.sticky and not creds.is_root
                and creds.uid not in (moving.uid, old_parent.uid)):
            raise PermissionError_(
                f"sticky bit: uid {creds.uid} may not move {oldpath!r}")
        target = new_parent.children.get(new_name)
        if target is not None:
            if target is moving:
                return
            if target.is_dir != moving.is_dir:
                raise (IsADirectory(newpath) if target.is_dir
                       else NotADirectory(newpath))
            if target.is_dir and target.children:
                raise NotEmpty(newpath)
            if (new_parent.sticky and not creds.is_root
                    and creds.uid not in (target.uid, new_parent.uid)):
                raise PermissionError_(
                    f"sticky bit: uid {creds.uid} may not replace {newpath!r}")
        del old_parent.children[old_name]
        new_parent.children[new_name] = moving
        now = self.clock()
        old_parent.mtime = new_parent.mtime = now

    # -- data i/o ----------------------------------------------------------

    def _device_deny(self, inode, creds: Credentials, path: str) -> None:
        """Observability hook: a device file refused an open.  Devices may
        expose ``on_access_denied`` (e.g. GPUs reporting GPU_DENY); the
        refusal itself is already decided — this never changes it."""
        if inode.kind is FileKind.DEVICE and inode.device is not None:
            notify = getattr(inode.device, "on_access_denied", None)
            if notify is not None:
                notify(creds, path)

    def read(self, path: str, creds: Credentials) -> bytes:
        inode = self.resolve(path, creds)
        if inode.is_dir:
            raise IsADirectory(path)
        if not check_access(inode, creds, R_OK):
            self._device_deny(inode, creds, path)
            raise AccessDenied(f"read denied: {path!r}")
        inode.atime = self.clock()
        if inode.kind is FileKind.DEVICE and inode.device is not None:
            read = getattr(inode.device, "dev_read", None)
            if read is not None:
                return read(creds)
        return bytes(inode.data)

    def write(self, path: str, creds: Credentials, data: bytes,
              *, append: bool = False) -> int:
        inode = self.resolve(path, creds)
        if inode.is_dir:
            raise IsADirectory(path)
        if not check_access(inode, creds, W_OK):
            self._device_deny(inode, creds, path)
            raise AccessDenied(f"write denied: {path!r}")
        inode.mtime = self.clock()
        if inode.kind is FileKind.DEVICE and inode.device is not None:
            write = getattr(inode.device, "dev_write", None)
            if write is not None:
                return write(creds, data)
        if not append:
            inode.data.clear()
        inode.data.extend(data)
        return len(data)

    def listdir(self, path: str, creds: Credentials) -> list[str]:
        inode = self.resolve(path, creds)
        if not inode.is_dir:
            raise NotADirectory(path)
        if not check_access(inode, creds, R_OK):
            raise AccessDenied(f"list denied: {path!r}")
        return sorted(inode.children)

    def walk(self, path: str, creds: Credentials) -> Iterator[tuple[str, list[str]]]:
        """Recursive listing (permission-checked at each level)."""
        names = self.listdir(path, creds)
        yield _normalize(path), names
        for n in names:
            child = _normalize(path + "/" + n)
            try:
                # lstat semantics: do not descend through symlinks (avoids
                # cycles exactly like find(1) without -L)
                if self.resolve(child, creds, follow=False).is_dir:
                    yield from self.walk(child, creds)
            except (AccessDenied, NoSuchEntity):
                continue

    # -- links -------------------------------------------------------------

    def symlink(self, target: str, linkpath: str, creds: Credentials) -> Inode:
        """Create a symbolic link at *linkpath* pointing at *target*.

        Like Linux, the target is stored verbatim (dangling links are
        legal); the link inode itself is mode 0777 and owned by the
        creator.
        """
        parts = _parts(linkpath)
        fs, parent, name = self._resolve_parent(parts, creds)
        if not check_access(parent, creds, W_OK | X_OK):
            raise AccessDenied(f"cannot create link in {linkpath!r}")
        if name in parent.children or self._mount_at(parts) is not None:
            raise Exists(linkpath)
        inode = fs.alloc_inode(FileKind.SYMLINK, creds.uid, creds.egid,
                               0o777)
        inode.data.extend(target.encode())
        parent.children[name] = inode
        return inode

    def readlink(self, path: str, creds: Credentials) -> str:
        inode = self.resolve(path, creds, follow=False)
        if inode.kind is not FileKind.SYMLINK:
            raise InvalidArgument(f"{path!r} is not a symlink")
        return inode.data.decode()

    def link(self, oldpath: str, newpath: str, creds: Credentials) -> Inode:
        """Hard link: a second name for the same inode.

        Enforces the ``fs.protected_hardlinks`` sysctl: an unprivileged
        caller may only hardlink a file they own, or one they have
        read+write access to — blocking the hardlink variant of the /tmp
        attack.
        """
        target_fs, target = self._walk(_parts(oldpath), creds, path=oldpath)
        if target.is_dir:
            raise PermissionError_("hard links to directories are forbidden")
        if (self.protected_hardlinks and not creds.is_root
                and target.uid != creds.uid
                and not check_access(target, creds, R_OK | W_OK)):
            raise PermissionError_(
                f"protected_hardlinks: cannot link foreign file {oldpath!r}"
            )
        parts = _parts(newpath)
        fs, parent, name = self._resolve_parent(parts, creds)
        if not check_access(parent, creds, W_OK | X_OK):
            raise AccessDenied(f"cannot create link in {newpath!r}")
        if name in parent.children or self._mount_at(parts) is not None:
            raise Exists(newpath)
        if fs is not target_fs:
            raise InvalidArgument("cross-filesystem hard link")
        parent.children[name] = target
        target.nlink += 1
        return target

    # -- metadata ----------------------------------------------------------

    def stat(self, path: str, creds: Credentials) -> Stat:
        return stat_of(self.resolve(path, creds))

    def lstat(self, path: str, creds: Credentials) -> Stat:
        """stat without following a final-component symlink."""
        return stat_of(self.resolve(path, creds, follow=False))

    def chmod(self, path: str, creds: Credentials, mode: int) -> int:
        """Change mode; only the owner or root.  The File Permission Handler
        re-applies the smask here — the 'enforced (even on chmod)' property.
        Returns the mode actually stored (tests assert the silently-stripped
        world bits)."""
        inode = self.resolve(path, creds)
        if not creds.is_root and creds.uid != inode.uid:
            raise PermissionError_(f"chmod {path!r}: not owner")
        inode.mode = self.handler.effective_mode(mode, creds)
        for f in self.observers.vfs_mode_set:
            f(self, path, creds, inode.mode, "chmod")
        return inode.mode

    def chown(self, path: str, creds: Credentials, *, uid: int | None = None,
              gid: int | None = None) -> None:
        """Owner change requires root; group change is allowed for the file's
        owner but only *to a group they are a member of* (standard Linux)."""
        inode = self.resolve(path, creds)
        if uid is not None and uid != inode.uid:
            if not creds.is_root:
                raise PermissionError_(f"chown {path!r}: requires root")
            inode.uid = uid
        if gid is not None and gid != inode.gid:
            if not creds.is_root:
                if creds.uid != inode.uid:
                    raise PermissionError_(f"chgrp {path!r}: not owner")
                if not creds.in_group(gid):
                    raise PermissionError_(
                        f"chgrp {path!r}: uid {creds.uid} not in gid {gid}"
                    )
            inode.gid = gid

    def setfacl(self, path: str, creds: Credentials, entry: AclEntry) -> None:
        """Add/replace an ACL entry; owner or root.  Under the File
        Permission Handler, grants are restricted to the caller's own groups
        (and never to foreign uids)."""
        inode = self.resolve(path, creds)
        if not creds.is_root and creds.uid != inode.uid:
            raise PermissionError_(f"setfacl {path!r}: not owner")
        self.handler.check_acl_grant(
            creds,
            target_gid=entry.qualifier if entry.tag == "group" else None,
            target_uid=entry.qualifier if entry.tag == "user" else None,
        )
        inode.acl = [e for e in inode.acl
                     if (e.tag, e.qualifier) != (entry.tag, entry.qualifier)]
        inode.acl.append(entry)
        for f in self.observers.vfs_acl_set:
            f(self, path, creds, entry)

    def getfacl(self, path: str, creds: Credentials) -> list[AclEntry]:
        return list(self.resolve(path, creds).acl)

    def access(self, path: str, creds: Credentials, want: int) -> bool:
        """access(2): True if *creds* could open *path* with *want* bits."""
        try:
            return check_access(self.resolve(path, creds), creds, want)
        except (AccessDenied, NoSuchEntity, NotADirectory):
            return False
