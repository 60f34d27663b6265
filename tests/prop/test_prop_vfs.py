"""Property-based tests: DAC algorithm and File Permission Handler
invariants over randomized modes, credentials, and ACLs; the mount lookup
against a longest-prefix scan, and inode numbers across mounts."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.kernel import (
    AclEntry,
    Credentials,
    FileKind,
    Filesystem,
    R_OK,
    ROOT_CREDS,
    VFS,
    W_OK,
    X_OK,
    check_access,
)
from repro.kernel.errors import InvalidArgument, KernelError
from repro.kernel.smask import FilePermissionHandler
from repro.kernel.vfs import Inode, _parts

modes = st.integers(min_value=0, max_value=0o7777)
perm_bits = st.integers(min_value=0, max_value=7)
uids = st.integers(min_value=1, max_value=50)
gids = st.integers(min_value=1, max_value=50)
masks = st.integers(min_value=0, max_value=0o777)


def creds(uid, egid, groups=(), smask=0):
    return Credentials(uid=uid, egid=egid,
                       groups=frozenset(groups) | {egid}, smask=smask)


def inode(uid, gid, mode, acl=()):
    return Inode(ino=1, kind=FileKind.FILE, uid=uid, gid=gid,
                 mode=mode & 0o7777, acl=list(acl))


class TestHandlerProperties:
    @given(mode=modes, smask=masks, uid=uids)
    def test_smask_bits_never_survive(self, mode, smask, uid):
        h = FilePermissionHandler()
        c = creds(uid, uid, smask=smask)
        assert h.effective_mode(mode, c) & (smask & 0o777) == 0

    @given(mode=modes, smask=masks, uid=uids)
    def test_handler_only_removes_bits(self, mode, smask, uid):
        h = FilePermissionHandler()
        c = creds(uid, uid, smask=smask)
        eff = h.effective_mode(mode, c)
        assert eff & ~(mode & 0o7777) == 0  # no bit added

    @given(mode=modes, smask=masks)
    def test_root_untouched(self, mode, smask):
        h = FilePermissionHandler()
        assert h.effective_mode(mode, ROOT_CREDS) == mode & 0o7777

    @given(mode=modes, smask=masks, uid=uids)
    def test_idempotent(self, mode, smask, uid):
        h = FilePermissionHandler()
        c = creds(uid, uid, smask=smask)
        once = h.effective_mode(mode, c)
        assert h.effective_mode(once, c) == once

    @given(mode=modes, uid=uids)
    def test_disabled_handler_identity(self, mode, uid):
        h = FilePermissionHandler(enabled=False)
        c = creds(uid, uid, smask=0o777)
        assert h.effective_mode(mode, c) == mode & 0o7777


class TestDacProperties:
    @given(uid=uids, gid=gids, mode=modes, want=perm_bits.filter(bool))
    def test_root_always_passes(self, uid, gid, mode, want):
        assert check_access(inode(uid, gid, mode), ROOT_CREDS, want)

    @given(uid=uids, gid=gids, mode=modes, want=perm_bits.filter(bool))
    def test_owner_decision_matches_owner_bits(self, uid, gid, mode, want):
        c = creds(uid, gid)
        expected = ((mode >> 6) & want) == want
        assert check_access(inode(uid, gid, mode), c, want) == expected

    @given(owner=uids, viewer=uids, gid=gids, mode=modes,
           want=perm_bits.filter(bool))
    def test_stranger_decision_matches_other_bits(self, owner, viewer, gid,
                                                  mode, want):
        if owner == viewer:
            return
        c = creds(viewer, viewer + 1000)  # disjoint groups from gid range
        expected = (mode & want) == want
        assert check_access(inode(owner, gid, mode), c, want) == expected

    @given(owner=uids, viewer=uids, gid=gids, mode=modes,
           want=perm_bits.filter(bool))
    def test_group_member_never_reads_other_bits(self, owner, viewer, gid,
                                                 mode, want):
        """Group-class matching must not fall through to the other class."""
        if owner == viewer:
            return
        c = creds(viewer, gid)  # member of the owning group
        result = check_access(inode(owner, gid, mode), c, want)
        expected = ((mode >> 3) & want) == want
        assert result == expected

    @given(owner=uids, viewer=uids, gid=gids, mode=modes,
           acl_perm=perm_bits, want=perm_bits.filter(bool))
    def test_acl_user_entry_is_decisive(self, owner, viewer, gid, mode,
                                        acl_perm, want):
        if owner == viewer:
            return
        c = creds(viewer, viewer + 1000)
        node = inode(owner, gid, mode, acl=[AclEntry("user", viewer, acl_perm)])
        assert check_access(node, c, want) == ((acl_perm & want) == want)

    @given(uid=uids, gid=gids, mode=modes)
    def test_want_monotone(self, uid, gid, mode):
        """If R|W is granted then R alone is granted (monotone in want)."""
        c = creds(uid + 100, gid + 100)
        node = inode(uid, gid, mode)
        if check_access(node, c, R_OK | W_OK):
            assert check_access(node, c, R_OK)
            assert check_access(node, c, W_OK)
        if check_access(node, c, R_OK | W_OK | X_OK):
            assert check_access(node, c, X_OK)


# -- mounts -------------------------------------------------------------------

#: "ab" beside "a" is a sibling whose name starts with another's
names = st.sampled_from(["a", "ab", "b"])
mount_tables = st.lists(
    st.lists(names, min_size=1, max_size=3).map(lambda ps: "/" + "/".join(ps)),
    unique=True, max_size=5)
#: "" components make "//"; a trailing "/" is drawn separately
components = st.sampled_from(["a", "ab", "b", "c", ".", "..", ""])


@st.composite
def abs_paths(draw):
    path = "/" + "/".join(draw(st.lists(components, max_size=6)))
    return path + "/" if draw(st.booleans()) else path


def mounted(mount_paths) -> VFS:
    vfs = VFS()
    for path in mount_paths:
        vfs.mount(path, Filesystem(path), creds=ROOT_CREDS)
    return vfs


def reference_find_mount(mount_paths, path):
    """Normalise *path*, then scan every mount's split path for the
    longest component prefix: returns the mount point and the residue."""
    out: list[str] = []
    for p in [p for p in path.split("/") if p not in ("", ".")]:
        if p == "..":
            if out:
                out.pop()
        else:
            out.append(p)
    best, best_depth = "/", 0
    for mount_path in mount_paths:
        mparts = [p for p in mount_path.split("/") if p]
        if len(mparts) > best_depth and out[:len(mparts)] == mparts:
            best, best_depth = mount_path, len(mparts)
    return best, out[best_depth:]


class TestMountProperties:
    @given(mount_paths=mount_tables, path=abs_paths())
    @example(mount_paths=["/a", "/a/b", "/ab"], path="/a/./b/../b//c/")
    @example(mount_paths=["/a", "/a/b", "/ab"], path="/ab/../a/b/..")
    def test_lookup_matches_longest_prefix_scan(self, mount_paths, path):
        vfs = mounted(mount_paths)
        mnt, rest = vfs._find_mount(_parts(path))
        assert (mnt.path, rest) == reference_find_mount(mount_paths, path)
        with pytest.raises(InvalidArgument):
            vfs.resolve(path.lstrip("/"), ROOT_CREDS)

    @given(mount_paths=mount_tables,
           ops=st.lists(st.tuples(
               st.sampled_from(["mkdir", "create", "symlink", "link"]),
               abs_paths(),
               st.one_of(abs_paths(),  # absolute target or second path
                         st.lists(components, min_size=1, max_size=3)
                         .map("/".join))),  # relative symlink target
               max_size=25))
    def test_inode_numbers_distinct_within_each_filesystem(self, mount_paths,
                                                           ops):
        """Files created through symlinks that cross mounts take their inode
        number from the filesystem they land in, so no two inodes reachable
        from one root share a number (a hard link counts once)."""
        vfs = mounted(mount_paths)
        for kind, path, other in ops:
            try:
                if kind == "mkdir":
                    vfs.mkdir(path, ROOT_CREDS)
                elif kind == "create":
                    vfs.create(path, ROOT_CREDS)
                elif kind == "symlink":
                    vfs.symlink(other, path, ROOT_CREDS)
                elif other.startswith("/"):
                    vfs.link(path, other, ROOT_CREDS)
            except KernelError:
                pass
        for mnt in vfs.mounts():
            reachable: dict[int, Inode] = {}
            stack = [mnt.fs.root]
            while stack:
                node = stack.pop()
                if id(node) not in reachable:
                    reachable[id(node)] = node
                    stack.extend(node.children.values())
            inos = sorted(node.ino for node in reachable.values())
            assert len(inos) == len(set(inos)), (mnt.path, inos)
