"""Unit tests: VFS resolution, DAC algorithm, ACLs, sticky bit, mounts."""

import pytest

from repro.kernel import (
    AclEntry,
    FileKind,
    Filesystem,
    R_OK,
    ROOT_CREDS,
    VFS,
    W_OK,
    X_OK,
    check_access,
)
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
from repro.kernel.vfs import Inode

from tests.conftest import creds_of


@pytest.fixture
def vfs(userdb):
    v = VFS()
    v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
    v.mkdir("/data", ROOT_CREDS, mode=0o755)
    return v


class TestPathHandling:
    def test_relative_path_rejected(self, vfs):
        with pytest.raises(InvalidArgument):
            vfs.resolve("tmp", ROOT_CREDS)

    def test_dot_and_dotdot_normalized(self, vfs):
        a = vfs.resolve("/tmp/./../tmp", ROOT_CREDS)
        b = vfs.resolve("/tmp", ROOT_CREDS)
        assert a is b

    def test_dotdot_cannot_escape_root(self, vfs):
        assert vfs.resolve("/../../tmp", ROOT_CREDS) is vfs.resolve("/tmp", ROOT_CREDS)

    def test_root_path_has_no_parent(self, vfs):
        with pytest.raises(InvalidArgument):
            vfs.unlink("/", ROOT_CREDS)

    def test_missing_path_raises_enoent(self, vfs, userdb):
        with pytest.raises(NoSuchEntity):
            vfs.resolve("/nope", creds_of(userdb, "alice"))

    def test_file_component_raises_enotdir(self, vfs, userdb):
        vfs.create("/data/f", ROOT_CREDS, mode=0o644)
        with pytest.raises(NotADirectory):
            vfs.resolve("/data/f/x", ROOT_CREDS)


class TestDacAlgorithm:
    """Direct tests of check_access() — the POSIX class algorithm."""

    def _inode(self, uid, gid, mode, acl=()):
        return Inode(ino=9, kind=FileKind.FILE, uid=uid, gid=gid, mode=mode,
                     acl=list(acl))

    def test_root_always_allowed(self):
        inode = self._inode(1000, 1000, 0o000)
        assert check_access(inode, ROOT_CREDS, R_OK | W_OK | X_OK)

    def test_owner_uses_owner_bits(self, userdb):
        alice = creds_of(userdb, "alice")
        inode = self._inode(alice.uid, alice.egid, 0o400)
        assert check_access(inode, alice, R_OK)
        assert not check_access(inode, alice, W_OK)

    def test_owner_class_does_not_fall_through(self, userdb):
        """Owner denied by owner bits even if group/other bits would allow."""
        alice = creds_of(userdb, "alice")
        inode = self._inode(alice.uid, alice.egid, 0o077)
        assert not check_access(inode, alice, R_OK)

    def test_group_member_uses_group_bits(self, userdb):
        dave = creds_of(userdb, "dave")
        fusion = userdb.group("fusion").gid
        inode = self._inode(userdb.user("carol").uid, fusion, 0o640)
        assert check_access(inode, dave, R_OK)
        assert not check_access(inode, dave, W_OK)

    def test_group_class_does_not_fall_through_to_other(self, userdb):
        dave = creds_of(userdb, "dave")
        fusion = userdb.group("fusion").gid
        inode = self._inode(userdb.user("carol").uid, fusion, 0o604)
        assert not check_access(inode, dave, R_OK)

    def test_other_bits_for_strangers(self, userdb):
        bob = creds_of(userdb, "bob")
        alice = userdb.user("alice")
        inode = self._inode(alice.uid, alice.primary_gid, 0o604)
        assert check_access(inode, bob, R_OK)
        assert not check_access(inode, bob, W_OK)

    def test_acl_user_entry_beats_group_and_other(self, userdb):
        bob = creds_of(userdb, "bob")
        alice = userdb.user("alice")
        inode = self._inode(alice.uid, alice.primary_gid, 0o600,
                            acl=[AclEntry("user", bob.uid, 4)])
        assert check_access(inode, bob, R_OK)
        assert not check_access(inode, bob, W_OK)

    def test_acl_group_entry_grants(self, userdb):
        dave = creds_of(userdb, "dave")
        alice = userdb.user("alice")
        fusion = userdb.group("fusion").gid
        inode = self._inode(alice.uid, alice.primary_gid, 0o600,
                            acl=[AclEntry("group", fusion, 4)])
        assert check_access(inode, dave, R_OK)

    def test_acl_group_match_blocks_other_fallthrough(self, userdb):
        """A user matched by a zero-perm ACL group entry is in the group
        class and must NOT fall through to the permissive other bits."""
        dave = creds_of(userdb, "dave")
        alice = userdb.user("alice")
        fusion = userdb.group("fusion").gid
        inode = self._inode(alice.uid, alice.primary_gid, 0o604,
                            acl=[AclEntry("group", fusion, 0)])
        assert not check_access(inode, dave, R_OK)

    def test_any_matching_group_entry_suffices(self, userdb):
        dave = creds_of(userdb, "dave")
        alice = userdb.user("alice")
        fusion = userdb.group("fusion").gid
        inode = self._inode(alice.uid, fusion, 0o600,
                            acl=[AclEntry("group", fusion, 6)])
        assert check_access(inode, dave, R_OK | W_OK)


class TestCreateSemantics:
    def test_create_needs_parent_write(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        with pytest.raises(AccessDenied):
            vfs.create("/data/f", alice)  # /data is 0755 root-owned

    def test_umask_applied_on_create(self, vfs, userdb):
        alice = creds_of(userdb, "alice").with_umask(0o077)
        inode = vfs.create("/tmp/f", alice, mode=0o666)
        assert inode.mode == 0o600

    def test_new_file_owned_by_creator_egid(self, vfs, userdb):
        dave = creds_of(userdb, "dave")
        fusion = userdb.group("fusion").gid
        inode = vfs.create("/tmp/d1", dave.with_egid(fusion), mode=0o660)
        assert inode.gid == fusion

    def test_setgid_dir_propagates_group(self, vfs, userdb):
        carol = creds_of(userdb, "carol")
        fusion = userdb.group("fusion").gid
        vfs.mkdir("/data/proj", ROOT_CREDS, mode=0o2770)
        vfs.chown("/data/proj", ROOT_CREDS, gid=fusion)
        inode = vfs.create("/data/proj/f", carol, mode=0o660)
        assert inode.gid == fusion

    def test_setgid_propagates_to_subdir(self, vfs, userdb):
        carol = creds_of(userdb, "carol")
        fusion = userdb.group("fusion").gid
        vfs.mkdir("/data/proj", ROOT_CREDS, mode=0o2770)
        vfs.chown("/data/proj", ROOT_CREDS, gid=fusion)
        sub = vfs.mkdir("/data/proj/sub", carol, mode=0o770)
        assert sub.setgid and sub.gid == fusion

    def test_duplicate_create_raises_eexist(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice)
        with pytest.raises(Exists):
            vfs.create("/tmp/f", alice)

    def test_exist_ok_returns_existing(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        a = vfs.mkdir("/tmp/d", alice)
        b = vfs.mkdir("/tmp/d", alice, exist_ok=True)
        assert a is b

    def test_makedirs(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.makedirs("/tmp/a/b/c", alice, mode=0o700)
        assert vfs.resolve("/tmp/a/b/c", alice).is_dir


class TestReadWrite:
    def test_read_own_file(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice, mode=0o600, data=b"hi")
        assert vfs.read("/tmp/f", alice) == b"hi"

    def test_stranger_cannot_read_0600(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/f", alice, mode=0o600, data=b"secret")
        with pytest.raises(AccessDenied):
            vfs.read("/tmp/f", bob)

    def test_write_then_read_roundtrip(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice, mode=0o600)
        vfs.write("/tmp/f", alice, b"abc")
        vfs.write("/tmp/f", alice, b"def", append=True)
        assert vfs.read("/tmp/f", alice) == b"abcdef"

    def test_write_truncates_by_default(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice, mode=0o600, data=b"longcontent")
        vfs.write("/tmp/f", alice, b"x")
        assert vfs.read("/tmp/f", alice) == b"x"

    def test_read_directory_raises_eisdir(self, vfs, userdb):
        with pytest.raises(IsADirectory):
            vfs.read("/tmp", ROOT_CREDS)

    def test_listdir_requires_read_bit(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.mkdir("/tmp/priv", alice, mode=0o700)
        with pytest.raises(AccessDenied):
            vfs.listdir("/tmp/priv", bob)

    def test_search_permission_checked_along_path(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.mkdir("/tmp/priv", alice, mode=0o700)
        vfs.create("/tmp/priv/open", alice, mode=0o666)
        with pytest.raises(AccessDenied):
            vfs.read("/tmp/priv/open", bob)  # file is 0666 but dir is 0700


class TestStickyBit:
    def test_sticky_blocks_foreign_unlink(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/af", alice, mode=0o644)
        with pytest.raises(PermissionError_):
            vfs.unlink("/tmp/af", bob)

    def test_owner_can_unlink_in_sticky_dir(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/af", alice, mode=0o644)
        vfs.unlink("/tmp/af", alice)
        assert not vfs.exists("/tmp/af", alice)

    def test_root_can_unlink_anything(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/af", alice, mode=0o644)
        vfs.unlink("/tmp/af", ROOT_CREDS)

    def test_non_sticky_dir_allows_foreign_unlink_with_write(self, vfs, userdb):
        alice = creds_of(userdb, "alice").with_umask(0)
        bob = creds_of(userdb, "bob")
        vfs.mkdir("/tmp/shared", alice, mode=0o777)
        vfs.create("/tmp/shared/f", alice, mode=0o644)
        vfs.unlink("/tmp/shared/f", bob)  # classic non-sticky hazard

    def test_unlink_nonempty_dir_raises(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/tmp/d", alice)
        vfs.create("/tmp/d/f", alice)
        with pytest.raises(NotEmpty):
            vfs.unlink("/tmp/d", alice)


class TestChmodChownAcl:
    def test_chmod_by_owner(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice, mode=0o600)
        assert vfs.chmod("/tmp/f", alice, 0o644) == 0o644

    def test_chmod_by_non_owner_denied(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/f", alice, mode=0o666)
        with pytest.raises(PermissionError_):
            vfs.chmod("/tmp/f", bob, 0o777)

    def test_chown_user_requires_root(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/f", alice)
        with pytest.raises(PermissionError_):
            vfs.chown("/tmp/f", alice, uid=creds_of(userdb, "bob").uid)
        vfs.chown("/tmp/f", ROOT_CREDS, uid=creds_of(userdb, "bob").uid)
        assert vfs.stat("/tmp/f", ROOT_CREDS).uid == creds_of(userdb, "bob").uid

    def test_chgrp_to_member_group_allowed(self, vfs, userdb):
        carol = creds_of(userdb, "carol")
        fusion = userdb.group("fusion").gid
        vfs.create("/tmp/f", carol)
        vfs.chown("/tmp/f", carol, gid=fusion)
        assert vfs.stat("/tmp/f", carol).gid == fusion

    def test_chgrp_to_foreign_group_denied(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        fusion = userdb.group("fusion").gid
        vfs.create("/tmp/f", alice)
        with pytest.raises(PermissionError_):
            vfs.chown("/tmp/f", alice, gid=fusion)

    def test_setfacl_only_by_owner(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/f", alice)
        with pytest.raises(PermissionError_):
            vfs.setfacl("/tmp/f", bob, AclEntry("user", bob.uid, 7))

    def test_setfacl_replaces_same_qualifier(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/f", alice)
        vfs.setfacl("/tmp/f", alice, AclEntry("user", bob.uid, 4))
        vfs.setfacl("/tmp/f", alice, AclEntry("user", bob.uid, 6))
        entries = vfs.getfacl("/tmp/f", alice)
        assert entries == [AclEntry("user", bob.uid, 6)]

    def test_bad_acl_entry_rejected(self):
        with pytest.raises(InvalidArgument):
            AclEntry("mask", 5, 7)
        with pytest.raises(InvalidArgument):
            AclEntry("user", 5, 9)


class TestMounts:
    def test_shared_fs_visible_from_two_nodes(self, userdb, shared_home):
        from repro.kernel import LinuxNode
        n1 = LinuxNode("c1", userdb)
        n2 = LinuxNode("c2", userdb)
        n1.mount_shared("/home", shared_home)
        n2.mount_shared("/home", shared_home)
        alice = creds_of(userdb, "alice")
        n1.vfs.create("/home/alice/data.txt", alice, mode=0o600, data=b"x")
        assert n2.vfs.read("/home/alice/data.txt", alice) == b"x"

    def test_mount_requires_root(self, userdb):
        v = VFS()
        with pytest.raises(PermissionError_):
            v.mount("/x", Filesystem("x"), creds=creds_of(userdb, "alice"))

    def test_longest_prefix_mount_wins(self, userdb):
        v = VFS()
        outer, inner = Filesystem("outer"), Filesystem("inner")
        v.mount("/a", outer, creds=ROOT_CREDS)
        v.mount("/a/b", inner, creds=ROOT_CREDS)
        v.create("/a/f", ROOT_CREDS)
        v.create("/a/b/g", ROOT_CREDS)
        assert "f" in outer.root.children
        assert "g" in inner.root.children

    def test_local_tmp_not_shared(self, userdb):
        from repro.kernel import LinuxNode
        n1 = LinuxNode("c1", userdb)
        n2 = LinuxNode("c2", userdb)
        alice = creds_of(userdb, "alice")
        n1.vfs.create("/tmp/f", alice, mode=0o600)
        assert not n2.vfs.exists("/tmp/f", alice)


class TestHomeDirectoryScheme:
    def test_owner_cannot_chmod_root_owned_home(self, userdb, shared_home):
        from repro.kernel import LinuxNode
        node = LinuxNode("c1", userdb)
        node.mount_shared("/home", shared_home)
        alice = creds_of(userdb, "alice")
        with pytest.raises(PermissionError_):
            node.vfs.chmod("/home/alice", alice, 0o777)

    def test_user_reaches_home_via_private_group(self, userdb, shared_home):
        from repro.kernel import LinuxNode
        node = LinuxNode("c1", userdb)
        node.mount_shared("/home", shared_home)
        alice = creds_of(userdb, "alice")
        node.vfs.create("/home/alice/f", alice, mode=0o600, data=b"ok")
        assert node.vfs.read("/home/alice/f", alice) == b"ok"

    def test_stranger_cannot_enter_home(self, userdb, shared_home):
        from repro.kernel import LinuxNode
        node = LinuxNode("c1", userdb)
        node.mount_shared("/home", shared_home)
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        node.vfs.create("/home/alice/f", alice, mode=0o666)
        with pytest.raises(AccessDenied):
            node.vfs.read("/home/alice/f", bob)
