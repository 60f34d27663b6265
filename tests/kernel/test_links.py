"""Unit tests: symlinks, hardlinks, protected_symlinks/hardlinks sysctls.

The /tmp symlink attack is the classic hazard of the world-writable shared
directories Section IV-C worries about; ``fs.protected_symlinks`` (default
on, as on every modern distribution) is the kernel-side mitigation, and the
smask keeps attack *payloads* unreadable regardless.
"""

import pytest

from repro.kernel import FileKind, ROOT_CREDS, VFS
from repro.kernel.errors import (
    AccessDenied,
    Exists,
    InvalidArgument,
    NoSuchEntity,
    PermissionError_,
)

from tests.conftest import creds_of


@pytest.fixture
def vfs(userdb):
    v = VFS()
    v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
    v.mkdir("/home", ROOT_CREDS, mode=0o755)
    v.mkdir("/home/alice", ROOT_CREDS, mode=0o755)
    v.chown("/home/alice", ROOT_CREDS,
            uid=userdb.user("alice").uid,
            gid=userdb.user("alice").primary_gid)
    return v


class TestSymlinkBasics:
    def test_create_and_follow(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/data", alice, mode=0o644, data=b"content")
        vfs.symlink("/home/alice/data", "/home/alice/lnk", alice)
        assert vfs.read("/home/alice/lnk", alice) == b"content"

    def test_relative_target(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/data", alice, mode=0o644, data=b"x")
        vfs.symlink("data", "/home/alice/rel", alice)
        assert vfs.read("/home/alice/rel", alice) == b"x"

    def test_readlink(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.symlink("/etc/passwd", "/home/alice/l", alice)
        assert vfs.readlink("/home/alice/l", alice) == "/etc/passwd"

    def test_readlink_on_regular_file(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/f", alice)
        with pytest.raises(InvalidArgument):
            vfs.readlink("/home/alice/f", alice)

    def test_lstat_vs_stat(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/data", alice, mode=0o644, data=b"content")
        vfs.symlink("data", "/home/alice/l", alice)
        assert vfs.lstat("/home/alice/l", alice).kind is FileKind.SYMLINK
        assert vfs.stat("/home/alice/l", alice).kind is FileKind.FILE

    def test_dangling_link(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.symlink("/nope", "/home/alice/dangle", alice)
        with pytest.raises(NoSuchEntity):
            vfs.read("/home/alice/dangle", alice)
        # but lstat works
        assert vfs.lstat("/home/alice/dangle", alice).kind is FileKind.SYMLINK

    def test_symlink_loop_eloop(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.symlink("/home/alice/b", "/home/alice/a", alice)
        vfs.symlink("/home/alice/a", "/home/alice/b", alice)
        with pytest.raises(InvalidArgument):
            vfs.read("/home/alice/a", alice)

    def test_symlink_to_directory_traversal(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/home/alice/d", alice, mode=0o755)
        vfs.create("/home/alice/d/f", alice, mode=0o644, data=b"deep")
        vfs.symlink("/home/alice/d", "/home/alice/dl", alice)
        assert vfs.read("/home/alice/dl/f", alice) == b"deep"

    def test_unlink_removes_link_not_target(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/data", alice, mode=0o644, data=b"x")
        vfs.symlink("data", "/home/alice/l", alice)
        vfs.unlink("/home/alice/l", alice)
        assert vfs.read("/home/alice/data", alice) == b"x"

    def test_duplicate_linkpath(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.symlink("/a", "/home/alice/l", alice)
        with pytest.raises(Exists):
            vfs.symlink("/b", "/home/alice/l", alice)

    def test_symlink_permissions_of_target_enforced(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/home/alice/secret", alice, mode=0o600, data=b"s")
        vfs.symlink("/home/alice/secret", "/tmp/pointer", bob)
        with pytest.raises(AccessDenied):
            vfs.read("/tmp/pointer", bob)  # link grants nothing


class TestProtectedSymlinks:
    def test_foreign_link_in_tmp_not_followed(self, vfs, userdb):
        """The classic attack: bob plants /tmp/report -> alice's file;
        alice's job writes there blindly.  protected_symlinks refuses."""
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/home/alice/.bashrc", alice, mode=0o644, data=b"PS1=ok")
        vfs.symlink("/home/alice/.bashrc", "/tmp/report", bob)
        with pytest.raises(AccessDenied):
            vfs.write("/tmp/report", alice, b"pwned")
        assert vfs.read("/home/alice/.bashrc", alice) == b"PS1=ok"

    def test_own_link_in_tmp_followed(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/out", alice, mode=0o644)
        vfs.symlink("/home/alice/out", "/tmp/mylink", alice)
        vfs.write("/tmp/mylink", alice, b"fine")
        assert vfs.read("/home/alice/out", alice) == b"fine"

    def test_sysctl_off_reopens_attack(self, userdb):
        v = VFS(protected_symlinks=False)
        v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
        v.mkdir("/home", ROOT_CREDS, mode=0o755)
        v.mkdir("/home/alice", ROOT_CREDS, mode=0o777)
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        v.create("/home/alice/target", alice, mode=0o666)
        v.symlink("/home/alice/target", "/tmp/report", bob)
        v.write("/tmp/report", alice, b"redirected")  # attack works
        assert v.read("/home/alice/target", alice) == b"redirected"

    def test_links_outside_sticky_dirs_unrestricted(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.mkdir("/home/alice/pub", alice, mode=0o755)
        vfs.create("/home/alice/pub/data", alice, mode=0o644, data=b"d")
        vfs.symlink("/home/alice/pub/data", "/home/alice/pub/l", alice)
        assert vfs.read("/home/alice/pub/l", bob) == b"d"

    def test_root_follows_anything(self, vfs, userdb):
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/bobfile", bob, mode=0o644, data=b"b")
        vfs.symlink("/tmp/bobfile", "/tmp/boblink", bob)
        assert vfs.read("/tmp/boblink", ROOT_CREDS) == b"b"


class TestHardlinks:
    def test_link_shares_inode(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/a", alice, mode=0o644, data=b"x")
        vfs.link("/home/alice/a", "/home/alice/b", alice)
        vfs.write("/home/alice/a", alice, b"updated")
        assert vfs.read("/home/alice/b", alice) == b"updated"
        assert vfs.stat("/home/alice/b", alice).nlink == 2

    def test_unlink_decrements_nlink(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/a", alice, mode=0o644, data=b"x")
        vfs.link("/home/alice/a", "/home/alice/b", alice)
        vfs.unlink("/home/alice/a", alice)
        assert vfs.stat("/home/alice/b", alice).nlink == 1
        assert vfs.read("/home/alice/b", alice) == b"x"

    def test_no_directory_hardlinks(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/home/alice/d", alice)
        with pytest.raises(PermissionError_):
            vfs.link("/home/alice/d", "/home/alice/d2", alice)

    def test_protected_hardlinks_blocks_foreign_pin(self, vfs, userdb):
        """bob cannot pin alice's 0644 file into /tmp (the hardlink attack
        that preserves a vulnerable file across the owner's deletion)."""
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/home/alice/pub", alice, mode=0o644, data=b"v1")
        vfs.chmod("/home/alice", alice, 0o755)
        with pytest.raises(PermissionError_):
            vfs.link("/home/alice/pub", "/tmp/pinned", bob)

    def test_foreign_link_allowed_with_rw_access(self, vfs, userdb):
        alice = creds_of(userdb, "alice").with_umask(0)
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/shared", alice, mode=0o666, data=b"x")
        vfs.link("/tmp/shared", "/tmp/shared2", bob)  # rw access: allowed

    def test_sysctl_off_allows_foreign_pin(self, userdb):
        v = VFS(protected_hardlinks=False)
        v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        v.create("/tmp/af", alice, mode=0o644, data=b"v")
        v.link("/tmp/af", "/tmp/pinned", bob)
        assert v.stat("/tmp/pinned", bob).nlink == 2

    def test_cross_filesystem_link_rejected(self, vfs, userdb):
        from repro.kernel import Filesystem
        other = Filesystem("scratch")
        vfs.mount("/scratch", other, creds=ROOT_CREDS)
        other.root.mode = 0o1777
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/a", alice, mode=0o644)
        # the new name's filesystem is where its parent resolves to, so a
        # symlink into the other mount does not hide the crossing
        vfs.symlink("/scratch", "/home/alice/toscr", alice)
        for newpath in ("/scratch/b", "/home/alice/toscr/b"):
            with pytest.raises(InvalidArgument):
                vfs.link("/home/alice/a", newpath, alice)
        assert vfs.listdir("/scratch", alice) == []

    def test_mount_point_is_an_existing_name(self, vfs, userdb):
        from repro.kernel import Filesystem
        vfs.mount("/scratch", Filesystem("scratch"), creds=ROOT_CREDS)
        vfs.create("/home/alice/a", ROOT_CREDS)
        with pytest.raises(Exists):
            vfs.symlink("/home/alice/a", "/scratch", ROOT_CREDS)
        with pytest.raises(Exists):
            vfs.link("/home/alice/a", "/scratch", ROOT_CREDS)
        assert "scratch" not in vfs.rootfs.root.children

    def test_root_links_anything(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/home/alice/a", alice, mode=0o600)
        vfs.link("/home/alice/a", "/home/alice/rootlink", ROOT_CREDS)
