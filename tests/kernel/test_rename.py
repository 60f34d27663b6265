"""Unit tests: rename(2) semantics incl. sticky-bit protection."""

import pytest

from repro.kernel import Filesystem, ROOT_CREDS, VFS
from repro.kernel.errors import (
    AccessDenied,
    InvalidArgument,
    IsADirectory,
    NoSuchEntity,
    NotADirectory,
    NotEmpty,
    PermissionError_,
)

from tests.conftest import creds_of


@pytest.fixture
def vfs(userdb):
    v = VFS()
    v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
    v.mkdir("/work", ROOT_CREDS, mode=0o777)
    return v


class TestRename:
    def test_simple_move(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/work/a", alice, mode=0o600, data=b"x")
        vfs.rename("/work/a", "/work/b", alice)
        assert vfs.read("/work/b", alice) == b"x"
        assert not vfs.exists("/work/a", alice)

    def test_move_between_directories(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/work/src", alice, mode=0o700)
        vfs.mkdir("/work/dst", alice, mode=0o700)
        vfs.create("/work/src/f", alice, mode=0o600, data=b"d")
        vfs.rename("/work/src/f", "/work/dst/f", alice)
        assert vfs.read("/work/dst/f", alice) == b"d"

    def test_move_directory(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/work/d", alice, mode=0o700)
        vfs.create("/work/d/inner", alice, mode=0o600, data=b"i")
        vfs.rename("/work/d", "/work/renamed", alice)
        assert vfs.read("/work/renamed/inner", alice) == b"i"

    def test_overwrite_existing_file(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/work/a", alice, mode=0o600, data=b"new")
        vfs.create("/work/b", alice, mode=0o600, data=b"old")
        vfs.rename("/work/a", "/work/b", alice)
        assert vfs.read("/work/b", alice) == b"new"

    def test_overwrite_nonempty_dir_rejected(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.mkdir("/work/a", alice)
        vfs.mkdir("/work/b", alice)
        vfs.create("/work/b/f", alice)
        with pytest.raises(NotEmpty):
            vfs.rename("/work/a", "/work/b", alice)

    def test_file_over_dir_rejected(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/work/f", alice)
        vfs.mkdir("/work/d", alice)
        with pytest.raises(IsADirectory):
            vfs.rename("/work/f", "/work/d", alice)
        with pytest.raises(NotADirectory):
            vfs.rename("/work/d", "/work/f", alice)

    def test_rename_to_self_is_noop(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/work/a", alice, mode=0o600, data=b"x")
        vfs.rename("/work/a", "/work/a", alice)
        assert vfs.read("/work/a", alice) == b"x"

    def test_missing_source(self, vfs, userdb):
        with pytest.raises(NoSuchEntity):
            vfs.rename("/work/none", "/work/x", creds_of(userdb, "alice"))

    def test_needs_write_on_both_parents(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.mkdir("/work/mine", alice, mode=0o755)
        vfs.create("/work/mine/f", alice)
        with pytest.raises(AccessDenied):
            vfs.rename("/work/mine/f", "/tmp/f", bob)

    def test_sticky_blocks_foreign_move(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/alicefile", alice, mode=0o644)
        with pytest.raises(PermissionError_):
            vfs.rename("/tmp/alicefile", "/tmp/stolen", bob)

    def test_sticky_blocks_foreign_replace(self, vfs, userdb):
        alice = creds_of(userdb, "alice").with_umask(0)
        bob = creds_of(userdb, "bob")
        vfs.create("/tmp/target", alice, mode=0o666)
        vfs.create("/tmp/mine", bob, mode=0o600)
        with pytest.raises(PermissionError_):
            vfs.rename("/tmp/mine", "/tmp/target", bob)

    def test_cross_filesystem_rejected(self, vfs, userdb):
        scratch = Filesystem("scratch")
        vfs.mount("/scratch", scratch, creds=ROOT_CREDS)
        scratch.root.mode = 0o1777
        alice = creds_of(userdb, "alice")
        vfs.create("/work/f", alice)
        vfs.create("/scratch/g", alice)
        # both ends are judged where their parents resolve to, so a
        # symlink into the other mount does not hide the crossing
        vfs.symlink("/scratch", "/work/toscr", alice)
        for old, new in (("/work/f", "/scratch/f"),
                         ("/work/f", "/work/toscr/f"),
                         ("/work/toscr/g", "/work/g")):
            with pytest.raises(InvalidArgument):
                vfs.rename(old, new, alice)
        assert vfs.listdir("/scratch", alice) == ["g"]
        assert "f" in vfs.listdir("/work", alice)

    def test_mount_point_neither_moved_nor_replaced(self, vfs, userdb):
        vfs.mkdir("/mnt", ROOT_CREDS, mode=0o755)
        vfs.create("/mnt/shadowed", ROOT_CREDS)
        vfs.mount("/mnt", Filesystem("mnt"), creds=ROOT_CREDS)
        for old, new in (("/mnt", "/moved"), ("/work", "/mnt")):
            with pytest.raises(InvalidArgument):
                vfs.rename(old, new, ROOT_CREDS)
        assert vfs.listdir("/mnt", ROOT_CREDS) == []
        assert vfs.exists("/work", ROOT_CREDS)

    def test_missing_source_parent_before_cross_filesystem(self, vfs, userdb):
        """Linux's order: both parents resolve before the EXDEV check."""
        vfs.mount("/scratch", Filesystem("scratch"), creds=ROOT_CREDS)
        with pytest.raises(NoSuchEntity):
            vfs.rename("/work/nope/f", "/scratch/f", ROOT_CREDS)

    def test_root_moves_anything(self, vfs, userdb):
        alice = creds_of(userdb, "alice")
        vfs.create("/tmp/af", alice, mode=0o600)
        vfs.rename("/tmp/af", "/tmp/moved", ROOT_CREDS)
        assert vfs.exists("/tmp/moved", ROOT_CREDS)
