"""Unit tests: the File Permission Handler (smask + ACL restriction).

These exercise the exact claims of Section IV-C and the appendix: world bits
blocked on create *and chmod* for unprivileged users, ACL grants limited to
the caller's own groups, root exempt, and the Lustre LU-4746 create bypass
when a filesystem does not honor the smask accessor.
"""

import pytest

from repro.kernel import (
    AclEntry,
    Filesystem,
    LLSC_KERNEL,
    PAPER_SMASK,
    RELAXED_SMASK,
    ROOT_CREDS,
    STOCK_KERNEL,
    VFS,
)
from repro.kernel.errors import PermissionError_
from repro.kernel.smask import FilePermissionHandler

from tests.conftest import creds_of


@pytest.fixture
def llsc_vfs(userdb):
    v = VFS(handler=LLSC_KERNEL)
    v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
    return v


def smasked(userdb, name):
    return creds_of(userdb, name, smask=PAPER_SMASK)


class TestEffectiveMode:
    def test_world_bits_stripped(self):
        h = FilePermissionHandler()
        creds = smasked_creds = None
        from repro.kernel.users import Credentials
        c = Credentials(uid=1000, egid=1000, groups=frozenset({1000}),
                        smask=PAPER_SMASK)
        assert h.effective_mode(0o777, c) == 0o770
        assert h.effective_mode(0o666, c) == 0o660
        assert h.effective_mode(0o644, c) == 0o640

    def test_root_exempt(self):
        h = FilePermissionHandler()
        assert h.effective_mode(0o777, ROOT_CREDS) == 0o777

    def test_disabled_handler_is_noop(self):
        from repro.kernel.users import Credentials
        c = Credentials(uid=1000, egid=1000, groups=frozenset({1000}),
                        smask=PAPER_SMASK)
        assert STOCK_KERNEL.effective_mode(0o777, c) == 0o777

    def test_relaxed_smask_allows_world_rx(self):
        from repro.kernel.users import Credentials
        c = Credentials(uid=1000, egid=1000, groups=frozenset({1000}),
                        smask=RELAXED_SMASK)
        h = FilePermissionHandler()
        assert h.effective_mode(0o755, c) == 0o755
        assert h.effective_mode(0o757, c) == 0o755  # w still blocked

    def test_setuid_setgid_sticky_preserved(self):
        from repro.kernel.users import Credentials
        c = Credentials(uid=1000, egid=1000, groups=frozenset({1000}),
                        smask=PAPER_SMASK)
        h = FilePermissionHandler()
        assert h.effective_mode(0o2770, c) == 0o2770


class TestSmaskOnCreate:
    def test_create_cannot_produce_world_bits(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice").with_umask(0)
        inode = llsc_vfs.create("/tmp/f", alice, mode=0o666)
        assert inode.mode == 0o660

    def test_mkdir_cannot_produce_world_bits(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice").with_umask(0)
        inode = llsc_vfs.mkdir("/tmp/d", alice, mode=0o777)
        assert inode.mode == 0o770

    def test_root_create_keeps_world_bits(self, llsc_vfs):
        inode = llsc_vfs.create("/tmp/pub", ROOT_CREDS, mode=0o644)
        assert inode.mode == 0o644


class TestSmaskOnChmod:
    """'similar to setting umask 007, but it is immutable and enforced
    (even on chmod)'."""

    def test_chmod_777_silently_stripped_to_770(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice")
        llsc_vfs.create("/tmp/f", alice, mode=0o600)
        assert llsc_vfs.chmod("/tmp/f", alice, 0o777) == 0o770

    def test_chmod_cannot_expose_to_stranger(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice")
        bob = creds_of(userdb, "bob")
        llsc_vfs.create("/tmp/f", alice, mode=0o600, data=b"secret")
        llsc_vfs.chmod("/tmp/f", alice, 0o666)
        from repro.kernel.errors import AccessDenied
        with pytest.raises(AccessDenied):
            llsc_vfs.read("/tmp/f", bob)

    def test_stock_kernel_chmod_leaks(self, userdb):
        v = VFS(handler=STOCK_KERNEL)
        v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        v.create("/tmp/f", alice, mode=0o600, data=b"secret")
        v.chmod("/tmp/f", alice, 0o666)
        assert v.read("/tmp/f", bob) == b"secret"  # the leak smask blocks

    def test_root_chmod_unaffected(self, llsc_vfs):
        llsc_vfs.create("/tmp/pub", ROOT_CREDS, mode=0o600)
        assert llsc_vfs.chmod("/tmp/pub", ROOT_CREDS, 0o644) == 0o644


class TestAclRestriction:
    def test_grant_to_own_group_allowed(self, llsc_vfs, userdb):
        carol = smasked(userdb, "carol")
        fusion = userdb.group("fusion").gid
        llsc_vfs.create("/tmp/f", carol)
        llsc_vfs.setfacl("/tmp/f", carol, AclEntry("group", fusion, 4))
        assert llsc_vfs.getfacl("/tmp/f", carol)

    def test_grant_to_foreign_group_denied(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice")
        fusion = userdb.group("fusion").gid
        llsc_vfs.create("/tmp/f", alice)
        with pytest.raises(PermissionError_):
            llsc_vfs.setfacl("/tmp/f", alice, AclEntry("group", fusion, 4))

    def test_grant_to_foreign_uid_denied(self, llsc_vfs, userdb):
        alice = smasked(userdb, "alice")
        bob = creds_of(userdb, "bob")
        llsc_vfs.create("/tmp/f", alice)
        with pytest.raises(PermissionError_):
            llsc_vfs.setfacl("/tmp/f", alice, AclEntry("user", bob.uid, 4))

    def test_stock_kernel_allows_foreign_acl(self, userdb):
        v = VFS(handler=STOCK_KERNEL)
        v.mkdir("/tmp", ROOT_CREDS, mode=0o1777)
        alice = creds_of(userdb, "alice")
        bob = creds_of(userdb, "bob")
        v.create("/tmp/f", alice, mode=0o600, data=b"s")
        v.setfacl("/tmp/f", alice, AclEntry("user", bob.uid, 4))
        assert v.read("/tmp/f", bob) == b"s"  # leak blocked by the patch

    def test_root_can_grant_anything(self, llsc_vfs, userdb):
        bob = creds_of(userdb, "bob")
        llsc_vfs.create("/tmp/f", ROOT_CREDS)
        llsc_vfs.setfacl("/tmp/f", ROOT_CREDS, AclEntry("user", bob.uid, 4))


class TestLustreBypass:
    """Pre-LU-4746 Lustre read the raw umask: smask bypassed on create."""

    def _mounted(self, userdb, honors):
        v = VFS(handler=LLSC_KERNEL)
        fs = Filesystem("lustre", honors_smask=honors)
        v.mount("/scratch", fs, creds=ROOT_CREDS)
        # scratch root must be writable by users
        v.resolve("/scratch", ROOT_CREDS).mode = 0o1777
        return v

    def test_old_lustre_create_bypasses_smask(self, userdb):
        v = self._mounted(userdb, honors=False)
        alice = smasked(userdb, "alice").with_umask(0)
        inode = v.create("/scratch/f", alice, mode=0o666)
        assert inode.mode == 0o666  # the bug

    def test_patched_lustre_honors_smask(self, userdb):
        v = self._mounted(userdb, honors=True)
        alice = smasked(userdb, "alice").with_umask(0)
        inode = v.create("/scratch/f", alice, mode=0o666)
        assert inode.mode == 0o660

    def test_chmod_still_enforced_on_old_lustre(self, userdb):
        """The chmod path goes through the generic kernel, so even the buggy
        Lustre cannot re-add world bits via chmod."""
        v = self._mounted(userdb, honors=False)
        alice = smasked(userdb, "alice")
        v.create("/scratch/f", alice, mode=0o600)
        assert v.chmod("/scratch/f", alice, 0o666) == 0o660

    @pytest.mark.parametrize("link_dir,target,stored", [
        # a link on old Lustre into an honouring filesystem: smask applies
        ("/scratch", "/w", 0o660),
        # a link on an honouring filesystem into old Lustre: the bypass
        ("/w", "/scratch", 0o666),
    ], ids=["old-lustre-link-into-honouring",
            "honouring-link-into-old-lustre"])
    def test_create_through_symlink_follows_landing_filesystem(
            self, userdb, link_dir, target, stored):
        v = self._mounted(userdb, honors=False)
        v.mkdir("/w", ROOT_CREDS, mode=0o1777)
        alice = smasked(userdb, "alice").with_umask(0)
        v.symlink(target, f"{link_dir}/lnk", alice)
        inode = v.create(f"{link_dir}/lnk/f", alice, mode=0o666)
        assert inode.mode == stored
        assert v.resolve(f"{target}/f", alice) is inode
