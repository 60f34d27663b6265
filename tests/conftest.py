"""Shared fixtures: a small user population and node factories."""

from __future__ import annotations

import pytest

from repro.kernel import (
    Credentials,
    Filesystem,
    LinuxNode,
    LLSC_KERNEL,
    PAPER_SMASK,
    PamSmask,
    PamStack,
    PamUnix,
    ProcMountOptions,
    ROOT_CREDS,
    STOCK_KERNEL,
    UserDB,
)


@pytest.fixture
def userdb() -> UserDB:
    """UPG-scheme user database: alice, bob (strangers), carol+dave sharing
    the 'fusion' project group stewarded by carol, and staff member sam."""
    return make_userdb()


def make_userdb() -> UserDB:
    """The :func:`userdb` fixture's database, for tests that build one per
    Hypothesis example."""
    db = UserDB(upg=True)
    db.add_user("alice")
    db.add_user("bob")
    carol = db.add_user("carol")
    dave = db.add_user("dave")
    db.add_user("sam", support_staff=True)
    grp = db.add_project_group("fusion", steward=carol)
    db.add_to_project(grp, dave, approver=carol)
    return db


@pytest.fixture
def flat_userdb() -> UserDB:
    """Stock (non-UPG) database: everyone shares gid 100 'users'."""
    db = UserDB(upg=False)
    for name in ("alice", "bob", "carol"):
        db.add_user(name)
    return db


def creds_of(db: UserDB, name: str, **kw) -> Credentials:
    return db.credentials_for(db.user(name), **kw)


@pytest.fixture
def stock_node(userdb) -> LinuxNode:
    """A node with stock-kernel semantics (no smask, hidepid=0)."""
    return LinuxNode("n1", userdb, handler=STOCK_KERNEL)


@pytest.fixture
def llsc_node(userdb) -> LinuxNode:
    """A node configured the paper's way: smask kernel patch + hidepid=2
    with a staff exemption gid, pam_smask in the stack."""
    exempt = userdb.add_system_group("seepid", members={userdb.user("sam").uid})
    node = LinuxNode(
        "n1", userdb, handler=LLSC_KERNEL,
        proc_options=ProcMountOptions(hidepid=2, gid=exempt.gid),
        pam=PamStack([PamUnix(), PamSmask(PAPER_SMASK)]),
    )
    return node


@pytest.fixture
def shared_home(userdb) -> Filesystem:
    """A central filesystem with paper-style home directories: owned by
    root, group = the user's private group, mode 0770."""
    fs = Filesystem("lustre-home")
    vfs_holder = LinuxNode("fsbuilder", userdb)
    vfs_holder.mount_shared("/home", fs)
    for u in userdb.users():
        if u.is_root:
            continue
        vfs_holder.vfs.mkdir(f"/home/{u.name}", ROOT_CREDS, mode=0o770)
        vfs_holder.vfs.chown(f"/home/{u.name}", ROOT_CREDS, gid=u.primary_gid)
    return fs
