"""Unit tests: users, groups, UPG scheme, project groups, credentials."""

import pytest

from repro.kernel import Credentials
from repro.kernel.errors import Exists, InvalidArgument, NoSuchEntity, PermissionError_


class TestUPGScheme:
    def test_user_gets_private_group(self, userdb):
        alice = userdb.user("alice")
        grp = userdb.group(alice.primary_gid)
        assert grp.private_for == alice.uid
        assert grp.members == {alice.uid}
        assert grp.name == "alice"

    def test_private_groups_are_disjoint(self, userdb):
        alice = userdb.user("alice")
        bob = userdb.user("bob")
        assert alice.primary_gid != bob.primary_gid
        assert bob.uid not in userdb.group(alice.primary_gid).members

    def test_non_upg_users_share_group(self, flat_userdb):
        alice = flat_userdb.user("alice")
        bob = flat_userdb.user("bob")
        assert alice.primary_gid == bob.primary_gid == 100

    def test_strangers_share_no_group(self, userdb):
        assert not userdb.shares_group(userdb.user("alice"), userdb.user("bob"))

    def test_project_members_share_group(self, userdb):
        assert userdb.shares_group(userdb.user("carol"), userdb.user("dave"))

    def test_flat_scheme_everyone_shares(self, flat_userdb):
        assert flat_userdb.shares_group(flat_userdb.user("alice"),
                                        flat_userdb.user("bob"))

    def test_duplicate_user_rejected(self, userdb):
        with pytest.raises(Exists):
            userdb.add_user("alice")

    def test_unknown_user_lookup(self, userdb):
        with pytest.raises(NoSuchEntity):
            userdb.user("mallory")
        with pytest.raises(NoSuchEntity):
            userdb.user(99999)

    def test_uid_lookup_roundtrip(self, userdb):
        alice = userdb.user("alice")
        assert userdb.user(alice.uid) is alice


class TestProjectGroups:
    def test_steward_can_add_member(self, userdb):
        carol = userdb.user("carol")
        alice = userdb.user("alice")
        userdb.add_to_project("fusion", alice, approver=carol)
        assert alice.uid in userdb.group("fusion").members

    def test_non_steward_cannot_add(self, userdb):
        dave = userdb.user("dave")  # member but not steward
        alice = userdb.user("alice")
        with pytest.raises(PermissionError_):
            userdb.add_to_project("fusion", alice, approver=dave)

    def test_root_can_add(self, userdb):
        root = userdb.user("root")
        alice = userdb.user("alice")
        userdb.add_to_project("fusion", alice, approver=root)
        assert alice.uid in userdb.group("fusion").members

    def test_steward_can_remove(self, userdb):
        carol = userdb.user("carol")
        dave = userdb.user("dave")
        userdb.remove_from_project("fusion", dave, approver=carol)
        assert dave.uid not in userdb.group("fusion").members

    def test_private_group_is_not_project(self, userdb):
        alice = userdb.user("alice")
        with pytest.raises(InvalidArgument):
            userdb.add_to_project(userdb.group(alice.primary_gid).name,
                                  userdb.user("bob"),
                                  approver=userdb.user("root"))

    def test_membership_reflected_in_credentials(self, userdb):
        dave = userdb.user("dave")
        creds = userdb.credentials_for(dave)
        assert userdb.group("fusion").gid in creds.groups


class TestCredentials:
    def test_newgrp_to_member_group(self, userdb):
        dave = userdb.user("dave")
        creds = userdb.credentials_for(dave)
        fusion = userdb.group("fusion").gid
        assert creds.with_egid(fusion).egid == fusion

    def test_newgrp_to_foreign_group_denied(self, userdb):
        alice = userdb.user("alice")
        creds = userdb.credentials_for(alice)
        fusion = userdb.group("fusion").gid
        with pytest.raises(PermissionError_):
            creds.with_egid(fusion)

    def test_root_may_switch_to_any_group(self, userdb):
        root_creds = userdb.credentials_for(userdb.user("root"))
        fusion = userdb.group("fusion").gid
        assert root_creds.with_egid(fusion).egid == fusion

    def test_in_group_covers_egid_and_supplementary(self, userdb):
        dave = userdb.user("dave")
        creds = userdb.credentials_for(dave)
        assert creds.in_group(dave.primary_gid)
        assert creds.in_group(userdb.group("fusion").gid)
        assert not creds.in_group(userdb.user("alice").primary_gid)

    def test_credentials_are_immutable(self, userdb):
        creds = userdb.credentials_for(userdb.user("alice"))
        with pytest.raises(AttributeError):
            creds.uid = 0  # type: ignore[misc]

    def test_umask_and_smask_masked_to_9_bits(self):
        c = Credentials(uid=1, egid=1, groups=frozenset({1}))
        assert c.with_umask(0o7777).umask == 0o777
        assert c.with_smask(0o7007).smask == 0o007

    def test_with_smask_keeps_every_other_field(self):
        """``with_smask`` names each field instead of calling ``replace``;
        every field below is off its default, so one it forgot would
        show.  A new defaulted field fails the second check until it is
        set here too."""
        import dataclasses
        c = Credentials(uid=1001, egid=3000, groups=frozenset({1001, 3000}),
                        umask=0o077, smask=0o007, proc_exempt=True)
        assert c.with_smask(0o027) == dataclasses.replace(c, smask=0o027)
        assert all(getattr(c, f.name) != f.default
                   for f in dataclasses.fields(c)
                   if f.default is not dataclasses.MISSING)

    def test_support_staff_flag(self, userdb):
        assert userdb.user("sam").is_support_staff
        assert not userdb.user("alice").is_support_staff
