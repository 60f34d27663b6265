"""Users, groups, the user-private-group (UPG) scheme, and credentials.

Section IV-C of the paper assumes "the standard user private group model is
in use, which means every user's default group is a private group which
contains only themselves".  Sharing is *only* intended through "approved
project groups", each with one or more "data stewards" who approve membership
changes and are responsible for the group's contents.

:class:`UserDB` implements that account model; :class:`Credentials` is the
per-process credential set (uid, effective gid, supplementary groups) that
every enforcement point in the simulated kernel consumes.  ``newgrp``/``sg``
semantics — switching the *effective* gid to any group the user is a member
of — are provided by :meth:`Credentials.with_egid`, because the paper's
user-based firewall keys its group rule off the listener's egid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.kernel.errors import Exists, InvalidArgument, NoSuchEntity, PermissionError_
from repro.observer import Observers

#: uid of the superuser.
ROOT_UID = 0
#: gid of the superuser's group.
ROOT_GID = 0

#: First uid/gid handed out to ordinary users (mirrors a typical /etc/login.defs).
FIRST_USER_ID = 1000


@dataclass(frozen=True)
class User:
    """An account on the cluster.

    Attributes
    ----------
    name: login name.
    uid: numeric id.
    primary_gid: the user's default group; under the UPG scheme this is a
        private group containing only this user.
    is_support_staff: marks HPC support personnel (research facilitators /
        solution architects) eligible for the ``seepid`` / ``smask_relax``
        escalation tools of Sections IV-A and IV-C.  Staff are *not* root.
    """

    name: str
    uid: int
    primary_gid: int
    is_support_staff: bool = False

    @property
    def is_root(self) -> bool:
        return self.uid == ROOT_UID


@dataclass
class Group:
    """A UNIX group.

    ``private_for`` is set to the owning uid for user-private groups;
    ``stewards`` is non-empty only for approved project groups (Section IV-C),
    where membership changes must be made by a steward (or root).
    """

    name: str
    gid: int
    members: set[int] = field(default_factory=set)
    private_for: int | None = None
    stewards: set[int] = field(default_factory=set)

    @property
    def is_private(self) -> bool:
        return self.private_for is not None

    @property
    def is_project(self) -> bool:
        return bool(self.stewards)


@dataclass(frozen=True)
class Credentials:
    """The credential set a process carries.

    ``egid`` is the *effective* gid used for new-file group ownership and for
    the UBF's group rule; ``groups`` is the full supplementary membership set
    (always including the primary/private group).  ``umask`` is the classic
    discretionary mask; ``smask`` is the paper's *security mask* — immutable
    from the process's point of view, applied by the File Permission Handler
    kernel patch (see :mod:`repro.kernel.smask`).
    """

    uid: int
    egid: int
    groups: frozenset[int]
    umask: int = 0o022
    smask: int = 0o000
    proc_exempt: bool = False  # member of the hidepid gid= exemption group

    @property
    def is_root(self) -> bool:
        return self.uid == ROOT_UID

    def in_group(self, gid: int) -> bool:
        """True if *gid* is the effective gid or a supplementary group."""
        return gid == self.egid or gid in self.groups

    def with_egid(self, gid: int) -> "Credentials":
        """Return credentials with the effective gid switched (``newgrp``/``sg``).

        Raises :class:`PermissionError_` if the caller is not a member of the
        target group (root may switch freely).
        """
        if not self.is_root and gid not in self.groups and gid != self.egid:
            raise PermissionError_(f"uid {self.uid} is not a member of gid {gid}")
        return replace(self, egid=gid)

    def with_umask(self, umask: int) -> "Credentials":
        return replace(self, umask=umask & 0o777)

    def with_smask(self, smask: int) -> "Credentials":
        """Used only by the PAM session hook / ``smask_relax``; ordinary code
        cannot loosen its own smask (the patch enforces it kernel-side).

        Built with the constructor rather than ``dataclasses.replace``:
        PAM calls this on every login, and ``replace`` re-reads the field
        list each time.  A field added to the class must be passed on here
        too; ``test_with_smask_keeps_every_other_field`` fails until it is."""
        return Credentials(uid=self.uid, egid=self.egid, groups=self.groups,
                           umask=self.umask, smask=smask & 0o777,
                           proc_exempt=self.proc_exempt)

    def with_extra_group(self, gid: int) -> "Credentials":
        return replace(self, groups=self.groups | {gid})


class UserDB:
    """Account database for a cluster, implementing the UPG scheme.

    Parameters
    ----------
    upg:
        When True (the paper's deployment), every created user gets a fresh
        private group as their primary group.  When False (a "stock" system,
        used by the BASELINE preset), all users share a common ``users``
        group — the configuration under which ``chmod g+rw`` leaks data to
        every other user.
    """

    def __init__(self, upg: bool = True):
        self.upg = upg
        #: bumped on every membership-affecting mutation; consumers caching
        #: derived views (e.g. the UBF's verdict cache, the credentials
        #: memo below) key on it.
        self.generation = 0
        #: credentials_for's results, valid for generation ``_creds_gen``
        self._creds: dict[tuple[int, int, int, int], Credentials] = {}
        self._creds_gen = 0
        #: optional planes (repro.observer) told every account mutation
        self.observers = Observers()
        self._users: dict[str, User] = {}
        self._users_by_uid: dict[int, User] = {}
        self._groups: dict[str, Group] = {}
        self._groups_by_gid: dict[int, Group] = {}
        self._next_uid = FIRST_USER_ID
        self._next_gid = FIRST_USER_ID
        root_grp = Group("root", ROOT_GID, members={ROOT_UID})
        self._register_group(root_grp)
        root = User("root", ROOT_UID, ROOT_GID)
        self._users["root"] = root
        self._users_by_uid[ROOT_UID] = root
        if not upg:
            self._register_group(Group("users", 100, members=set()))

    # -- registration ------------------------------------------------------

    def _register_group(self, group: Group) -> Group:
        if group.name in self._groups:
            raise Exists(f"group {group.name!r}")
        if group.gid in self._groups_by_gid:
            raise Exists(f"gid {group.gid}")
        self._groups[group.name] = group
        self._groups_by_gid[group.gid] = group
        return group

    def add_user(self, name: str, *, support_staff: bool = False) -> User:
        """Create a user (and their private group under UPG)."""
        if name in self._users:
            raise Exists(f"user {name!r}")
        uid = self._next_uid
        self._next_uid += 1
        if self.upg:
            gid = self._next_gid
            self._next_gid = max(self._next_gid + 1, self._next_uid)
            self._register_group(Group(name, gid, members={uid}, private_for=uid))
        else:
            gid = 100  # shared "users" group
            self._groups_by_gid[gid].members.add(uid)
        user = User(name, uid, gid, is_support_staff=support_staff)
        self._users[name] = user
        self._users_by_uid[uid] = user
        self.generation += 1
        for f in self.observers.user_added:
            f(user, self.generation)
        return user

    def add_project_group(self, name: str, steward: User) -> Group:
        """Create an approved project group with *steward* as data steward.

        Only cluster staff create these in practice; in the simulation the
        call itself is unrestricted but membership changes afterwards are
        steward-gated (:meth:`add_to_project`).
        """
        gid = self._next_gid
        self._next_gid += 1
        grp = Group(name, gid, members={steward.uid}, stewards={steward.uid})
        self.generation += 1
        self._register_group(grp)
        for f in self.observers.project_group_added:
            f(grp, self.generation)
        return grp

    def add_to_project(self, group: Group | str, user: User, *, approver: User) -> None:
        """Add *user* to a project group; *approver* must be a steward or root."""
        grp = self.group(group) if isinstance(group, str) else group
        if not grp.is_project:
            raise InvalidArgument(f"{grp.name!r} is not an approved project group")
        if approver.uid not in grp.stewards and not approver.is_root:
            raise PermissionError_(
                f"{approver.name} is not a data steward of {grp.name!r}"
            )
        grp.members.add(user.uid)
        self.generation += 1
        for f in self.observers.member_added:
            f(grp, user.uid, self.generation)

    def remove_from_project(self, group: Group | str, user: User, *, approver: User) -> None:
        grp = self.group(group) if isinstance(group, str) else group
        if not grp.is_project:
            raise InvalidArgument(f"{grp.name!r} is not an approved project group")
        if approver.uid not in grp.stewards and not approver.is_root:
            raise PermissionError_(
                f"{approver.name} is not a data steward of {grp.name!r}"
            )
        grp.members.discard(user.uid)
        self.generation += 1
        for f in self.observers.member_removed:
            f(grp, user.uid, self.generation)

    def add_system_group(self, name: str, members: set[int] | None = None) -> Group:
        """Create a plain system group (e.g. the hidepid exemption group)."""
        gid = self._next_gid
        self._next_gid += 1
        self.generation += 1
        grp = self._register_group(Group(name, gid, members=set(members or ())))
        for f in self.observers.system_group_added:
            f(grp, self.generation)
        return grp

    # -- lookup ------------------------------------------------------------

    def user(self, name_or_uid: str | int) -> User:
        try:
            if isinstance(name_or_uid, int):
                return self._users_by_uid[name_or_uid]
            return self._users[name_or_uid]
        except KeyError:
            raise NoSuchEntity(f"user {name_or_uid!r}") from None

    def group(self, name_or_gid: str | int) -> Group:
        try:
            if isinstance(name_or_gid, int):
                return self._groups_by_gid[name_or_gid]
            return self._groups[name_or_gid]
        except KeyError:
            raise NoSuchEntity(f"group {name_or_gid!r}") from None

    def users(self) -> list[User]:
        return list(self._users.values())

    def groups_of(self, user: User) -> frozenset[int]:
        """All gids *user* belongs to (primary + supplementary)."""
        return frozenset(
            g.gid for g in self._groups.values() if user.uid in g.members
        ) | {user.primary_gid}

    def credentials_for(self, user: User, *, smask: int = 0o000,
                        umask: int = 0o022) -> Credentials:
        """The credential set a login session of *user* starts with.

        Memoised per account-database generation on everything it reads:
        :class:`Credentials` is frozen, so sessions share one object, and
        a session keeps the credentials it logged in with after a later
        membership change (the next login sees the change).  Any move of
        ``generation`` — a mutation or a recovery's bump — empties the
        memo; :meth:`groups_of` stays the reference that fills it.
        """
        if self._creds_gen != self.generation:
            self._creds.clear()
            self._creds_gen = self.generation
        key = (user.uid, user.primary_gid, smask, umask)
        creds = self._creds.get(key)
        if creds is None:
            creds = self._creds[key] = Credentials(
                uid=user.uid,
                egid=user.primary_gid,
                groups=self.groups_of(user),
                umask=umask,
                smask=smask,
            )
        return creds

    def shares_group(self, a: User, b: User) -> bool:
        """True if the two users share any non-system supplementary group."""
        common = self.groups_of(a) & self.groups_of(b)
        return any(
            not self._groups_by_gid[g].is_private
            for g in common
            if g in self._groups_by_gid
        )
