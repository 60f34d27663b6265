"""Property: ``UserDB.credentials_for`` memoised per account generation.

Random account mutations (add user, project group, add/remove member,
system group) interleave with ``credentials_for`` calls for random users
and (smask, umask).  Every result must equal a fresh :class:`Credentials`
built from ``groups_of``, the reference; credentials handed out before a
mutation keep the groups they were built with; and an unchanged database
hands out the very same object.  Some examples crash the control plane
and ``recover()`` in the middle, which bumps the generation.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.config import SeparationConfig
from repro.kernel.users import Credentials
from repro.persist import attach_persistence

MASKS = st.sampled_from([0o000, 0o002, 0o007, 0o022, 0o077])

ops = st.lists(st.one_of(
    st.tuples(st.just("user")),
    st.tuples(st.just("project"), st.integers(0, 15)),
    st.tuples(st.just("add"), st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("remove"), st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("system"), st.sets(st.integers(0, 15), max_size=3)),
    st.tuples(st.just("creds"), st.integers(0, 15), MASKS, MASKS),
    st.tuples(st.just("creds"), st.integers(0, 15), MASKS, MASKS),
), max_size=30)


def reference(db, user, smask, umask) -> Credentials:
    return Credentials(uid=user.uid, egid=user.primary_gid,
                       groups=db.groups_of(user), umask=umask, smask=smask)


@settings(max_examples=40)
@given(ops=ops, crash_at=st.none() | st.integers(0, 30))
@example(ops=[("creds", 1, 0o007, 0o022), ("project", 1),
              ("add", 0, 0), ("creds", 1, 0o007, 0o022),
              ("remove", 0, 0), ("creds", 1, 0o007, 0o022)],
         crash_at=3)
def test_credentials_for_matches_groups_of(ops, crash_at):
    cluster = Cluster.build(SeparationConfig(), n_compute=1,
                            users=("alice", "bob"),
                            projects={"fusion": ("alice", "bob")})
    attach_persistence(cluster)
    db = cluster.userdb
    root = db.user("root")
    projects = [db.group("fusion")]
    handed_out: list[tuple[Credentials, frozenset[int]]] = []

    def pick(seq, i):
        return seq[i % len(seq)]

    for step, op in enumerate(ops):
        if step == crash_at:
            cluster.chaos().crash_scheduler()
            assert cluster.recover().identical
            projects = [db.group(g.gid) for g in projects]
        users = db.users()
        kind = op[0]
        if kind == "user":
            db.add_user(f"u{step}")
        elif kind == "project":
            projects.append(db.add_project_group(
                f"p{step}", steward=pick(users, op[1])))
        elif kind in ("add", "remove"):
            group, user = pick(projects, op[1]), pick(users, op[2])
            change = (db.add_to_project if kind == "add"
                      else db.remove_from_project)
            change(group, user, approver=root)
        elif kind == "system":
            db.add_system_group(
                f"s{step}", members={pick(users, i).uid for i in op[1]})
        else:
            user, smask, umask = pick(users, op[1]), op[2], op[3]
            creds = db.credentials_for(user, smask=smask, umask=umask)
            assert creds == reference(db, user, smask, umask)
            # an unchanged database hands out the same frozen object
            assert db.credentials_for(user, smask=smask, umask=umask) \
                is creds
            handed_out.append((creds, creds.groups))
        for creds, groups in handed_out:
            assert creds.groups == groups
