"""Process-table indexes and the procfs fast paths (E24).

The table keeps per-uid and per-job live indexes so hidepid-filtered
views and the scheduler epilog touch O(own processes).  The fast paths
must be invisible: every query answers identically to the naive
filter-the-whole-table reference (``ProcFS(naive=True)``).
"""

from __future__ import annotations

import pytest

from repro.kernel import ProcMountOptions
from repro.kernel.errors import NoSuchProcess
from repro.kernel.process import ProcessTable, ProcState
from repro.kernel.procfs import ProcFS


@pytest.fixture
def populated(userdb):
    """A table with daemons and two users' job processes."""
    table = ProcessTable("n1")
    root = userdb.credentials_for(userdb.user("root"))
    table.spawn(root, ["slurmd"], daemon=True, rss_mb=50)
    for user, job in (("alice", 7), ("alice", 7), ("alice", 8),
                      ("bob", 9), ("bob", 9)):
        creds = userdb.credentials_for(userdb.user(user))
        table.spawn(creds, [f"{user}-app"], job_id=job, rss_mb=100)
    return table


def viewers(userdb, exempt_gid=None):
    out = {}
    for name in ("root", "alice", "bob", "carol", "sam"):
        creds = userdb.credentials_for(userdb.user(name))
        if name == "sam" and exempt_gid is not None:
            creds = creds.with_extra_group(exempt_gid)
        out[name] = creds
    return out


class TestProcfsFastPathsMatchNaive:
    @pytest.mark.parametrize("hidepid", [0, 1, 2])
    def test_all_views_identical_to_naive(self, userdb, populated, hidepid):
        exempt = userdb.add_system_group(
            "seepid", members={userdb.user("sam").uid})
        opts = ProcMountOptions(hidepid=hidepid, gid=exempt.gid)
        fast = ProcFS(populated, opts)
        naive = ProcFS(populated, opts, naive=True)
        for name, creds in viewers(userdb, exempt.gid).items():
            assert fast.list_pids(creds) == naive.list_pids(creds), name
            assert fast.ps(creds) == naive.ps(creds), name
            assert fast.visible_users(creds) == naive.visible_users(creds), \
                name

    def test_views_follow_process_death(self, userdb, populated):
        opts = ProcMountOptions(hidepid=2)
        fast = ProcFS(populated, opts)
        naive = ProcFS(populated, opts, naive=True)
        alice = userdb.credentials_for(userdb.user("alice"))
        before = fast.list_pids(alice)
        assert len(before) == 3
        populated.kill_job(7)
        assert fast.list_pids(alice) == naive.list_pids(alice)
        assert len(fast.list_pids(alice)) == 1
        assert fast.visible_users(alice) == {alice.uid}
        populated.kill_job(8)
        assert fast.visible_users(alice) == set()
        assert naive.visible_users(alice) == set()


class TestTableIndexes:
    def test_kill_job_reaps_only_that_job(self, userdb, populated):
        killed = populated.kill_job(7)
        assert len(killed) == 2
        assert killed == sorted(killed)
        for pid in killed:
            assert not populated.exists(pid)  # reaped: gone from the table
        # alice's job 8 and bob's job 9 untouched
        alice = userdb.user("alice").uid
        bob = userdb.user("bob").uid
        assert len(populated.of_user(alice)) == 1
        assert len(populated.of_user(bob)) == 2
        assert populated.kill_job(7) == []  # idempotent

    def test_of_user_is_pid_sorted_and_live_only(self, userdb, populated):
        alice = userdb.user("alice").uid
        procs = populated.of_user(alice)
        assert [p.pid for p in procs] == sorted(p.pid for p in procs)
        populated.kill(userdb.credentials_for(userdb.user("alice")),
                       procs[0].pid)
        assert len(populated.of_user(alice)) == 2

    def test_total_rss_tracks_spawn_and_reap(self, userdb):
        table = ProcessTable("n1")
        base = table.total_rss_mb()  # init
        creds = userdb.credentials_for(userdb.user("alice"))
        p1 = table.spawn(creds, ["a"], rss_mb=123)
        table.spawn(creds, ["b"], rss_mb=77)
        assert table.total_rss_mb() == base + 200
        table.reap(p1.pid)
        assert table.total_rss_mb() == base + 77

    def test_double_reap_does_not_corrupt_indexes(self, userdb):
        table = ProcessTable("n1")
        creds = userdb.credentials_for(userdb.user("alice"))
        p = table.spawn(creds, ["a"], rss_mb=40, job_id=3)
        base = table.total_rss_mb()
        table.reap(p.pid)
        table.reap(p.pid)
        assert table.total_rss_mb() == base - 40
        assert table.of_user(creds.uid) == []
        assert table.kill_job(3) == []

    def test_reaped_pids_leave_the_table(self, userdb):
        table = ProcessTable("n1")
        creds = userdb.credentials_for(userdb.user("alice"))
        p, q = table.spawn(creds, ["a"]), table.spawn(creds, ["b"])
        table.reap(p.pid, exit_code=1)
        # the caller's own Process carries the exit
        assert (p.state, p.exit_code) == (ProcState.DEAD, 1)
        assert p.pid not in table.pids()
        assert not table.exists(p.pid)
        with pytest.raises(NoSuchProcess):
            table.kill(creds, p.pid)
        # only the last exit stays readable through get; older ones are
        # gone, as if never spawned
        assert table.get(p.pid) is p
        table.reap(q.pid)
        with pytest.raises(NoSuchProcess):
            table.get(p.pid)
        assert len(table._procs) == len(table.pids()) == 1  # init
