"""Unit tests: PAM stack, node sessions, syscall façade."""

import pytest

from repro.kernel import (
    PAPER_SMASK,
    PamSlurm,
    PamSmask,
    PamStack,
    PamUnix,
    SyscallInterface,
)
from repro.kernel.errors import AccessDenied, InvalidArgument, PermissionError_
from repro.kernel.process import ProcState

from tests.conftest import creds_of


class TestPamSmask:
    def test_session_installs_smask(self, userdb):
        stack = PamStack([PamUnix(), PamSmask(PAPER_SMASK)])
        alice = userdb.user("alice")
        creds = stack.open_session(alice, "n1", userdb.credentials_for(alice))
        assert creds.smask == PAPER_SMASK

    def test_root_session_not_masked(self, userdb):
        stack = PamStack([PamUnix(), PamSmask(PAPER_SMASK)])
        root = userdb.user("root")
        creds = stack.open_session(root, "n1", userdb.credentials_for(root))
        assert creds.smask == 0


class TestPamSlurm:
    def _stack(self, jobs, exempt=()):
        return PamStack([
            PamUnix(),
            PamSlurm(has_job_on=lambda uid, node: (uid, node) in jobs,
                     exempt_nodes=frozenset(exempt)),
        ])

    def test_denied_without_job(self, userdb):
        alice = userdb.user("alice")
        stack = self._stack(jobs=set())
        with pytest.raises(AccessDenied):
            stack.open_session(alice, "c1", userdb.credentials_for(alice))

    def test_allowed_with_job(self, userdb):
        alice = userdb.user("alice")
        stack = self._stack(jobs={(alice.uid, "c1")})
        creds = stack.open_session(alice, "c1", userdb.credentials_for(alice))
        assert creds.uid == alice.uid

    def test_job_on_other_node_does_not_help(self, userdb):
        alice = userdb.user("alice")
        stack = self._stack(jobs={(alice.uid, "c2")})
        with pytest.raises(AccessDenied):
            stack.open_session(alice, "c1", userdb.credentials_for(alice))

    def test_login_node_exempt(self, userdb):
        alice = userdb.user("alice")
        stack = self._stack(jobs=set(), exempt=("login1",))
        stack.open_session(alice, "login1", userdb.credentials_for(alice))

    def test_root_exempt(self, userdb):
        root = userdb.user("root")
        stack = self._stack(jobs=set())
        stack.open_session(root, "c1", userdb.credentials_for(root))


class TestNodeSessions:
    def test_llsc_node_session_has_smask(self, llsc_node, userdb):
        creds = llsc_node.open_session(userdb.user("alice"))
        assert creds.smask == PAPER_SMASK

    def test_stock_node_session_has_no_smask(self, stock_node, userdb):
        creds = stock_node.open_session(userdb.user("alice"))
        assert creds.smask == 0

    def test_node_local_layout(self, stock_node):
        from repro.kernel import ROOT_CREDS
        st = stock_node.vfs.stat("/tmp", ROOT_CREDS)
        assert st.mode == 0o1777
        assert stock_node.vfs.stat("/dev/shm", ROOT_CREDS).mode == 0o1777
        assert "null" in stock_node.vfs.listdir("/dev", ROOT_CREDS)


class TestSyscallInterface:
    @pytest.fixture
    def sys_alice(self, stock_node, userdb):
        creds = stock_node.open_session(userdb.user("alice"))
        proc = stock_node.procs.spawn(creds, ["bash"])
        return SyscallInterface(stock_node, proc)

    def test_file_roundtrip(self, sys_alice):
        sys_alice.create("/tmp/x", mode=0o600, data=b"hello")
        assert sys_alice.open_read("/tmp/x") == b"hello"

    def test_umask_change_applies(self, sys_alice):
        sys_alice.umask(0o077)
        st = sys_alice.create("/tmp/y", mode=0o666)
        assert st.mode == 0o600

    def test_ps_sees_self(self, sys_alice):
        assert any(r.pid == sys_alice.process.pid for r in sys_alice.ps())

    def test_kill_foreign_denied(self, sys_alice, stock_node, userdb):
        bob = stock_node.procs.spawn(creds_of(userdb, "bob"), ["sleep"])
        with pytest.raises(PermissionError_):
            sys_alice.kill(bob.pid)

    def test_spawn_child_inherits(self, sys_alice):
        child = sys_alice.spawn_child(["worker"])
        assert child.creds.uid == sys_alice.creds.uid
        assert child.process.ppid == sys_alice.process.pid

    def test_newgrp(self, stock_node, userdb):
        creds = stock_node.open_session(userdb.user("dave"))
        proc = stock_node.procs.spawn(creds, ["bash"])
        sys = SyscallInterface(stock_node, proc)
        fusion = userdb.group("fusion").gid
        sys.newgrp(fusion)
        assert sys.creds.egid == fusion

    def test_newgrp_foreign_denied(self, sys_alice, userdb):
        fusion = userdb.group("fusion").gid
        with pytest.raises(PermissionError_):
            sys_alice.newgrp(fusion)

    def test_socket_without_network_raises(self, sys_alice):
        with pytest.raises(InvalidArgument):
            sys_alice.socket()

    def test_exit_reaps(self, sys_alice, stock_node):
        proc = sys_alice.process
        sys_alice.exit(3)
        assert (proc.state, proc.exit_code) == (ProcState.DEAD, 3)
        assert not stock_node.procs.exists(proc.pid)
        assert proc.pid not in stock_node.procs.pids()
