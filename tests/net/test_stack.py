"""Unit tests: sockets, TCP connections, UDP datagrams (no UBF)."""

import pytest

from repro import LLSC, Cluster
from repro.kernel.errors import (
    AddressInUse,
    ConnectionRefused,
    InvalidArgument,
    NoSuchEntity,
    NotConnected,
    PermissionError_,
    TimedOut,
)
from repro.net import Proto
from repro.net.stack import EPHEMERAL_START

from tests.net.conftest import build_fabric, proc_on


class TestBind:
    def test_bind_and_lookup(self, open_fabric, userdb):
        fabric, nodes, _ = open_fabric
        p = proc_on(nodes, "c1", userdb, "alice")
        sock = nodes["c1"].net.bind(p, 5000)
        assert fabric.host("c1").lookup(Proto.TCP, 5000) is sock
        assert sock.owner_uid == p.creds.uid

    def test_double_bind_eaddrinuse(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        a = proc_on(nodes, "c1", userdb, "alice")
        b = proc_on(nodes, "c1", userdb, "bob")
        nodes["c1"].net.bind(a, 5000)
        with pytest.raises(AddressInUse):
            nodes["c1"].net.bind(b, 5000)

    def test_same_port_different_hosts_ok(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        nodes["c1"].net.bind(proc_on(nodes, "c1", userdb, "alice"), 5000)
        nodes["c2"].net.bind(proc_on(nodes, "c2", userdb, "bob"), 5000)

    def test_privileged_port_requires_root(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        with pytest.raises(PermissionError_):
            nodes["c1"].net.bind(proc_on(nodes, "c1", userdb, "alice"), 80)
        nodes["c1"].net.bind(proc_on(nodes, "c1", userdb, "root"), 80)

    def test_closed_port_rebindable(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        p = proc_on(nodes, "c1", userdb, "alice")
        s = nodes["c1"].net.bind(p, 5000)
        nodes["c1"].net.close(s)
        nodes["c1"].net.bind(p, 5000)

    def test_closed_sockets_leave_the_table(self, open_fabric, userdb):
        """A released socket is not kept, nor the process that owned it."""
        _, nodes, _ = open_fabric
        net = nodes["c1"].net
        p = proc_on(nodes, "c1", userdb, "alice")
        socks = [net.listen(net.bind(p, 5000)), net.bind(p, 6000, Proto.UDP),
                 net.bind_ephemeral(p, Proto.UDP), net.abstract_bind(p, "ipc")]
        for sock in socks:
            net.close(sock)
        assert net._sockets == {} and net._abstract == {}

    def test_a_stale_close_keeps_the_rebound_socket(self, open_fabric,
                                                     userdb):
        """Closing a socket again after its port or name was bound anew
        leaves the new socket in the table."""
        _, nodes, _ = open_fabric
        net = nodes["c1"].net
        alice = proc_on(nodes, "c1", userdb, "alice")
        old = [net.bind(alice, 5000), net.abstract_bind(alice, "ipc")]
        for sock in old:
            net.close(sock)
        bob = proc_on(nodes, "c1", userdb, "bob")
        new = net.bind(bob, 5000)
        named = net.abstract_bind(bob, "ipc")
        for sock in old:
            net.close(sock)
        assert net.lookup(Proto.TCP, 5000) is new
        assert net._abstract == {"ipc": named}

    def test_bad_port_rejected(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        p = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(InvalidArgument):
            nodes["c1"].net.bind(p, 70000)


class TestTcp:
    def _serve(self, nodes, userdb, host, user, port):
        p = proc_on(nodes, host, userdb, user, argv=("server",))
        return nodes[host].net.listen(nodes[host].net.bind(p, port)), p

    def test_connect_send_recv(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c2", "alice", 5000)
        client = proc_on(nodes, "c1", userdb, "alice")
        conn = nodes["c1"].net.connect(client, "c2", 5000)
        conn.send(b"ping")
        server_end = nodes["c2"].net.accept(listener)
        assert server_end.recv() == b"ping"
        server_end.send(b"pong")
        assert conn.recv() == b"pong"

    def test_connect_no_listener_refused(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        client = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.connect(client, "c2", 7777)

    @pytest.mark.parametrize("dst,port,exc", [
        ("nohost", 5000, NoSuchEntity),
        ("c2", 7777, ConnectionRefused),
    ])
    def test_failed_connect_releases_its_port(self, open_fabric, userdb,
                                              dst, port, exc):
        """A connect that fails, to an unknown host too, leaves none of
        its ephemeral ports bound."""
        _, nodes, _ = open_fabric
        client = proc_on(nodes, "c1", userdb, "alice")
        stack = nodes["c1"].net
        for _ in range(3):
            with pytest.raises(exc):
                stack.connect(client, dst, port)
        assert [p for p in range(EPHEMERAL_START, EPHEMERAL_START + 3)
                if stack.lookup(Proto.TCP, p) is not None] == []

    def test_bound_but_not_listening_refused(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        p = proc_on(nodes, "c2", userdb, "bob")
        nodes["c2"].net.bind(p, 5000)
        client = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.connect(client, "c2", 5000)

    def test_recv_empty_returns_blank(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        assert conn.recv() == b""

    def test_closed_connection_raises(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        conn.close()
        with pytest.raises(NotConnected):
            conn.send(b"x")

    def test_accept_empty_queue(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c2", "alice", 5000)
        with pytest.raises(TimedOut):
            nodes["c2"].net.accept(listener)

    def test_accept_on_non_listening_socket(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        p = proc_on(nodes, "c2", userdb, "bob")
        sock = nodes["c2"].net.bind(p, 5000)
        with pytest.raises(InvalidArgument):
            nodes["c2"].net.accept(sock)

    def test_listen_on_udp_socket_rejected(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        p = proc_on(nodes, "c2", userdb, "bob")
        sock = nodes["c2"].net.bind(p, 5000, Proto.UDP)
        with pytest.raises(InvalidArgument):
            nodes["c2"].net.listen(sock)

    def test_loopback_connect_same_host(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c1", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c1", 5000)
        conn.send(b"hi")
        assert nodes["c1"].net.accept(listener).recv() == b"hi"

    def test_conntrack_size_reported_per_host(self, open_fabric, userdb):
        """Each host's table reports its own length: c1 tracks both of its
        connections, c2 and c3 one each, and a close moves both ends."""
        fabric, nodes, _ = open_fabric
        for host in ("c2", "c3"):
            self._serve(nodes, userdb, host, "alice", 5000)
        cli = proc_on(nodes, "c1", userdb, "alice")
        conn = nodes["c1"].net.connect(cli, "c2", 5000)
        nodes["c1"].net.connect(cli, "c3", 5000)

        def sizes():
            return {h: fabric.metrics.gauge("conntrack_table_size",
                                            host=h).value
                    for h in ("c1", "c2", "c3")}

        assert sizes() == {"c1": 2, "c2": 1, "c3": 1}
        conn.close()
        assert sizes() == {"c1": 1, "c2": 0, "c3": 1}

    def test_metrics_count_connections(self, open_fabric, userdb):
        fabric, nodes, _ = open_fabric
        listener, _ = self._serve(nodes, userdb, "c2", "alice", 5000)
        nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"), "c2", 5000)
        rep = fabric.metrics.report()
        assert rep["connect_attempts"] == 1
        assert rep["connects_established"] == 1


class TestUdp:
    def test_datagram_roundtrip(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        cli = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.sendto(cli, "c2", 6000, b"dgram")
        d = nodes["c2"].net.recvfrom(inbox)
        assert d.data == b"dgram"
        assert d.src_host == "c1"

    def test_no_receiver_refused(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        cli = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.sendto(cli, "c2", 6000, b"x")

    def test_recvfrom_empty(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        with pytest.raises(TimedOut):
            nodes["c2"].net.recvfrom(inbox)

    def test_reply_via_source_port(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        cli = proc_on(nodes, "c1", userdb, "alice")
        cli_sock = nodes["c1"].net.bind_ephemeral(cli, Proto.UDP)
        nodes["c1"].net.sendto(cli, "c2", 6000, b"q", src_sock=cli_sock)
        d = nodes["c2"].net.recvfrom(inbox)
        nodes["c2"].net.sendto(srv, d.src_host, d.src_port, b"a",
                               src_sock=inbox)
        assert nodes["c1"].net.recvfrom(cli_sock).data == b"a"

    def test_implicit_sends_leave_no_flow_behind(self, open_fabric, userdb):
        """An implicit socket's flow goes with it: untracked on both
        hosts and gone from the receiver's flow set."""
        fabric, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        cli = proc_on(nodes, "c1", userdb, "alice")
        for _ in range(300):
            nodes["c1"].net.sendto(cli, "c2", 6000, b"x")
        assert len(inbox.datagrams) == 300
        assert inbox.flows == set()
        for host in ("c1", "c2"):
            assert fabric.host(host).firewall.conntrack.flows() == []

    def test_evicting_a_flow_clears_both_sockets(self, open_fabric, userdb):
        """``Fabric.untrack`` and closing either end remove a datagram
        flow from the flow sets of both its sockets."""
        fabric, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        cli = proc_on(nodes, "c1", userdb, "alice")
        a = nodes["c1"].net.bind_ephemeral(cli, Proto.UDP)
        b = nodes["c1"].net.bind_ephemeral(cli, Proto.UDP)
        nodes["c1"].net.sendto(cli, "c2", 6000, b"1", src_sock=a)
        nodes["c1"].net.sendto(cli, "c2", 6000, b"2", src_sock=b)
        (flow_a,), (flow_b,) = a.flows, b.flows
        assert inbox.flows == {flow_a, flow_b}
        fabric.untrack(flow_a, reason="test")
        assert a.flows == set() and inbox.flows == {flow_b}
        nodes["c2"].net.close(inbox)
        assert b.flows == set() and inbox.flows == set()


class TestAbstractUds:
    def test_flow_identity_deterministic(self, open_fabric, userdb):
        """Abstract-UDS flows get counter-allocated negative ports, not a
        PYTHONHASHSEED-salted hash of the name — flow keys, conntrack
        contents and exported traces must be identical across runs."""
        _, nodes, _ = open_fabric
        alice = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.abstract_bind(alice, "svc")
        first = nodes["c1"].net.abstract_connect(alice, "svc")
        second = nodes["c1"].net.abstract_connect(alice, "svc")
        flows = [c._conn.flow for c in (first, second)]
        assert [f.src_port for f in flows] == [-2, -3]
        assert all(f.dst_port == -1 for f in flows)
        assert flows[0] != flows[1]  # concurrent connects stay distinct

    def test_roundtrip(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        alice = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.abstract_bind(alice, "ipc")
        conn = nodes["c1"].net.abstract_connect(alice, "ipc")
        conn.send(b"hello")
        assert nodes["c1"].net.abstract_accept("ipc").recv() == b"hello"

    def test_closed_name_is_released(self, open_fabric, userdb):
        """Closing an abstract socket frees its name: a connect is refused
        and the name can be bound again."""
        _, nodes, _ = open_fabric
        net = nodes["c1"].net
        alice = proc_on(nodes, "c1", userdb, "alice")
        net.close(net.abstract_bind(alice, "ipc"))
        with pytest.raises(ConnectionRefused):
            net.abstract_connect(alice, "ipc")
        bob = proc_on(nodes, "c1", userdb, "bob")
        fresh = net.abstract_bind(bob, "ipc")
        net.abstract_connect(alice, "ipc").send(b"to bob")
        assert fresh.accept_queue
        assert net.abstract_accept("ipc").recv() == b"to bob"

    def test_owner_exit_releases_the_name(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        net = nodes["c1"].net
        alice = proc_on(nodes, "c1", userdb, "alice")
        net.abstract_bind(alice, "ipc")
        conn = net.abstract_connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "ipc")
        nodes["c1"].procs.reap(alice.pid)
        assert not conn.open
        net.abstract_bind(proc_on(nodes, "c1", userdb, "bob"), "ipc")


class TestListenerClose:
    """Closing a listener resets the connections still in its accept
    queue: both ends close and their flows leave conntrack on both hosts.
    Accepted connections belong to the acceptor and stay up."""

    def test_pending_connection_resets(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["login1", "c1"], ubf=True)
        net = nodes["c1"].net
        listener = net.listen(
            net.bind(proc_on(nodes, "c1", userdb, "alice"), 5000))
        cli = proc_on(nodes, "login1", userdb, "alice")
        accepted = nodes["login1"].net.connect(cli, "c1", 5000)
        server = net.accept(listener)
        pending = nodes["login1"].net.connect(cli, "c1", 5000)
        port = pending._conn.client_sock.port
        net.close(listener)
        assert not pending.open and not listener.accept_queue
        assert pending._conn not in cli.sockets
        assert nodes["login1"].net.lookup(Proto.TCP, port) is None
        for host in ("login1", "c1"):
            assert fabric.host(host).firewall.conntrack.flows() == \
                [accepted._conn.flow]
        accepted.send(b"still up")
        assert server.recv() == b"still up"

    def test_abstract_listener_resets_pending(self, open_fabric, userdb):
        fabric, nodes, _ = open_fabric
        net = nodes["c1"].net
        sock = net.abstract_bind(proc_on(nodes, "c1", userdb, "alice"), "ipc")
        pending = net.abstract_connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "ipc")
        net.close(sock)
        assert not pending.open
        assert fabric.host("c1").firewall.conntrack.flows() == []


class TestSocketAPI:
    def test_endpoint_via_syscalls(self, open_fabric, userdb):
        from repro.kernel import SyscallInterface
        _, nodes, _ = open_fabric
        srv_proc = proc_on(nodes, "c2", userdb, "alice")
        srv_sys = SyscallInterface(nodes["c2"], srv_proc)
        listener = srv_sys.socket().listen(5000)
        cli_proc = proc_on(nodes, "c1", userdb, "alice")
        cli_sys = SyscallInterface(nodes["c1"], cli_proc)
        conn = cli_sys.socket().connect("c2", 5000)
        conn.send(b"via syscalls")
        assert srv_sys.socket().accept(listener).recv() == b"via syscalls"


class TestProcessExit:
    """A process's exit closes what it holds: its sockets and every
    connection it is either end of, untracked on both hosts."""

    def _tracked(self, fabric):
        return {h: fabric.host(h).firewall.conntrack.flows()
                for h in ("c1", "c2")}

    def test_exit_releases_bound_ports(self, open_fabric, userdb):
        _, nodes, _ = open_fabric
        net = nodes["c1"].net
        alice = proc_on(nodes, "c1", userdb, "alice")
        net.listen(net.bind(alice, 5000))
        net.bind(alice, 6000, Proto.UDP)
        nodes["c1"].procs.reap(alice.pid)
        assert net.lookup(Proto.TCP, 5000) is None
        assert net.lookup(Proto.UDP, 6000) is None
        assert alice.sockets is None
        net.bind(proc_on(nodes, "c1", userdb, "bob"), 5000)

    def test_dead_process_udp_flows_leave_both_hosts(self, open_fabric,
                                                     userdb):
        fabric, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        inbox = nodes["c2"].net.bind(srv, 6000, Proto.UDP)
        cli = proc_on(nodes, "c1", userdb, "alice")
        out = nodes["c1"].net.bind_ephemeral(cli, Proto.UDP)
        nodes["c1"].net.sendto(cli, "c2", 6000, b"q", src_sock=out)
        assert all(self._tracked(fabric).values())
        nodes["c1"].procs.reap(cli.pid)
        assert out.closed and inbox.flows == set()
        assert self._tracked(fabric) == {"c1": [], "c2": []}

    @pytest.mark.parametrize("who", ["server", "client"])
    def test_either_ends_exit_closes_the_connection(self, open_fabric,
                                                    userdb, who):
        fabric, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        listener = nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))
        cli = proc_on(nodes, "c1", userdb, "alice")
        client = nodes["c1"].net.connect(cli, "c2", 5000)
        server = nodes["c2"].net.accept(listener)
        port = client._conn.client_sock.port
        host, dead = ("c2", srv) if who == "server" else ("c1", cli)
        nodes[host].procs.reap(dead.pid)
        for end in (client, server):
            assert not end.open
            with pytest.raises(NotConnected):
                end.send(b"x")
        assert self._tracked(fabric) == {"c1": [], "c2": []}
        assert nodes["c1"].net.lookup(Proto.TCP, port) is None
        assert cli.sockets in (None, {})

    def test_pending_connection_closes_with_its_listener_owner(
            self, open_fabric, userdb):
        """A connection still in the accept queue is the listener owner's
        too."""
        fabric, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))
        client = nodes["c1"].net.connect(
            proc_on(nodes, "c1", userdb, "alice"), "c2", 5000)
        nodes["c2"].procs.reap(srv.pid)
        assert not client.open
        assert self._tracked(fabric) == {"c1": [], "c2": []}

    def test_closed_handles_are_not_kept(self, open_fabric, userdb):
        """A process keeps no entry for what it already closed."""
        _, nodes, _ = open_fabric
        srv = proc_on(nodes, "c2", userdb, "alice")
        listener = nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))
        cli = proc_on(nodes, "c1", userdb, "alice")
        for _ in range(3):
            nodes["c1"].net.connect(cli, "c2", 5000).close()
        assert cli.sockets == {}
        assert list(srv.sockets) == [listener]

    def test_next_tenant_binds_a_finished_jobs_port(self):
        """The epilog's kill releases the job's ports: the next tenant of
        the node can bind them."""
        cluster = Cluster.build(LLSC, n_compute=1, users=("alice", "bob"))
        first = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(first)
        net = shell.node.net
        sock = net.listen(net.bind(shell.process, 5000))
        assert net.lookup(Proto.TCP, 5000) is sock
        second = cluster.submit("bob", duration=100.0)
        cluster.run(until=150.0)
        assert first.state.finished and second.allocations
        assert net.lookup(Proto.TCP, 5000) is None
        bob = cluster.job_session(second)
        assert bob.node is shell.node
        net.listen(net.bind(bob.process, 5000))
