"""Unit tests: sockets, TCP connections, UDP datagrams (no UBF)."""

import pytest

from repro.kernel.errors import (
    AddressInUse,
    ConnectionRefused,
    InvalidArgument,
    NotConnected,
    PermissionError_,
    TimedOut,
)
from repro.net import Proto

from tests.net.conftest import proc_on


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
