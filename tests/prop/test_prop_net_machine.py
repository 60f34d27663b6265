"""Model-based testing: network stack + UBF invariants.

Random bind/listen/connect/send/sendto/close/exit sequences by two users
across two UBF-protected hosts, with a mirror model of who holds which
socket and connection.  Invariants:

* the UBF never admits a cross-user connection or datagram (listener egid
  = private);
* same-user connections always succeed when a listener exists;
* a port is never owned by two live sockets;
* closing a listener closes the connections still in its accept queue;
* the open sockets on each host are exactly the ones the model holds:
  listeners, explicit UDP sockets and the client sockets of open
  connections -- no implicit-send or failed-connect socket survives;
* every conntrack entry is the flow of an open connection, or a UDP flow
  whose two sockets are open.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)
from hypothesis import strategies as st

from repro.kernel import LinuxNode, UserDB
from repro.kernel.errors import (
    ConnectionRefused,
    KernelError,
    NoSuchEntity,
    NotConnected,
    TimedOut,
)
from repro.net import Fabric, Firewall, HostStack, Proto, UBFDaemon, ubf_ruleset

PORTS = [5000, 5001, 5002]
HOSTS = ["h1", "h2"]
USERS = ["u1", "u2"]

ports = st.sampled_from(PORTS)
hosts = st.sampled_from(HOSTS)
users = st.sampled_from(USERS)
picks = st.integers(0, 100)


class NetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.userdb = UserDB()
        self.uids = {}
        for name in USERS:
            self.uids[name] = self.userdb.add_user(name).uid
        self.fabric = Fabric()
        self.nodes = {}
        for h in HOSTS:
            node = LinuxNode(h, self.userdb)
            stack = HostStack(node, self.fabric,
                              firewall=Firewall(rules=ubf_ruleset()))
            UBFDaemon(stack, self.fabric, self.userdb).install()
            self.nodes[h] = node
        # model: (host, port) -> (user, socket) for live listeners and
        # explicit UDP sockets
        self.listeners: dict[tuple[str, int], tuple[str, object]] = {}
        self.udp: dict[tuple[str, int], tuple[str, object]] = {}
        self.open_conns: list[tuple[str, object]] = []  # (client_user, end)
        self.procs: list[tuple[str, object]] = []  # (host, process)

    def _proc(self, host, user):
        creds = self.userdb.credentials_for(self.userdb.user(user))
        proc = self.nodes[host].procs.spawn(creds, [f"{user}-app"])
        self.procs.append((host, proc))
        return proc

    @rule(host=hosts, port=ports, user=users)
    def listen(self, host, port, user):
        net = self.nodes[host].net
        try:
            sock = net.listen(net.bind(self._proc(host, user), port))
        except KernelError:
            assert (host, port) in self.listeners  # only EADDRINUSE
            return
        assert (host, port) not in self.listeners
        self.listeners[(host, port)] = (user, sock)

    @rule(host=hosts, port=ports)
    def close_listener(self, host, port):
        entry = self.listeners.pop((host, port), None)
        if entry is not None:
            sock = entry[1]
            self.nodes[host].net.close(sock)
            # connect never accepts: every connection to the listener was
            # still queued, and is reset with it
            gone = [item for item in self.open_conns
                    if item[1]._conn.server_sock is sock]
            for item in gone:
                assert not item[1].open
                self.open_conns.remove(item)

    @rule(host=hosts, port=ports, user=users)
    def bind_udp(self, host, port, user):
        net = self.nodes[host].net
        try:
            sock = net.bind(self._proc(host, user), port, Proto.UDP)
        except KernelError:
            assert (host, port) in self.udp
            return
        self.udp[(host, port)] = (user, sock)

    @rule(host=hosts, port=ports)
    def close_udp(self, host, port):
        entry = self.udp.pop((host, port), None)
        if entry is not None:
            self.nodes[host].net.close(entry[1])

    @initialize(host=hosts, port=ports, user=users, src=hosts)
    def pending_connection(self, host, port, user, src):
        """Every run starts with a listener holding one connection it has
        not accepted."""
        self.listen(host, port, user)
        self.connect(src, host, port, user)

    @rule(src=hosts, dst=hosts, port=ports, user=users)
    def connect(self, src, dst, port, user):
        net = self.nodes[src].net
        proc = self._proc(src, user)
        entry = self.listeners.get((dst, port))
        try:
            end = net.connect(proc, dst, port)
        except TimedOut:
            # UBF drop: must have been cross-user
            assert entry is not None and entry[0] != user
            return
        except KernelError:
            # refused: nothing listening
            assert entry is None
            return
        assert entry is not None and entry[0] == user
        self.open_conns.append((user, end))

    @rule(src=hosts, user=users)
    def connect_unknown_host(self, src, user):
        try:
            self.nodes[src].net.connect(self._proc(src, user), "nohost", 5000)
        except NoSuchEntity:
            return
        raise AssertionError("connect to an unknown host succeeded")

    def _sendto(self, src, user, dst, port, src_sock=None):
        net = self.nodes[src].net
        proc = self._proc(src, user) if src_sock is None else src_sock.owner
        entry = self.udp.get((dst, port))
        try:
            net.sendto(proc, dst, port, b"dgram", src_sock=src_sock)
        except TimedOut:
            assert entry is not None and entry[0] != user
            return
        except ConnectionRefused:
            assert entry is None
            return
        assert entry is not None and entry[0] == user

    @rule(src=hosts, dst=hosts, port=ports, user=users)
    def sendto_implicit(self, src, dst, port, user):
        self._sendto(src, user, dst, port)

    @rule(idx=picks, dst=hosts, port=ports)
    def sendto_explicit(self, idx, dst, port):
        if not self.udp:
            return
        (src, _), (user, sock) = sorted(self.udp.items(),
                                        key=lambda kv: kv[0])[
            idx % len(self.udp)]
        self._sendto(src, user, dst, port, src_sock=sock)

    @rule(idx=picks)
    def send_on_open(self, idx):
        if not self.open_conns:
            return
        user, end = self.open_conns[idx % len(self.open_conns)]
        assert end.open
        end.send(b"data")  # established flows never fail

    @rule(idx=picks, server_side=st.booleans())
    def close_conn(self, idx, server_side):
        if not self.open_conns:
            return
        _, end = self.open_conns.pop(idx % len(self.open_conns))
        conn = end._conn
        (conn.server if server_side else conn.client).close()
        assert not end.open
        try:
            end.send(b"late")
        except NotConnected:
            return
        raise AssertionError("send on a closed connection succeeded")

    @rule(idx=picks)
    def process_exit(self, idx):
        if not self.procs:
            return
        host, proc = self.procs.pop(idx % len(self.procs))
        self.nodes[host].procs.reap(proc.pid)
        for table in (self.listeners, self.udp):
            for key in [k for k, (_, s) in table.items() if s.owner is proc]:
                del table[key]
        gone = [(u, e) for u, e in self.open_conns
                if proc in (e._conn.client_proc, e._conn.server_sock.owner)]
        for item in gone:
            assert not item[1].open
            self.open_conns.remove(item)

    @invariant()
    def listener_table_consistent(self):
        for (host, port), (user, sock) in self.listeners.items():
            live = self.nodes[host].net.lookup(Proto.TCP, port)
            assert live is sock
            assert live.owner_uid == self.uids[user]

    @invariant()
    def no_cross_user_flow_ever_established(self):
        for user, end in self.open_conns:
            assert end.open
            assert end.peer_uid == self.uids[user]

    @invariant()
    def open_sockets_are_the_held_ones(self):
        for host in HOSTS:
            held = {id(s) for (h, _), (_, s) in self.listeners.items()
                    if h == host}
            held |= {id(s) for (h, _), (_, s) in self.udp.items()
                     if h == host}
            held |= {id(e._conn.client_sock) for _, e in self.open_conns
                     if e._conn.client_sock.host == host}
            stack = self.nodes[host].net
            assert not [s for s in stack._sockets.values() if s.closed]
            assert {id(s) for s in stack._sockets.values()} == held

    @invariant()
    def every_tracked_flow_is_live(self):
        conn_flows = {e._conn.flow for _, e in self.open_conns}
        for host in HOSTS:
            for flow in self.nodes[host].net.firewall.conntrack.flows():
                if flow.proto is Proto.TCP:
                    assert (flow in conn_flows
                            or flow.reversed() in conn_flows)
                    continue
                for end_host, port in ((flow.src_host, flow.src_port),
                                       (flow.dst_host, flow.dst_port)):
                    sock = self.nodes[end_host].net.lookup(Proto.UDP, port)
                    assert sock is not None and flow in sock.flows


TestNetMachine = NetMachine.TestCase
TestNetMachine.settings = settings(max_examples=50,
                                   stateful_step_count=30,
                                   deadline=None)
