"""Simulated IP fabric: per-host stacks, TCP connections, UDP datagrams.

The fabric connects the cluster's :class:`~repro.kernel.node.LinuxNode`
hosts.  Every inbound packet traverses the destination host's
:class:`~repro.net.firewall.Firewall` INPUT chain, so the UBF's
nfqueue/conntrack data path is exercised exactly as deployed: connection
*setup* pays the userspace decision, established traffic rides the conntrack
fast path.

Sockets are owned by kernel processes; the owning process's *current*
credentials are what ident reports and what the UBF's group rule reads
(paper: "the primary group of the listening process can be controlled via
standard Linux tools such as newgrp or sg").
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.kernel.errors import (
    AddressInUse,
    ConnectionRefused,
    InvalidArgument,
    NoSuchEntity,
    NotConnected,
    PermissionError_,
    TimedOut,
)
from repro.faults.injector import FaultInjector
from repro.kernel.node import LinuxNode
from repro.kernel.process import Process
from repro.net.firewall import (
    ConnState,
    Firewall,
    FiveTuple,
    Packet,
    Proto,
    Verdict,
)
from repro.sim.metrics import MetricSet

EPHEMERAL_START = 49152


@dataclass
class BoundSocket:
    """A socket bound to (host, proto, port) by a process."""

    host: str
    proto: Proto
    port: int
    owner: Process
    listening: bool = False
    accept_queue: deque = field(default_factory=deque)
    datagrams: deque = field(default_factory=deque)  # UDP inbox
    closed: bool = False
    #: UDP flows committed through this socket, at either end; closing it
    #: evicts them on both hosts, as Connection.close does for TCP
    flows: set = field(default_factory=set)

    @property
    def owner_uid(self) -> int:
        return self.owner.creds.uid

    @property
    def owner_egid(self) -> int:
        return self.owner.creds.egid


class ConnectionEnd:
    """One side's handle on an established TCP connection."""

    def __init__(self, conn: "Connection", side: str):
        self._conn = conn
        self.side = side  # "client" | "server"

    def send(self, data: bytes) -> int:
        return self._conn.send(self.side, data)

    def recv(self) -> bytes:
        return self._conn.recv(self.side)

    def close(self) -> None:
        self._conn.close()

    @property
    def peer_uid(self) -> int:
        return (self._conn.server_sock.owner_uid if self.side == "client"
                else self._conn.client_uid)

    @property
    def open(self) -> bool:
        return not self._conn.closed


class Connection:
    """An established TCP connection (both directions)."""

    def __init__(self, fabric: "Fabric", flow: FiveTuple,
                 client_proc: Process, server_sock: BoundSocket,
                 client_sock: BoundSocket | None = None):
        self.fabric = fabric
        self.flow = flow  # client -> server orientation
        self.client_proc = client_proc
        self.server_sock = server_sock
        self.client_sock = client_sock
        self._to_server: deque[bytes] = deque()
        self._to_client: deque[bytes] = deque()
        self.closed = False
        self.client = ConnectionEnd(self, "client")
        self.server = ConnectionEnd(self, "server")

    @property
    def client_uid(self) -> int:
        return self.client_proc.creds.uid

    def send(self, side: str, data: bytes) -> int:
        """Send data; the packet traverses the *receiving* host's firewall
        (conntrack fast path after setup)."""
        if self.closed:
            raise NotConnected("connection closed")
        if side == "client":
            flow, inbox = self.flow, self._to_server
            dst = self.flow.dst_host
            sender_uid = self.client_uid
        else:
            flow, inbox = self.flow.reversed(), self._to_client
            dst = self.flow.src_host
            sender_uid = self.server_sock.owner_uid
        self.fabric.check_transit(flow.src_host, dst)
        pkt = Packet(flow, ConnState.NEW, payload_len=len(data),
                     src_uid=sender_uid)
        verdict = self.fabric.host(dst).firewall.evaluate(pkt)
        self.fabric.metrics.counter("packets_sent").inc()
        if verdict is not Verdict.ACCEPT:
            self.fabric.metrics.counter("packets_dropped").inc()
            raise TimedOut(f"packet dropped by {dst} firewall")
        inbox.append(bytes(data))
        return len(data)

    def recv(self, side: str) -> bytes:
        inbox = self._to_client if side == "client" else self._to_server
        if not inbox:
            if self.closed:
                raise NotConnected("connection closed")
            return b""
        return inbox.popleft()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.client_sock is not None:
                self.client_sock.closed = True  # release the ephemeral port
            self.fabric.untrack(self.flow, reason="close")


@dataclass(frozen=True)
class Datagram:
    """One UDP datagram in flight."""

    src_host: str
    src_port: int
    data: bytes


class HostStack:
    """The network stack of one node; attaches itself as ``node.net``."""

    def __init__(self, node: LinuxNode, fabric: "Fabric",
                 firewall: Firewall | None = None):
        self.node = node
        self.fabric = fabric
        self.firewall = firewall or Firewall(metrics=fabric.metrics)
        self.firewall.metrics = fabric.metrics
        self.firewall.conntrack.metrics = fabric.metrics
        self.firewall.conntrack.host = node.name
        self._sockets: dict[tuple[Proto, int], BoundSocket] = {}
        self._abstract: dict[str, BoundSocket] = {}
        self._ephemeral = itertools.count(EPHEMERAL_START)
        self._abstract_flow_ids = itertools.count(2)  # -1 is the UDS "port"
        node.net = self
        fabric.attach(self)

    @property
    def hostname(self) -> str:
        return self.node.name

    # -- socket table --------------------------------------------------------

    def bind(self, process: Process, port: int, proto: Proto = Proto.TCP) -> BoundSocket:
        if port < 1 or port > 65535:
            raise InvalidArgument(f"bad port {port}")
        if port < 1024 and not process.creds.is_root:
            raise PermissionError_(f"binding privileged port {port} requires root")
        key = (proto, port)
        if key in self._sockets and not self._sockets[key].closed:
            raise AddressInUse(f"{self.hostname}:{port}/{proto.value}")
        sock = BoundSocket(self.hostname, proto, port, process)
        self._sockets[key] = sock
        return sock

    def bind_ephemeral(self, process: Process, proto: Proto) -> BoundSocket:
        for _ in range(65536 - EPHEMERAL_START):
            port = next(self._ephemeral)
            if port > 65535:  # wrap and recycle released ports
                self._ephemeral = itertools.count(EPHEMERAL_START)
                port = next(self._ephemeral)
            existing = self._sockets.get((proto, port))
            if existing is None or existing.closed:
                return self.bind(process, port, proto)
        raise AddressInUse("ephemeral port range exhausted")

    def lookup(self, proto: Proto, port: int) -> BoundSocket | None:
        sock = self._sockets.get((proto, port))
        return None if sock is None or sock.closed else sock

    def socket_owner(self, proto: Proto, port: int) -> Process | None:
        """What the local identd consults: who owns this port."""
        sock = self.lookup(proto, port)
        return sock.owner if sock else None

    def close(self, sock: BoundSocket) -> None:
        """Release *sock*.  Its datagram flows go with it, on both hosts:
        left tracked, a flow would let its peer reach whoever binds this
        port next via the fast path, with no UBF decision."""
        sock.closed = True
        for flow in sock.flows:
            self.fabric.untrack(flow, reason="close")
        sock.flows.clear()

    # -- TCP -------------------------------------------------------------------

    def connect(self, process: Process, dst_host: str, dst_port: int) -> ConnectionEnd:
        """Active open: SYN through the destination firewall.

        A DROP surfaces as :class:`TimedOut` (silent drop), no listener as
        :class:`ConnectionRefused` — distinguishable failures, as on real
        systems, but neither leaks the listener's identity.
        """
        src_sock = self.bind_ephemeral(process, Proto.TCP)
        dst = self.fabric.host(dst_host)
        flow = FiveTuple(Proto.TCP, self.hostname, src_sock.port,
                         dst_host, dst_port)
        pkt = Packet(flow, ConnState.NEW, src_uid=process.creds.uid)
        self.fabric.metrics.counter("connect_attempts").inc()
        try:
            self.fabric.check_transit(self.hostname, dst_host)
        except TimedOut:
            self.close(src_sock)
            self.fabric.metrics.counter("connects_denied").inc()
            raise
        verdict = dst.firewall.evaluate(pkt)
        if verdict is not Verdict.ACCEPT:
            self.close(src_sock)
            self.fabric.metrics.counter("connects_denied").inc()
            raise TimedOut(f"connect {dst_host}:{dst_port} dropped")
        listener = dst.lookup(Proto.TCP, dst_port)
        if listener is None or not listener.listening:
            dst.firewall.conntrack.evict(flow, reason="refused")
            self.close(src_sock)
            raise ConnectionRefused(f"{dst_host}:{dst_port}")
        # the initiator tracks its own connection, as Linux conntrack does
        # for an outgoing SYN: replies arrive ESTABLISHED, not NEW
        self.firewall.conntrack.commit(flow)
        conn = Connection(self.fabric, flow, process, listener,
                          client_sock=src_sock)
        listener.accept_queue.append(conn)
        self.fabric.metrics.counter("connects_established").inc()
        return conn.client

    def listen(self, sock: BoundSocket) -> BoundSocket:
        if sock.proto is not Proto.TCP:
            raise InvalidArgument("listen on UDP socket")
        sock.listening = True
        return sock

    def accept(self, sock: BoundSocket) -> ConnectionEnd:
        if not sock.listening:
            raise InvalidArgument("socket not listening")
        if not sock.accept_queue:
            raise TimedOut("accept: no pending connection")
        conn: Connection = sock.accept_queue.popleft()
        return conn.server

    # -- UDP -------------------------------------------------------------------

    def sendto(self, process: Process, dst_host: str, dst_port: int,
               data: bytes, *, src_sock: BoundSocket | None = None) -> None:
        """Datagram send; every datagram traverses the destination firewall,
        with conntrack providing the reply/established fast path.  Without
        *src_sock* it leaves from an implicit socket, released however the
        send ends: nobody holds it to receive a reply on."""
        implicit = src_sock is None
        if implicit:
            src_sock = self.bind_ephemeral(process, Proto.UDP)
        elif src_sock.closed:
            # its port may be someone else's now: a send would track a
            # flow that delivers the peer's replies to the new owner
            raise NotConnected(f"sendto on closed socket :{src_sock.port}")
        try:
            dst = self.fabric.host(dst_host)
            flow = FiveTuple(Proto.UDP, self.hostname, src_sock.port,
                             dst_host, dst_port)
            pkt = Packet(flow, ConnState.NEW, payload_len=len(data),
                         src_uid=process.creds.uid)
            self.fabric.metrics.counter("packets_sent").inc()
            self.fabric.check_transit(self.hostname, dst_host)
            verdict = dst.firewall.evaluate(pkt)
            if verdict is not Verdict.ACCEPT:
                self.fabric.metrics.counter("packets_dropped").inc()
                raise TimedOut(f"datagram to {dst_host}:{dst_port} dropped")
            receiver = dst.lookup(Proto.UDP, dst_port)
            if receiver is None:
                # Mirror the TCP refusal path: the verdict committed a flow
                # that delivered nothing; left behind, it would let the
                # sender reach whoever binds this port later via the fast
                # path, with no UBF decision.
                dst.firewall.conntrack.evict(flow, reason="refused")
                raise ConnectionRefused(f"{dst_host}:{dst_port}/udp")
            self.firewall.conntrack.commit(flow)  # replies ride conntrack
            src_sock.flows.add(flow)
            receiver.flows.add(flow)
            receiver.datagrams.append(
                Datagram(self.hostname, src_sock.port, data))
        finally:
            if implicit:
                self.close(src_sock)

    def recvfrom(self, sock: BoundSocket) -> Datagram:
        if not sock.datagrams:
            raise TimedOut("recvfrom: empty")
        return sock.datagrams.popleft()

    # -- abstract-namespace UNIX domain sockets ----------------------------------

    def abstract_bind(self, process: Process, name: str) -> BoundSocket:
        """Bind an abstract-namespace UDS (``\\0name``).

        Abstract sockets live in a per-host namespace with *no* filesystem
        permissions — one of the residual cross-user channels Section V
        admits remains even under the full LLSC configuration.  Nothing here
        checks credentials, faithfully."""
        if name in self._abstract:
            raise AddressInUse(f"@{name}")
        sock = BoundSocket(self.hostname, Proto.TCP, -1, process,
                           listening=True)
        self._abstract[name] = sock
        return sock

    def abstract_connect(self, process: Process, name: str) -> ConnectionEnd:
        """Connect to an abstract UDS on this host: no firewall, no DAC."""
        try:
            sock = self._abstract[name]
        except KeyError:
            raise ConnectionRefused(f"@{name}") from None
        # Deterministic flow identity: a per-stack counter in the negative
        # port space (dst is -1, sources are -2, -3, ...).  A salted
        # hash(name) here would make flows, conntrack keys and exported
        # traces differ per PYTHONHASHSEED run.
        flow = FiveTuple(Proto.TCP, self.hostname,
                         -next(self._abstract_flow_ids),
                         self.hostname, -1)
        conn = Connection(self.fabric, flow, process, sock)
        # bypass the firewall entirely: local kernel object, not IP
        self.firewall.conntrack.commit(flow)
        sock.accept_queue.append(conn)
        self.fabric.metrics.counter("abstract_uds_connects").inc()
        return conn.client

    def abstract_accept(self, name: str) -> ConnectionEnd:
        sock = self._abstract.get(name)
        if sock is None or not sock.accept_queue:
            raise TimedOut(f"@{name}: nothing pending")
        conn: Connection = sock.accept_queue.popleft()
        return conn.server

    # -- process-bound endpoint --------------------------------------------------

    def endpoint(self, process: Process) -> "SocketAPI":
        return SocketAPI(self, process)


class SocketAPI:
    """The socket syscalls available to one process (returned by
    :meth:`repro.kernel.syscalls.SyscallInterface.socket`)."""

    def __init__(self, stack: HostStack, process: Process):
        self.stack = stack
        self.process = process

    def bind(self, port: int, proto: Proto = Proto.TCP) -> BoundSocket:
        return self.stack.bind(self.process, port, proto)

    def listen(self, port: int) -> BoundSocket:
        return self.stack.listen(self.stack.bind(self.process, port, Proto.TCP))

    def accept(self, sock: BoundSocket) -> ConnectionEnd:
        return self.stack.accept(sock)

    def connect(self, host: str, port: int) -> ConnectionEnd:
        return self.stack.connect(self.process, host, port)

    def sendto(self, host: str, port: int, data: bytes,
               *, src_sock: BoundSocket | None = None) -> None:
        self.stack.sendto(self.process, host, port, data, src_sock=src_sock)

    def recvfrom(self, sock: BoundSocket) -> Datagram:
        return self.stack.recvfrom(sock)

    def close(self, sock: BoundSocket) -> None:
        self.stack.close(sock)


class Fabric:
    """The cluster interconnect: host registry + shared metrics."""

    def __init__(self, metrics: MetricSet | None = None):
        self.metrics = metrics or MetricSet()
        self.faults = FaultInjector(self.metrics)
        self._hosts: dict[str, HostStack] = {}

    def attach(self, stack: HostStack) -> None:
        self._hosts[stack.hostname] = stack

    def check_transit(self, src_host: str, dst_host: str) -> None:
        """Can a packet make it from *src_host* to *dst_host* right now?

        Raises :class:`TimedOut` when either endpoint is partitioned off the
        fabric or the path draws a loss.  Local delivery (src == dst) never
        transits the fabric and is exempt.
        """
        if src_host == dst_host:
            return
        for endpoint in (src_host, dst_host):
            if self.faults.host_unreachable(endpoint):
                self.metrics.counter("fault_unreachable_drops").inc()
                raise TimedOut(f"host unreachable: {endpoint}")
        if self.faults.drop_packet(dst_host):
            raise TimedOut(f"packet to {dst_host} lost")

    def untrack(self, flow: FiveTuple, reason: str) -> None:
        """Evict *flow* from the conntrack of both hosts it joins."""
        for name in (flow.src_host, flow.dst_host):
            self._hosts[name].firewall.conntrack.evict(flow, reason=reason)

    def host(self, name: str) -> HostStack:
        try:
            return self._hosts[name]
        except KeyError:
            raise NoSuchEntity(f"host {name!r}") from None

    def hosts(self) -> list[HostStack]:
        return list(self._hosts.values())
