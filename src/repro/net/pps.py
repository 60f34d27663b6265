"""A traditional port/protocol/service (PPS) firewall — the comparison
baseline of Section IV-D.

"Rather than a traditional firewall based on the source and destination,
along with defined ports, protocols, and services (PPS), we have developed
and deployed a user-based firewall ... A traditional PPS firewall would
have no way to make an intelligent decision about a traffic flow consisting
of a novel application still in it's 'version 0' phase of development, but
this is no impediment to making user-based decisions."

:class:`PPSPolicy` is that traditional firewall: a static allowlist of
approved (proto, port) services, maintained by administrators through
change requests.  Experiment E17 quantifies the paper's argument: for a
population of novel user applications on arbitrary ports, the PPS policy
must either deny legitimate same-user traffic (the port is not approved)
or, once an admin approves the port, admit *every* user to it (ports carry
no principal).  The UBF suffers neither failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.firewall import Packet, Proto, Verdict


@dataclass(frozen=True)
class ServiceEntry:
    """One approved service in the PPS ruleset."""

    proto: Proto
    port: int
    description: str = ""


@dataclass
class PPSPolicy:
    """Static service allowlist + default verdict.

    ``approve``/``revoke`` model the administrative change process; the
    policy itself never sees *who* is talking — only the five-tuple's
    protocol and destination port, exactly like a conventional perimeter
    firewall.
    """

    services: set[ServiceEntry] = field(default_factory=set)
    default: Verdict = Verdict.DROP
    change_requests: int = 0

    def approve(self, proto: Proto, port: int, description: str = "") -> None:
        """Admin action: open a service port (one change ticket)."""
        self.services.add(ServiceEntry(proto, port, description))
        self.change_requests += 1

    def revoke(self, proto: Proto, port: int) -> None:
        self.services = {s for s in self.services
                         if (s.proto, s.port) != (proto, port)}
        self.change_requests += 1

    def is_approved(self, proto: Proto, port: int) -> bool:
        return any((s.proto, s.port) == (proto, port) for s in self.services)

    def handler(self, pkt: Packet) -> Verdict:
        """nfqueue-compatible decision callback (drop-in where the UBF
        daemon would sit, for apples-to-apples experiments)."""
        if self.is_approved(pkt.flow.proto, pkt.flow.dst_port):
            return Verdict.ACCEPT
        return self.default


@dataclass(frozen=True)
class FirewallScore:
    """Outcome counts for a firewall policy over a deployment trial."""

    legit_allowed: int = 0   # same-user connection admitted (good)
    legit_denied: int = 0    # same-user connection blocked (false deny)
    attack_allowed: int = 0  # cross-user connection admitted (false allow)
    attack_denied: int = 0   # cross-user connection blocked (good)
    admin_tickets: int = 0   # change requests filed to make things work
