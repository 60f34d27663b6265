"""RFC 1413-style ident service.

Section IV-D: "During the establishment of a new connection an ident-like
query is sent from the receiving system to initiating system to get user
information, and the same query run locally."

The responder answers "who owns local port P (proto)?" with the owning
process's uid and *current* effective gid.  A cross-host query is one network
round trip; the counter feeds experiment E8's cost model.  Queries about
unowned ports return None (connection will be denied — fail closed).

Failure modes (exercised by :mod:`repro.faults`): when the target host is
unreachable, its identd is down, or the responder is too slow, the query
raises :class:`IdentUnavailable` instead of answering.  "No answer" is
deliberately a *different* outcome from "answered: nobody owns that port"
(None) — the first is a fault the UBF daemon retries and then degrades on,
the second is a definitive identity result that maps to a DROP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.errors import TimedOut
from repro.net.firewall import Proto
from repro.net.stack import Fabric, HostStack


class IdentUnavailable(TimedOut):
    """ETIMEDOUT: the ident query got no answer (host or identd down/slow).

    Subclasses :class:`~repro.kernel.errors.TimedOut` because that is what
    the querying daemon observes on the wire; kept distinct so the UBF's
    retry/degradation path can tell an infrastructure fault apart from an
    ordinary firewall drop.
    """


@dataclass(frozen=True)
class IdentReply:
    """The identd answer: uid, egid, and full group membership."""

    uid: int
    egid: int
    groups: frozenset[int]


def local_ident(stack: HostStack, proto: Proto,
                port: int) -> IdentReply | None:
    """The identd answer about a port on *stack*'s own host: its owner's
    uid, current egid and groups, or None when nobody owns it."""
    sock = stack.lookup(proto, port)
    if sock is None:
        return None
    creds = sock.owner.creds
    return IdentReply(uid=creds.uid, egid=creds.egid, groups=creds.groups)


def remote_ident_query(fabric: Fabric, target_host: str, proto: Proto,
                       port: int) -> IdentReply | None:
    """The receiving system's daemon querying the initiating system.

    Counts one round trip in the fabric metrics (priced by the E8 cost
    model).  The responder is *normally* trusted — cluster hosts run the
    same root-administered system image, matching the paper's trust model
    — but an ``IDENT_SPOOF`` fault (a compromised host) makes it lie; the
    paper's "and the same query run locally" clause is the querying
    daemon's defence, cross-checking the answer against the kernel-stamped
    uid on the packet.

    Raises :class:`IdentUnavailable` when the fabric's fault injector says
    the target host (or its identd) cannot answer right now; the attempt is
    counted under ``ident_query_failures`` and does **not** count as a
    completed round trip.
    """
    faults = fabric.faults
    if not faults.ident_attempt_ok(target_host):
        fabric.series["ident_query_failures"].value += 1
        raise IdentUnavailable(f"ident query to {target_host} unanswered")
    forged = faults.spoofed_reply(target_host)
    if forged is not None:
        # a compromised responder still costs a round trip; the lie is
        # for the querying daemon's local cross-check to catch
        fabric.series["ident_round_trips"].value += 1
        return forged
    responder = fabric.host(target_host)  # an unknown host costs no trip
    fabric.series["ident_round_trips"].value += 1
    return local_ident(responder, proto, port)
