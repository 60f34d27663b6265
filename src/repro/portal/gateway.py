"""The HPC web portal / gateway (paper Section IV-E).

"LLSC systems enable application jobs that have web interfaces by forwarding
the web connections from compute nodes to the user's laptop/desktop via an
HPC portal. ... User authentication is required to connect to the HPC Portal
and UBF connection rules are enforced, so that the entire connection path is
authenticated and authorized."

The model keeps the two security-relevant properties:

1. **Authentication** — connecting to the portal requires a session token
   previously issued to a real account (``require_auth`` can be disabled to
   model an ad-hoc SSH-port-forward setup for the baseline).
2. **UBF on the forwarded hop** — the portal forwards by opening a TCP
   connection *from a forwarding process owned by the authenticated user* on
   the portal host to the app's compute node, so the destination host's UBF
   applies its same-user/egid rule to the real principal, not to a shared
   portal service account.

Apps can run on *any* compute node (the forwarding hop is ordinary fabric
traffic), reproducing the "not restricted to a small partition" property.
"""

from __future__ import annotations

import itertools
import secrets
from dataclasses import dataclass, field
from typing import Callable

from repro.kernel.errors import AccessDenied, NoSuchEntity, TimedOut
from repro.kernel.node import LinuxNode
from repro.kernel.users import User, UserDB
from repro.net.stack import Fabric
from repro.observer import Observers, as_observers
from repro.portal.webapp import WebApp


@dataclass(frozen=True)
class PortalSession:
    """An authenticated portal session and its bearer token."""

    token: str
    user: User
    issued_at: float = 0.0


@dataclass
class Portal:
    """The gateway service on a dedicated portal host."""

    fabric: Fabric
    userdb: UserDB
    node: LinuxNode  # portal host (must have a HostStack attached)
    require_auth: bool = True
    #: session lifetime in (virtual) seconds; None = no expiry
    session_ttl: float | None = None
    #: time source; the cluster wires this to the simulation clock
    clock: "Callable[[], float]" = staticmethod(lambda: 0.0)
    #: optional planes (repro.observer) told of every request
    observers: Observers = field(default_factory=Observers, repr=False)
    _routes: dict[int, WebApp] = field(default_factory=dict)
    _sessions: dict[str, PortalSession] = field(default_factory=dict)
    _rng_counter: itertools.count = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self):
        self.observers = as_observers(self.observers)

    # -- authentication --------------------------------------------------------

    def login(self, username: str) -> PortalSession:
        """Authenticate (credential check is out of scope — the cluster's
        normal login already vouches) and issue a session token."""
        user = self.userdb.user(username)
        token = f"tok-{next(self._rng_counter)}-{secrets.token_hex(8)}"
        session = PortalSession(token=token, user=user,
                                issued_at=self.clock())
        self._sessions[token] = session
        return session

    def _session_valid(self, token: str) -> PortalSession | None:
        session = self._sessions.get(token)
        if session is None:
            return None
        if (self.session_ttl is not None
                and self.clock() - session.issued_at > self.session_ttl):
            del self._sessions[token]
            return None
        return session

    def logout(self, token: str) -> None:
        self._sessions.pop(token, None)

    # -- routing ------------------------------------------------------------------

    def register(self, app: WebApp) -> int:
        """A job advertises its web interface to the portal."""
        self._routes[app.app_id] = app
        return app.app_id

    def routes_for(self, session: PortalSession) -> list[WebApp]:
        """Apps the portal lists for this user: their own only."""
        apps = [a for a in self._routes.values()
                if a.owner_uid == session.user.uid]
        for f in self.observers.portal_routes:
            f(self, session, apps)
        return apps

    # -- forwarding ------------------------------------------------------------------

    def _count(self, result: str) -> None:
        self.fabric.metrics.counter("portal_requests_total",
                                    result=result).inc()

    def connect(self, token: str | None, app_id: int) -> bytes:
        """Fetch the app's page through the portal.

        Raises :class:`AccessDenied` on a missing/invalid token (when auth
        is required) and :class:`~repro.kernel.errors.TimedOut` when the
        UBF drops the forwarded hop (cross-user access attempt).
        """
        for f in self.observers.portal_request:
            f(self, app_id)
        user = exc = None
        try:
            user = self._authenticate(token, app_id)
            return self._forward(user, app_id)
        except BaseException as raised:
            exc = raised
            raise
        finally:
            for f in self.observers.portal_response:
                f(self, app_id, user, exc)

    def _authenticate(self, token: str | None, app_id: int) -> User:
        if not self.require_auth:
            # ad-hoc forwarding path: unauthenticated, runs as a generic
            # service identity (root daemon) — the insecure baseline
            return self.userdb.user("root")
        session = self._session_valid(token) if token else None
        if session is None:
            self._count("deny-auth")
            detail = ("authentication required (missing, invalid, or "
                      "expired token)")
            for f in self.observers.portal_denied:
                f(self, -1, app_id, detail)
            raise AccessDenied(f"portal: {detail}")
        return session.user

    def _forward(self, user: User, app_id: int) -> bytes:
        try:
            app = self._routes[app_id]
        except KeyError:
            self._count("no-route")
            raise NoSuchEntity(f"portal route {app_id}") from None
        creds = self.userdb.credentials_for(user)
        fwd_proc = self.node.procs.spawn(creds, ["portal-fwd",
                                                 f"app={app_id}"])
        try:
            conn = self.node.net.connect(fwd_proc, app.node.name, app.port)
            conn.send(b"GET / HTTP/1.1")
            app.handle_pending()
            page = conn.recv()
            conn.close()
            self._count("allow")
            for f in self.observers.portal_forwarded:
                f(self, user, creds, app)
            return page
        except TimedOut:
            # the forwarded hop was dropped by the destination's UBF; the
            # daemon there records the NET_DENY with the real principal, so
            # here we only count (no duplicate security event)
            self._count("deny-ubf")
            raise
        finally:
            self.node.procs.reap(fwd_proc.pid)
