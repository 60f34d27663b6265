"""Unit + integration tests: web portal auth and UBF-governed forwarding."""

import pytest

from repro.kernel.errors import AccessDenied, NoSuchEntity, TimedOut
from repro.portal import Portal, launch_webapp

from tests.net.conftest import build_fabric, proc_on


def make_portal(userdb, *, ubf=True, require_auth=True):
    fabric, nodes, daemons = build_fabric(
        userdb, ["portal", "c1", "c2"], ubf=ubf)
    portal = Portal(fabric=fabric, userdb=userdb, node=nodes["portal"],
                    require_auth=require_auth)
    return portal, nodes


def launch_as(nodes, userdb, host, user, port, title):
    proc = proc_on(nodes, host, userdb, user, argv=("jupyter",))
    return launch_webapp(nodes[host], proc, port, title)


class TestAuth:
    def test_login_issues_unique_tokens(self, userdb):
        portal, _ = make_portal(userdb)
        t1 = portal.login("alice")
        t2 = portal.login("alice")
        assert t1.token != t2.token

    def test_unknown_user_cannot_login(self, userdb):
        portal, _ = make_portal(userdb)
        with pytest.raises(NoSuchEntity):
            portal.login("mallory")

    def test_no_token_rejected(self, userdb):
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        with pytest.raises(AccessDenied):
            portal.connect(None, app.app_id)

    def test_bogus_token_rejected(self, userdb):
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        with pytest.raises(AccessDenied):
            portal.connect("tok-fake", app.app_id)

    def test_logout_invalidates(self, userdb):
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        portal.logout(session.token)
        with pytest.raises(AccessDenied):
            portal.connect(session.token, app.app_id)


class TestForwarding:
    def test_owner_reaches_own_app(self, userdb):
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        page = portal.connect(session.token, app.app_id)
        assert b"jupyter" in page

    def test_forwards_leave_the_portal_table_at_its_live_size(self, userdb):
        """Each forward spawns a portal-fwd process and reaps it; a reaped
        process must leave the table, not pile up as history."""
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        table = nodes["portal"].procs
        live = len(table.pids())
        for _ in range(1000):
            portal.connect(session.token, app.app_id)
        assert len(table._procs) == len(table.pids()) == live

    def test_forwards_leave_no_socket_in_the_portal_table(self, userdb):
        """Each forward connects from an ephemeral port and closes it; a
        closed socket (and its reaped owner) must leave the host's socket
        table."""
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        for _ in range(1000):
            portal.connect(session.token, app.app_id)
        assert nodes["portal"].net._sockets == {}

    def test_app_on_any_node_reachable(self, userdb):
        """Apps are not restricted to a dedicated partition."""
        portal, nodes = make_portal(userdb)
        for host in ("c1", "c2"):
            app = launch_as(nodes, userdb, host, "alice", 8888,
                            f"tb-{host}")
            portal.register(app)
            session = portal.login("alice")
            assert f"tb-{host}".encode() in portal.connect(session.token,
                                                           app.app_id)

    def test_stranger_blocked_by_ubf(self, userdb):
        """bob authenticates fine but the forwarded hop runs as bob, so the
        UBF on alice's node drops it: authorization on the whole path."""
        portal, nodes = make_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("bob")
        with pytest.raises(TimedOut):
            portal.connect(session.token, app.app_id)

    def test_unknown_route(self, userdb):
        portal, _ = make_portal(userdb)
        session = portal.login("alice")
        with pytest.raises(NoSuchEntity):
            portal.connect(session.token, 999)

    def test_routes_listing_is_per_user(self, userdb):
        portal, nodes = make_portal(userdb)
        a_app = launch_as(nodes, userdb, "c1", "alice", 8888, "alice-nb")
        b_app = launch_as(nodes, userdb, "c2", "bob", 8888, "bob-nb")
        portal.register(a_app)
        portal.register(b_app)
        session = portal.login("alice")
        titles = {a.title for a in portal.routes_for(session)}
        assert titles == {"alice-nb"}


class TestSessionExpiry:
    def _expiring_portal(self, userdb, ttl=100.0):
        portal, nodes = make_portal(userdb)
        now = {"t": 0.0}
        portal.session_ttl = ttl
        portal.clock = lambda: now["t"]
        return portal, nodes, now

    def test_fresh_token_works(self, userdb):
        portal, nodes, now = self._expiring_portal(userdb)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        assert b"jupyter" in portal.connect(session.token, app.app_id)

    def test_expired_token_rejected(self, userdb):
        portal, nodes, now = self._expiring_portal(userdb, ttl=100.0)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        now["t"] = 101.0
        with pytest.raises(AccessDenied):
            portal.connect(session.token, app.app_id)

    def test_relogin_after_expiry(self, userdb):
        portal, nodes, now = self._expiring_portal(userdb, ttl=100.0)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        portal.login("alice")
        now["t"] = 500.0
        fresh = portal.login("alice")
        assert b"jupyter" in portal.connect(fresh.token, app.app_id)

    def test_no_ttl_never_expires(self, userdb):
        portal, nodes, now = self._expiring_portal(userdb, ttl=None)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        session = portal.login("alice")
        now["t"] = 1e12
        assert b"jupyter" in portal.connect(session.token, app.app_id)


class TestInsecureBaseline:
    def test_adhoc_forwarding_leaks_without_ubf(self, userdb):
        """No auth + no UBF (ad-hoc ssh port forward world): anyone reads
        anyone's notebook."""
        portal, nodes = make_portal(userdb, ubf=False, require_auth=False)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        page = portal.connect(None, app.app_id)
        assert b"jupyter" in page  # leak: unauthenticated access succeeded

    def test_ubf_alone_blocks_generic_service_identity(self, userdb):
        """With the UBF still on, the unauthenticated portal forwards as a
        service identity... which is root, so reachable: defense requires
        BOTH auth and per-user forwarding — documented residual of the
        no-auth configuration."""
        portal, nodes = make_portal(userdb, ubf=True, require_auth=False)
        app = launch_as(nodes, userdb, "c1", "alice", 8888, "jupyter")
        portal.register(app)
        page = portal.connect(None, app.app_id)
        assert b"jupyter" in page
