"""Unit + integration tests: container build policy and host passthrough."""

import pytest

from repro.containers import (
    ImageFile,
    SingularityRuntime,
    build_image,
)
from repro.kernel import (
    LinuxNode,
    LLSC_KERNEL,
    NodeRole,
    PAPER_SMASK,
    ProcMountOptions,
)
from repro.kernel.errors import AccessDenied, PermissionError_

from tests.conftest import creds_of


@pytest.fixture
def image(userdb):
    ws = LinuxNode("alice-laptop", userdb, role=NodeRole.WORKSTATION)
    return build_image(ws, userdb.user("alice"), "pytorch-env", [
        ImageFile("/opt", is_dir=True),
        ImageFile("/opt/conda", is_dir=True),
        ImageFile("/opt/conda/bin", is_dir=True),
        ImageFile("/opt/conda/bin/python", data=b"#!ELF python3.11"),
        ImageFile("/etc/os-release", data=b"Ubuntu 22.04", mode=0o644),
    ], labels={"version": "1.0"})


class TestBuildPolicy:
    def test_build_on_workstation_allowed(self, image):
        assert image.name == "pytorch-env"
        assert image.built_by == "alice"

    def test_build_on_compute_node_denied(self, userdb):
        compute = LinuxNode("c1", userdb, role=NodeRole.COMPUTE)
        with pytest.raises(PermissionError_):
            build_image(compute, userdb.user("alice"), "x", [])

    def test_build_on_login_node_denied(self, userdb):
        login = LinuxNode("login1", userdb, role=NodeRole.LOGIN)
        with pytest.raises(PermissionError_):
            build_image(login, userdb.user("bob"), "x", [])

    def test_root_may_build_anywhere(self, userdb):
        compute = LinuxNode("c1", userdb, role=NodeRole.COMPUTE)
        img = build_image(compute, userdb.user("root"), "site-image", [])
        assert img.built_by == "root"

    def test_image_lookup(self, image):
        assert image.lookup("/etc/os-release").data == b"Ubuntu 22.04"
        assert image.lookup("/nope") is None


class TestRuntime:
    def _node(self, userdb):
        return LinuxNode("c1", userdb, handler=LLSC_KERNEL,
                         proc_options=ProcMountOptions(hidepid=2))

    def _run(self, userdb, node, image, username="alice"):
        creds = creds_of(userdb, username, smask=PAPER_SMASK)
        proc = node.procs.spawn(creds, ["apptainer", "exec"])
        return SingularityRuntime(node).run(proc, image)

    def test_image_content_visible(self, userdb, image):
        c = self._run(userdb, self._node(userdb), image)
        sys = c.syscalls()
        assert sys.open_read("/etc/os-release") == b"Ubuntu 22.04"
        assert "python" in sys.listdir("/opt/conda/bin")

    def test_no_privilege_gain(self, userdb, image):
        c = self._run(userdb, self._node(userdb), image)
        assert not c.process.creds.is_root
        # image files are root-owned: user cannot modify them
        with pytest.raises(AccessDenied):
            c.syscalls().open_write("/etc/os-release", b"pwned")

    def test_host_tmp_bound(self, userdb, image):
        node = self._node(userdb)
        c = self._run(userdb, node, image)
        c.syscalls().create("/tmp/from-container", mode=0o600, data=b"c")
        host_creds = creds_of(userdb, "alice")
        assert node.vfs.read("/tmp/from-container", host_creds) == b"c"

    def test_shared_home_bound(self, userdb, image, shared_home):
        node = self._node(userdb)
        node.mount_shared("/home", shared_home)
        c = self._run(userdb, node, image)
        sys = c.syscalls()
        sys.create("/home/alice/result.dat", mode=0o600, data=b"results")
        host_creds = creds_of(userdb, "alice")
        assert node.vfs.read("/home/alice/result.dat",
                             host_creds) == b"results"

    def test_every_file_syscall_uses_the_container_namespace(self, userdb,
                                                             image):
        """lstat, readlink, symlink and getfacl resolve in the image tree,
        like stat and open do; the host has none of these paths."""
        from repro.containers.runtime import Container
        from repro.kernel import FileKind, ROOT_CREDS
        from repro.kernel.errors import NoSuchEntity
        node = self._node(userdb)
        c = self._run(userdb, node, image)
        root_proc = node.procs.spawn(ROOT_CREDS, ["apptainer", "exec"])
        root_sys = Container(node, image, root_proc, c.vfs).syscalls()
        root_sys.symlink("python", "/opt/conda/bin/python3")
        sys = c.syscalls()
        assert sys.stat("/etc/os-release").size == 12
        assert sys.lstat("/etc/os-release").size == 12
        assert sys.getfacl("/etc/os-release") == []
        assert sys.readlink("/opt/conda/bin/python3") == "python"
        assert sys.lstat("/opt/conda/bin/python3").kind is FileKind.SYMLINK
        assert sys.stat("/opt/conda/bin/python3").kind is FileKind.FILE
        for path in ("/etc/os-release", "/opt/conda/bin/python3"):
            with pytest.raises(NoSuchEntity):
                node.vfs.lstat(path, ROOT_CREDS)

    def test_children_stay_in_the_container(self, userdb, image):
        """A container's whole process tree lives in its mount namespace:
        a child (and its child) reads the image, which the host lacks."""
        from repro.containers import ContainerSyscalls
        c = self._run(userdb, self._node(userdb), image)
        parent = c.syscalls()
        child = parent.spawn_child(["python", "train.py"])
        grandchild = child.spawn_child(["python", "-c", "pass"])
        for sys, ppid in ((child, parent.process.pid),
                          (grandchild, child.process.pid)):
            assert type(sys) is ContainerSyscalls
            assert sys.process.ppid == ppid
            assert sys.open_read("/opt/conda/bin/python") \
                == b"#!ELF python3.11"
        assert parent.process is c.process  # the parent stays bound

    def test_allowed_users_enforced(self, userdb, image):
        node = self._node(userdb)
        rt = SingularityRuntime(
            node, allowed_users=frozenset({userdb.user("carol").uid}))
        alice_proc = node.procs.spawn(creds_of(userdb, "alice"), ["apptainer"])
        with pytest.raises(PermissionError_):
            rt.run(alice_proc, image)
        carol_proc = node.procs.spawn(creds_of(userdb, "carol"), ["apptainer"])
        rt.run(carol_proc, image)


class TestSecurityPassthrough:
    """Section IV-G: 'all of the security features described in this paper
    pass through to the container as well.'"""

    def _node(self, userdb):
        return LinuxNode("c1", userdb, handler=LLSC_KERNEL,
                         proc_options=ProcMountOptions(hidepid=2))

    def _container_sys(self, userdb, node, image, username="alice"):
        # umask 0 so the assertions isolate the smask's effect
        creds = creds_of(userdb, username, smask=PAPER_SMASK, umask=0)
        proc = node.procs.spawn(creds, ["apptainer", "exec"])
        return SingularityRuntime(node).run(proc, image).syscalls()

    def test_smask_applies_inside_container(self, userdb, image):
        sys = self._container_sys(userdb, self._node(userdb), image)
        st = sys.create("/tmp/f", mode=0o666)
        assert st.mode == 0o660  # world bits stripped inside too
        assert sys.chmod("/tmp/f", 0o777) == 0o770

    def test_hidepid_applies_inside_container(self, userdb, image):
        node = self._node(userdb)
        bob_proc = node.procs.spawn(creds_of(userdb, "bob"),
                                    ["secret-tool", "--password=x"])
        sys = self._container_sys(userdb, node, image, "alice")
        visible = sys.ps()
        assert all(r.uid == sys.creds.uid for r in visible)

    def test_ubf_applies_inside_container(self, userdb, image):
        from tests.net.conftest import build_fabric, proc_on
        from repro.kernel.errors import TimedOut
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        # bob's service on c2
        bob = proc_on(nodes, "c2", userdb, "bob", argv=("server",))
        nodes["c2"].net.listen(nodes["c2"].net.bind(bob, 5000))
        # alice inside a container on c1 (host network passthrough)
        creds = creds_of(userdb, "alice", smask=PAPER_SMASK)
        proc = nodes["c1"].procs.spawn(creds, ["apptainer"])
        c = SingularityRuntime(nodes["c1"]).run(proc, image)
        with pytest.raises(TimedOut):
            c.syscalls().socket().connect("c2", 5000)

    def test_acl_restriction_applies_inside(self, userdb, image):
        from repro.kernel import AclEntry
        sys = self._container_sys(userdb, self._node(userdb), image)
        sys.create("/tmp/f", mode=0o600)
        fusion = userdb.group("fusion").gid
        with pytest.raises(PermissionError_):
            sys.setfacl("/tmp/f", AclEntry("group", fusion, 4))
