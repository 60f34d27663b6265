"""The attack catalog: every cross-user probe as one :class:`AttackModel`.

Every probe models one concrete way users can observe or interact on a
shared HPC system — the paper's Section IV walks through them area by area,
and Section V claims the composed LLSC configuration closes all of them
except three documented residuals (file names in world-writable
directories, abstract-namespace UNIX domain sockets, and native-IB-CM
RDMA).

Each probe builds its own scenario on a fresh cluster (victim ``alice``,
attacker ``bob``, project pair ``carol``/``dave``, staff ``sam``).
``malicious(cluster)`` returns ``(crossed, detail)``, where ``crossed``
is True iff data or interaction actually crossed the user boundary.  Two
collections draw on the catalog:

* :data:`ALL_ATTACKS` — E14's battery of 33 probes, area-ordered.
  ``residual=True`` marks probes the paper itself expects to keep working;
  ``intended=True`` marks the *sanctioned* sharing path (approved project
  group), which must keep working — separation that breaks it would be
  wrong.  :func:`repro.core.audit.run_battery` runs the battery against
  any :class:`~repro.core.config.SeparationConfig` and aggregates the
  leakage matrix.
* :data:`CATALOG` — the numbered adversaries A1..A14.  Each also has a
  ``benign(cluster)`` twin: the closest sanctioned version of the same
  workflow, which must succeed (and trip zero oracle violations) under
  every preset — the paper's usability constraint made executable.  The
  campaign runner (:mod:`repro.attacks.runner`) runs both halves and
  checks the declared expectations:

  * ``section`` — the paper mechanism (Section IV-A..G) under test;
  * ``mechanism`` / ``blocked_by`` — audit-trail mechanism tag and the
    human-readable control expected to stop the probe under ``full``;
  * ``invariant`` — the separation-oracle invariant (I1..I7) that would
    be violated if enforcement mis-decided during the probe;
  * ``flipped_by`` — the campaign presets under which the probe is
    expected to SUCCEED (every ablation must appear in at least one
    attack's ``flipped_by``, or it ablates nothing the catalog can see).

Seven scenarios (A2, A3, A4, A6, A9, A10, A12) belong to both.
"""

from __future__ import annotations

from repro.containers.image import ImageFile, build_image
from repro.core.cluster import Cluster, Session
from repro.faults.injector import FaultKind
from repro.kernel.errors import KernelError
from repro.kernel.vfs import AclEntry
from repro.monitor.wiring import audited_session
from repro.net.firewall import Proto
from repro.sched.health import attach_health
from repro.transfer.scp import scp

SECRET = b"SECRET-dataset-42"
ARGV_SECRET = "--db-password=hunter2"


class AttackModel:
    """One cross-user probe; numbered adversaries add a benign twin."""

    #: catalog id (``A1``..``A14``); battery-only probes have none
    id: str = ""
    name: str = "?"
    #: Section IV area the E14 battery counts the probe under
    area: str = "?"
    #: a documented Section V residual, expected to stay open
    residual: bool = False
    #: the sanctioned sharing path, which must work under every config
    intended: bool = False
    #: one-line threat-model statement for the generated catalog
    story: str = "?"
    #: paper mechanism under test (Section IV-A..G)
    section: str = "?"
    #: audit-trail mechanism tag expected on the blocking deny record
    mechanism: str = "?"
    #: human-readable control expected to stop the probe under ``full``
    blocked_by: str = "?"
    #: oracle invariant armed while the probe runs
    invariant: str = "?"
    #: the username whose deny records attribute the block
    attacker: str = "bob"
    #: presets under which the probe is expected to SUCCEED
    flipped_by: tuple[str, ...] = ()
    #: presets where the probe crosses but the still-armed oracle catches
    #: the bad enforcement decision in-window (expected DETECTED)
    detected_in: tuple[str, ...] = ()

    def benign(self, cluster: Cluster) -> str:
        """Run the sanctioned twin; return a detail string.  Must not raise."""
        raise NotImplementedError

    def malicious(self, cluster: Cluster) -> tuple[bool, str]:
        """Run the probe; return (crossed_the_boundary, detail)."""
        raise NotImplementedError

    def expected(self, preset_key: str) -> str:
        """Declared outcome under *preset_key*: the matrix tests' ground truth."""
        if preset_key in self.flipped_by:
            return "SUCCEEDED"
        if preset_key in self.detected_in:
            return "DETECTED"
        return "BLOCKED"


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _login_pair(cluster: Cluster) -> tuple[Session, Session]:
    """Victim and attacker shells on the shared login node."""
    return cluster.login("alice"), cluster.login("bob")


def _try(fn, *args, **kwargs) -> tuple[bool, str]:
    """Run a probe step: (succeeded, detail)."""
    try:
        out = fn(*args, **kwargs)
        return True, f"succeeded: {out!r}" if out is not None else "succeeded"
    except KernelError as e:
        return False, f"blocked: {e}"


def _audited(cluster: Cluster, session):
    """The attacker's shell with denial auditing attached."""
    return audited_session(session, cluster.security_log)


# --------------------------------------------------------------------------
# IV-A processes
# --------------------------------------------------------------------------

class PsSnoop(AttackModel):
    """Probe: read other users' process listings with ``ps``."""

    name = "ps-snoop"
    area = "processes"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.spawn_child(["python", "train.py"])
        rows = attacker.sys.ps()
        seen = [r for r in rows if r.uid == victim.user.uid]
        return bool(seen), f"attacker sees {len(seen)} victim processes"


class ProcArgvSecret(AttackModel):
    """CVE-2020-27746 shape: a credential passed on a command line."""

    name = "proc-argv-secret"
    area = "processes"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        proc = victim.sys.spawn_child(["mysql", ARGV_SECRET]).process
        try:
            cmdline = attacker.sys.read_proc_cmdline(proc.pid)
            return ARGV_SECRET in cmdline, "argv readable"
        except KernelError as e:
            return False, f"blocked: {e}"


class ProcUidEnumeration(AttackModel):
    """Probe: enumerate which uids are active from /proc status files."""

    name = "proc-uid-enumeration"
    area = "processes"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.spawn_child(["octave", "analysis.m"])
        uids = {r.uid for r in attacker.sys.ps()}
        return victim.user.uid in uids, f"visible uids: {sorted(uids)}"


class ProcfsSnoop(AttackModel):
    """A1: harvest credentials from other users' /proc entries."""

    id = "A1"
    name = "procfs-snoop"
    story = ("A login-node neighbour runs `ps` and reads /proc/<pid>/cmdline "
             "to harvest secrets passed on victims' command lines "
             "(the CVE-2020-27746 shape).")
    section = "IV-A"
    mechanism = "procfs"
    blocked_by = "hidepid=2 mount option"
    invariant = "I1"
    flipped_by = ("no-hidepid", "baseline")

    def benign(self, cluster):
        bob = cluster.login("bob")
        bob.sys.spawn_child(["python", "mine.py"])
        rows = bob.sys.ps()
        own = [r for r in rows if r.uid == bob.user.uid]
        assert own, "user cannot see own processes"
        return f"bob lists {len(own)} of his own processes"

    def malicious(self, cluster):
        victim = cluster.login("alice")
        proc = victim.sys.spawn_child(["mysql", ARGV_SECRET]).process
        attacker = _audited(cluster, cluster.login("bob"))
        seen = [r for r in attacker.ps() if r.uid == victim.user.uid]
        try:
            cmdline = attacker.read_proc_cmdline(proc.pid)
            if ARGV_SECRET in cmdline:
                return True, "victim argv secret read from /proc"
        except KernelError as e:
            return bool(seen), (f"cmdline blocked: {e}" if not seen else
                                f"ps leaked {len(seen)} victim rows")
        return bool(seen), "victim visible in ps but argv clean"


# --------------------------------------------------------------------------
# IV-B scheduler
# --------------------------------------------------------------------------

class SqueueSnoop(AttackModel):
    """Probe: observe other users' jobs in the ``squeue`` listing."""

    name = "squeue-snoop"
    area = "scheduler"

    def malicious(self, cluster):
        cluster.submit("alice", name="secret-proj", duration=100.0,
                       command="./classified.sh")
        cluster.run(until=1.0)
        rows = cluster.scheduler_view.squeue(cluster.user("bob"))
        seen = [r for r in rows if r.user_name == "alice"]
        return bool(seen), f"attacker squeue shows {len(seen)} victim jobs"


class SqueueMetadata(AttackModel):
    """Probe: harvest job names and metadata from ``squeue`` output."""

    name = "squeue-metadata"
    area = "scheduler"

    def malicious(self, cluster):
        cluster.submit("alice", name="tape-17-decrypt", duration=100.0,
                       command="./decrypt.sh --key-id 99")
        cluster.run(until=1.0)
        rows = cluster.scheduler_view.squeue(cluster.user("bob"))
        leaks = [r for r in rows
                 if "decrypt" in r.command or "tape" in r.job_name]
        return bool(leaks), "job name/command visible to stranger"


class SacctUsage(AttackModel):
    """Probe: read other users' accounting records via ``sacct``."""

    name = "sacct-usage"
    area = "scheduler"

    def malicious(self, cluster):
        cluster.submit("alice", name="quarterly", duration=5.0)
        cluster.run(until=10.0)
        recs = cluster.scheduler_view.sacct(cluster.user("bob"))
        seen = [r for r in recs if r.user_name == "alice"]
        return bool(seen), f"attacker sacct shows {len(seen)} victim records"


class SshWithoutJob(AttackModel):
    """A2: land on a compute node without holding an allocation there."""

    id = "A2"
    name = "ssh-without-job"
    area = "scheduler"
    story = ("An attacker sshes straight to a compute node with no job "
             "there, aiming to observe or disturb whatever is running.")
    section = "IV-B"
    mechanism = "pam"
    blocked_by = "pam_slurm_adopt gate"
    invariant = "I4"
    flipped_by = ("no-pam-slurm", "baseline")

    def benign(self, cluster):
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        sess = cluster.ssh("alice", job.nodes[0])
        return f"job holder alice ssh'd to her own node {sess.node.name}"

    def malicious(self, cluster):
        node = cluster.compute_nodes[0].name
        try:
            cluster.ssh("bob", node)
            return True, f"bob landed on {node} with no job"
        except KernelError as e:
            return False, f"blocked: {e}"


class CoResidentPlacement(AttackModel):
    """A3: co-schedule onto a node already running a stranger's job."""

    id = "A3"
    name = "co-residency"
    area = "scheduler"
    story = ("An attacker sizes jobs to share nodes with a victim's job, "
             "gaining a side-channel platform (cache, /tmp, local IPC).")
    section = "IV-B"
    mechanism = "sched"
    blocked_by = "whole-node-per-user allocation"
    invariant = "I4"
    flipped_by = ("shared-nodes", "baseline")

    def benign(self, cluster):
        a = cluster.submit("alice", name="step1", cores_per_task=4,
                           duration=100.0)
        b = cluster.submit("alice", name="step2", cores_per_task=4,
                           duration=100.0)
        cluster.run(until=1.0)
        assert a.nodes and b.nodes, "benign jobs did not start"
        return ("same-user jobs placed on nodes "
                f"{sorted(set(a.nodes) | set(b.nodes))}")

    def malicious(self, cluster):
        a = cluster.submit("alice", name="victim", cores_per_task=4,
                           ntasks=2, duration=100.0)
        b = cluster.submit("bob", name="snoop", cores_per_task=4,
                           ntasks=2, duration=100.0)
        cluster.run(until=1.0)
        shared = set(a.nodes) & set(b.nodes)
        if shared:
            return True, f"co-resident on {sorted(shared)}"
        return False, (f"disjoint placement: alice={sorted(set(a.nodes))} "
                       f"bob={sorted(set(b.nodes))}")


class SlurmStdoutSnoop(AttackModel):
    """Job output files (slurm-<id>.out) land in the user's home; on a
    flat-group system with readable homes the whole group can read
    everyone's job logs."""

    name = "slurm-stdout-snoop"
    area = "scheduler"

    def malicious(self, cluster):
        from repro.sched.jobs import JobSpec

        def script(ctx):
            ctx.print("checkpoint token:", SECRET.decode())

        spec = JobSpec(user=cluster.user("alice"), name="j",
                       workdir="/home/alice", script=script)
        job = cluster.scheduler.submit(spec, 5.0)
        cluster.run(until=20.0)
        attacker = cluster.login("bob")
        try:
            out = attacker.sys.open_read(job.stdout_path)
            return SECRET in out, "job log read by stranger"
        except KernelError as e:
            return False, f"blocked: {e}"


# --------------------------------------------------------------------------
# IV-C filesystems
# --------------------------------------------------------------------------

class ChmodWorldHome(AttackModel):
    """Probe: chmod a home directory open and read it cross-user."""

    name = "chmod-world-home"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        path = "/home/alice/leak.txt"
        victim.sys.create(path, mode=0o600, data=SECRET)
        try:
            victim.sys.chmod(path, 0o666)
            victim.sys.chmod("/home/alice", 0o755)  # also open the dir
        except KernelError:
            pass  # chmod of the home dir may be refused; probe the read
        try:
            return attacker.sys.open_read(path) == SECRET, "content read"
        except KernelError as e:
            return False, f"blocked: {e}"


class TmpWorldFile(AttackModel):
    """Probe: leave a world-readable /tmp file for a stranger to read."""

    name = "tmp-world-file"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.umask(0o000)
        victim.sys.create("/tmp/alice-drop", mode=0o666, data=SECRET)
        try:
            return attacker.sys.open_read("/tmp/alice-drop") == SECRET, \
                "content read"
        except KernelError as e:
            return False, f"blocked: {e}"


class DevShmFile(AttackModel):
    """Probe: pass data cross-user through a world-readable /dev/shm file."""

    name = "dev-shm-file"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.umask(0o000)
        victim.sys.create("/dev/shm/alice-ipc", mode=0o666, data=SECRET)
        try:
            return attacker.sys.open_read("/dev/shm/alice-ipc") == SECRET, \
                "content read"
        except KernelError as e:
            return False, f"blocked: {e}"


class AclUserGrant(AttackModel):
    """Probe: setfacl a private file to a specific foreign uid."""

    name = "acl-user-grant"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        path = "/home/alice/acl-share.txt"
        victim.sys.create(path, mode=0o600, data=SECRET)
        try:
            victim.sys.setfacl(path, AclEntry("user", attacker.user.uid, 4))
        except KernelError as e:
            return False, f"setfacl blocked: {e}"
        try:
            # attacker still needs a path to it: victim also tries to open
            # the home dir for traversal
            victim.sys.setfacl("/home/alice",
                               AclEntry("user", attacker.user.uid, 5))
        except KernelError:
            pass
        try:
            return attacker.sys.open_read(path) == SECRET, "content read"
        except KernelError as e:
            return False, f"blocked: {e}"


class ChgrpSharedGroup(AttackModel):
    """Classic flat-scheme leak: chgrp to the common 'users' group + g+rw."""

    name = "chgrp-shared-group"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.umask(0o000)
        victim.sys.create("/tmp/group-drop", mode=0o600, data=SECRET)
        # pick any non-private group both users share
        common = [g for g in victim.creds.groups
                  if g in attacker.creds.groups
                  and not cluster.userdb.group(g).is_private]
        if not common:
            return False, "blocked: no shared group exists (UPG scheme)"
        try:
            victim.sys.chown("/tmp/group-drop", gid=common[0])
            victim.sys.chmod("/tmp/group-drop", 0o660)
            return attacker.sys.open_read("/tmp/group-drop") == SECRET, \
                f"via shared gid {common[0]}"
        except KernelError as e:
            return False, f"blocked: {e}"


class HomeWalk(AttackModel):
    """Probe: walk into other users' home directories directly."""

    name = "home-walk"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.create("/home/alice/projects.txt", mode=0o644,
                          data=b"proposal filenames")
        return _try(attacker.sys.listdir, "/home/alice")


class TmpFilenameEnum(AttackModel):
    """Residual: names in world-writable dirs remain visible (Section V)."""

    name = "tmp-filename-enum"
    area = "filesystem"
    residual = True

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.create("/tmp/alice-GENOME-batch7.lock", mode=0o600)
        try:
            names = attacker.sys.listdir("/tmp")
            return any("GENOME" in n for n in names), f"names: {names}"
        except KernelError as e:
            return False, f"blocked: {e}"


class SmaskWorldPublish(AttackModel):
    """A4: publish a world-readable file despite the victim's umask 0.

    In the E14 battery this is the pre-LU-4746 Lustre bypass: world bits
    on create in /scratch."""

    id = "A4"
    name = "scratch-world-create"
    area = "filesystem"
    story = ("A victim (careless umask 0) creates a world-readable scratch "
             "file; a stranger reads it.  The File Permission Handler's "
             "smask must strip the world bits at create time.")
    section = "IV-C"
    mechanism = "vfs"
    blocked_by = "File Permission Handler smask"
    invariant = "I3"
    flipped_by = ("no-fph", "open-homes", "baseline")

    def benign(self, cluster):
        alice = cluster.login("alice")
        alice.sys.create("/scratch/mine.dat", mode=0o600, data=SECRET)
        got = alice.sys.open_read("/scratch/mine.dat")
        assert got == SECRET, "owner cannot read own file"
        return "alice reads her own scratch file"

    def malicious(self, cluster):
        victim = cluster.login("alice")
        victim.sys.umask(0o000)
        victim.sys.create("/scratch/pub.dat", mode=0o666, data=SECRET)
        attacker = _audited(cluster, cluster.login("bob"))
        try:
            got = attacker.open_read("/scratch/pub.dat")
            return got == SECRET, "world-readable scratch file read"
        except KernelError as e:
            return False, f"blocked: {e}"


class AclForeignGrant(AttackModel):
    """A5: an insider setfacls a private file to a specific outsider."""

    id = "A5"
    name = "acl-foreign-grant"
    story = ("An insider grants a specific foreign uid read access with "
             "setfacl, punching a named hole through the group scheme.")
    section = "IV-C"
    mechanism = "vfs"
    blocked_by = "ACL grant restriction (own groups only)"
    invariant = "I3"
    attacker = "alice"  # the granter is the one the policy denies
    # the grant restriction is part of the File Permission Handler, so
    # disabling the FPH wholesale removes it too
    flipped_by = ("no-acl-restriction", "no-fph", "open-homes", "baseline")

    def benign(self, cluster):
        carol = cluster.login("carol")
        fusion = cluster.userdb.group("fusion")
        carol.sys.create("/scratch/fusion-share.dat", mode=0o600, data=SECRET)
        carol.sys.setfacl("/scratch/fusion-share.dat",
                          AclEntry("group", fusion.gid, 4))
        dave = cluster.login("dave")
        got = dave.sys.open_read("/scratch/fusion-share.dat")
        assert got == SECRET, "approved project member cannot read"
        return "setfacl to own project group shares with member dave"

    def malicious(self, cluster):
        alice = _audited(cluster, cluster.login("alice"))
        bob = cluster.login("bob")
        alice.create("/scratch/poach.dat", mode=0o600, data=SECRET)
        try:
            alice.setfacl("/scratch/poach.dat",
                          AclEntry("user", bob.user.uid, 4))
        except KernelError as e:
            return False, f"grant blocked: {e}"
        try:
            got = bob.sys.open_read("/scratch/poach.dat")
            return got == SECRET, "foreign uid granted and read"
        except KernelError as e:
            return False, f"grant made but read blocked: {e}"


class TmpSymlinkRedirect(AttackModel):
    """The classic /tmp symlink attack: the attacker plants a link where
    the victim's job writes its output, redirecting the write into a file
    the victim owns (attacker-directed corruption).  Blocked by the
    fs.protected_symlinks sysctl (default-on on any modern kernel, under
    both presets) — included to show which *layer* covers this path."""

    name = "tmp-symlink-redirect"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.create("/home/alice/.bashrc", mode=0o644, data=b"PS1=ok")
        attacker.sys.symlink("/home/alice/.bashrc", "/tmp/joboutput")
        try:
            victim.sys.open_write("/tmp/joboutput", b"pwned")
        except KernelError as e:
            return False, f"blocked: {e}"
        corrupted = victim.sys.open_read("/home/alice/.bashrc") != b"PS1=ok"
        return corrupted, "victim write redirected into own dotfile"


class TmpHardlinkPin(AttackModel):
    """Hardlink variant: pin another user's file under /tmp so it survives
    the owner's cleanup.  Blocked by fs.protected_hardlinks."""

    name = "tmp-hardlink-pin"
    area = "filesystem"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim.sys.create("/tmp/victim-data", mode=0o644, data=SECRET)
        try:
            attacker.sys.link("/tmp/victim-data", "/tmp/pinned")
        except KernelError as e:
            return False, f"blocked: {e}"
        victim.sys.unlink("/tmp/victim-data")
        try:
            return attacker.sys.open_read("/tmp/pinned") == SECRET, \
                "content pinned past deletion"
        except KernelError as e:
            return False, f"blocked: {e}"


class ProjectGroupShare(AttackModel):
    """The sanctioned path: must WORK under every config (usability)."""

    name = "project-group-share"
    area = "filesystem"
    intended = True

    def malicious(self, cluster):
        carol = cluster.login("carol")
        dave = cluster.login("dave")
        carol.sg("fusion")
        carol.sys.create("/home/proj/fusion/results.h5", mode=0o660,
                         data=SECRET)
        try:
            return dave.sys.open_read("/home/proj/fusion/results.h5") == SECRET, \
                "project member read shared file"
        except KernelError as e:
            return False, f"blocked: {e}"


# --------------------------------------------------------------------------
# IV-D network
# --------------------------------------------------------------------------

def _victim_service(cluster, port=5000, proto=Proto.TCP):
    """alice runs a service inside a job on a compute node."""
    job = cluster.submit("alice", name="svc", duration=1000.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    net = shell.node.net
    if proto is Proto.TCP:
        sock = net.listen(net.bind(shell.process, port))
    else:
        sock = net.bind(shell.process, port, proto)
    return shell, sock


class UbfCrossUserConnect(AttackModel):
    """A6: connect to a stranger's unprotected in-job service."""

    id = "A6"
    name = "tcp-connect-cross-user"
    area = "network"
    story = ("A victim's job runs an unauthenticated service (dask, "
             "jupyter, a debug port); a stranger connects to it from the "
             "login node.")
    section = "IV-D"
    mechanism = "ubf"
    blocked_by = "UBF same-user/group rule"
    invariant = "I2"
    flipped_by = ("no-ubf", "baseline")

    def benign(self, cluster):
        shell, sock = _victim_service(cluster)
        client = cluster.login("alice")
        conn = client.socket().connect(shell.node.name, sock.port)
        conn.send(b"GET /status")
        return "owner alice connected to her own service"

    def malicious(self, cluster):
        shell, sock = _victim_service(cluster)
        attacker = cluster.login("bob")
        try:
            conn = attacker.socket().connect(shell.node.name, sock.port)
            conn.send(b"GET /data")
            return True, "stranger connected and sent payload"
        except KernelError as e:
            return False, f"blocked: {e}"


class UdpCrossUser(AttackModel):
    """Probe: send a UDP datagram to another user's socket."""

    name = "udp-cross-user"
    area = "network"

    def malicious(self, cluster):
        shell, sock = _victim_service(cluster, port=6000, proto=Proto.UDP)
        attacker = cluster.login("bob")
        try:
            attacker.socket().sendto(shell.node.name, 6000, b"probe")
            d = shell.node.net.recvfrom(sock)
            return True, f"datagram delivered from {d.src_host}"
        except KernelError as e:
            return False, f"blocked: {e}"


class PortSquat(AttackModel):
    """Attacker binds a popular port; victim's client connects by mistake.
    Under the UBF the victim's data never reaches the attacker."""

    name = "port-squat"
    area = "network"

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        net = attacker.node.net
        squat = net.listen(net.bind(attacker.process, 8080))
        try:
            conn = victim.socket().connect(attacker.node.name, 8080)
            conn.send(SECRET)
            got = net.accept(squat).recv()
            return got == SECRET, "attacker captured victim payload"
        except KernelError as e:
            return False, f"blocked: {e}"


class AbstractUds(AttackModel):
    """Residual: abstract-namespace UDS have no permissions (Section V)."""

    name = "abstract-uds"
    area = "network"
    residual = True

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        net = victim.node.net
        net.abstract_bind(victim.process, "alice-ipc")
        try:
            conn = net.abstract_connect(attacker.process, "alice-ipc")
            conn.send(b"probe")
            srv = net.abstract_accept("alice-ipc")
            srv.send(SECRET)  # victim service answers whoever connects
            return conn.recv() == SECRET, "cross-user UDS exchange"
        except KernelError as e:
            return False, f"blocked: {e}"


class RdmaCmBypass(AttackModel):
    """Residual: native IB CM setup is invisible to the UBF (appendix)."""

    name = "rdma-cm-bypass"
    area = "network"
    residual = True

    def malicious(self, cluster):
        victim, attacker = _login_pair(cluster)
        victim_qp = cluster.rdma.create_qp(victim.node.name, victim.process)
        victim_qp.mr.write(0, SECRET)
        attacker_qp = cluster.rdma.create_qp(attacker.node.name,
                                             attacker.process)
        cluster.rdma.connect_qp_cm(attacker_qp, victim_qp)
        got = attacker_qp.rdma_read(0, len(SECRET))
        return got == SECRET, "MR read via CM-setup QP"


class RdmaTcpControlled(AttackModel):
    """The governed RDMA path: TCP control channel, so the UBF applies."""

    name = "rdma-tcp-controlled"
    area = "network"

    def malicious(self, cluster):
        shell, sock = _victim_service(cluster, port=18515)
        victim_qp = cluster.rdma.create_qp(shell.node.name, shell.process)
        victim_qp.mr.write(0, SECRET)
        attacker = cluster.login("bob")
        attacker_qp = cluster.rdma.create_qp(attacker.node.name,
                                             attacker.process)
        try:
            cluster.rdma.connect_qp_tcp(attacker_qp, victim_qp, 18515)
            got = attacker_qp.rdma_read(0, len(SECRET))
            return got == SECRET, "MR read via TCP-setup QP"
        except KernelError as e:
            return False, f"blocked: {e}"


class IdentSpoof(AttackModel):
    """A7: forge identd answers from a compromised initiating host."""

    id = "A7"
    name = "ident-spoof"
    story = ("A compromised login host's identd answers UBF queries with "
             "the victim's uid; the receiving daemon must catch the lie by "
             "running 'the same query locally' against the kernel-stamped "
             "packet uid.")
    section = "IV-D"
    mechanism = "ubf"
    blocked_by = "UBF local ident cross-check"
    invariant = "I2"
    flipped_by = ("no-ubf", "baseline")

    def benign(self, cluster):
        shell, sock = _victim_service(cluster)
        client = cluster.login("alice")
        conn = client.socket().connect(shell.node.name, sock.port)
        conn.send(b"hello")
        return "honest ident exchange accepted the owner"

    def malicious(self, cluster):
        shell, sock = _victim_service(cluster)
        alice = cluster.user("alice")
        attacker = cluster.login("bob")
        # compromise the attacker's own host: its identd now claims every
        # socket belongs to alice
        cluster.fabric.faults.inject(
            FaultKind.IDENT_SPOOF, attacker.node.name,
            uid=alice.uid, egid=alice.primary_gid,
            groups=(alice.primary_gid,))
        try:
            conn = attacker.socket().connect(shell.node.name, sock.port)
            conn.send(b"GET /data")
            return True, "forged identity accepted"
        except KernelError as e:
            return False, f"blocked: {e}"


class RevokedMemberReplay(AttackModel):
    """A8: reconnect after project revocation, riding cached verdicts."""

    id = "A8"
    name = "revoked-member-replay"
    story = ("A user expelled from a project logs in again and reconnects "
             "to the project's service, betting that the UBF's verdict "
             "cache still holds the ACCEPT from before the revocation.")
    section = "IV-D"
    mechanism = "ubf"
    blocked_by = "verdict-cache generation invalidation"
    invariant = "I2"
    attacker = "dave"
    flipped_by = ("no-ubf", "baseline")

    def _project_service(self, cluster):
        job = cluster.submit("carol", name="proj-svc", duration=1000.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        shell.sg("fusion")
        net = shell.node.net
        sock = net.listen(net.bind(shell.process, 7000))
        return shell, sock

    def benign(self, cluster):
        shell, sock = self._project_service(cluster)
        dave = cluster.login("dave")
        conn = dave.socket().connect(shell.node.name, sock.port)
        conn.send(b"status")
        return "project member dave reached the project service"

    def malicious(self, cluster):
        shell, sock = self._project_service(cluster)
        dave1 = cluster.login("dave")
        conn = dave1.socket().connect(shell.node.name, sock.port)
        conn.send(b"warm the verdict cache")
        cluster.userdb.remove_from_project(
            "fusion", cluster.user("dave"), approver=cluster.user("carol"))
        dave2 = cluster.login("dave")  # fresh session, post-revocation creds
        try:
            conn2 = dave2.socket().connect(shell.node.name, sock.port)
            conn2.send(b"still here")
            return True, "revoked member reconnected via stale verdict"
        except KernelError as e:
            return False, f"blocked: {e}"


class DegradedOutageSneak(AttackModel):
    """A14: connect during an identd outage, betting on fail-open."""

    id = "A14"
    name = "degraded-outage-sneak"
    story = ("An attacker waits for (or causes) an identd outage on his "
             "host and connects while identity is unverifiable, betting "
             "the UBF fails open.")
    section = "IV-D"
    mechanism = "ubf"
    blocked_by = "UBF fail-closed degradation"
    invariant = "I2"
    flipped_by = ("fail-open", "no-ubf", "baseline")

    def benign(self, cluster):
        shell, sock = _victim_service(cluster)
        client = cluster.login("alice")
        conn = client.socket().connect(shell.node.name, sock.port)
        conn.send(b"hello")
        return "owner connected while identd healthy"

    def malicious(self, cluster):
        shell, sock = _victim_service(cluster)
        attacker = cluster.login("bob")
        cluster.chaos().identd_down(attacker.node.name)
        try:
            conn = attacker.socket().connect(shell.node.name, sock.port)
            conn.send(b"GET /data")
            return True, "connected while identity unverifiable"
        except KernelError as e:
            return False, f"blocked: {e}"


# --------------------------------------------------------------------------
# IV-E portal
# --------------------------------------------------------------------------

def _victim_webapp(cluster):
    """alice runs a jupyter web app in a job, registered with the portal."""
    from repro.portal.webapp import launch_webapp
    job = cluster.submit("alice", name="jupyter", duration=1000.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    app = launch_webapp(shell.node, shell.process, 8888, "jupyter")
    cluster.portal.register(app)
    return app


class PortalUnauthenticated(AttackModel):
    """Probe: fetch a portal app page without authenticating."""

    name = "portal-unauthenticated"
    area = "portal"

    def malicious(self, cluster):
        app = _victim_webapp(cluster)
        try:
            page = cluster.portal.connect(None, app.app_id)
            return b"jupyter" in page, "page fetched without auth"
        except KernelError as e:
            return False, f"blocked: {e}"


class PortalImpersonation(AttackModel):
    """A9: reach a stranger's portal web app, with and without a session."""

    id = "A9"
    name = "portal-cross-user"
    area = "portal"
    story = ("An attacker tries a victim's portal-proxied web app twice: "
             "anonymously, and from his own valid portal session.")
    section = "IV-E"
    mechanism = "portal"
    blocked_by = "portal auth + UBF on the forwarded hop"
    invariant = "I6"
    flipped_by = ("no-portal-auth", "baseline")
    # without the UBF the cross-user forward goes through, but the portal
    # invariant is still armed: the oracle catches it in-window
    detected_in = ("no-ubf",)

    def benign(self, cluster):
        app = _victim_webapp(cluster)
        sess = cluster.portal.login("alice")
        page = cluster.portal.connect(sess.token, app.app_id)
        assert b"jupyter" in page, "owner cannot reach own app"
        return "owner alice fetched her own app page"

    def malicious(self, cluster):
        app = _victim_webapp(cluster)
        try:
            page = cluster.portal.connect(None, app.app_id)
            if b"jupyter" in page:
                return True, "page fetched without any session"
        except KernelError:
            pass
        sess = cluster.portal.login("bob")
        try:
            page = cluster.portal.connect(sess.token, app.app_id)
            return b"jupyter" in page, "stranger session fetched victim app"
        except KernelError as e:
            return False, f"blocked: {e}"


class PortalTokenArgvHarvest(AttackModel):
    """Multi-stage: harvest a portal token from the victim's command line
    (the CVE-2020-27746 channel again), then replay it against the portal.
    hidepid=2 severs the chain at step one."""

    name = "portal-token-argv-harvest"
    area = "portal"

    def malicious(self, cluster):
        app = _victim_webapp(cluster)
        token = cluster.portal.login("alice").token
        victim = cluster.login("alice")
        victim.sys.spawn_child(["portal-client", f"--token={token}"])
        attacker = cluster.login("bob")
        stolen = None
        for pid in attacker.sys.list_proc_pids():
            try:
                cmdline = attacker.sys.read_proc_cmdline(pid)
            except KernelError:
                continue
            if "--token=" in cmdline:
                stolen = cmdline.split("--token=")[1].split()[0]
        if stolen is None:
            return False, "blocked: token not visible in any cmdline"
        try:
            page = cluster.portal.connect(stolen, app.app_id)
            return b"jupyter" in page, "token replayed successfully"
        except KernelError as e:
            return False, f"token stolen but replay blocked: {e}"


# --------------------------------------------------------------------------
# IV-F accelerators
# --------------------------------------------------------------------------

class GpuResidueScrape(AttackModel):
    """A10: read GPU memory residue after the previous job's clean exit."""

    id = "A10"
    name = "gpu-residue"
    area = "gpu"
    story = ("An attacker queues a GPU job right after a victim's and reads "
             "device memory before writing, harvesting model weights or "
             "data the epilog should have scrubbed.")
    section = "IV-F"
    mechanism = "gpu"
    blocked_by = "epilog GPU memory scrub"
    invariant = "I5"
    flipped_by = ("no-gpu-scrub", "baseline")

    def benign(self, cluster):
        job = cluster.submit("alice", name="train", gpus_per_task=1,
                             duration=10.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        idx = job.allocations[0].gpu_indices[0]
        shell.sys.open_write(f"/dev/nvidia{idx}", SECRET)
        got = shell.sys.open_read(f"/dev/nvidia{idx}")
        assert SECRET in got, "owner cannot read back own GPU buffer"
        return "alice read back her own in-job GPU buffer"

    def malicious(self, cluster):
        job = cluster.submit("alice", name="train", gpus_per_task=1,
                             duration=10.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        idx = job.allocations[0].gpu_indices[0]
        shell.sys.open_write(f"/dev/nvidia{idx}", SECRET)
        cluster.run(until=20.0)  # job ends; epilog may scrub
        bjob = cluster.submit("bob", name="scrape", ntasks=4,
                              cores_per_task=16, gpus_per_task=1,
                              duration=10.0, at=21.0)
        cluster.run(until=22.0)
        bshell = cluster.job_session(bjob)
        try:
            # the enforced-path read of bob's own first GPU
            own_idx = bjob.allocations[0].gpu_indices[0]
            bshell.sys.open_read(f"/dev/nvidia{own_idx}")
            for alloc in bjob.allocations:
                node = cluster.compute(alloc.node)
                for gidx in alloc.gpu_indices:
                    if SECRET in bytes(node.gpu(gidx).read_at(0, 4096)):
                        return True, f"residue on {alloc.node} gpu{gidx}"
        except KernelError as e:
            return False, f"blocked: {e}"
        return False, "all reachable GPU memory scrubbed"


class GpuUnallocatedOpen(AttackModel):
    """Probe: open a GPU /dev file without holding the allocation."""

    name = "gpu-unallocated-open"
    area = "gpu"

    def malicious(self, cluster):
        job = cluster.submit("bob", name="cpu-only", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        return _try(shell.sys.open_read, "/dev/nvidia0")


class GpuCrashResidue(AttackModel):
    """A11: scrape GPUs of a node that crashed mid-job and rejoined."""

    id = "A11"
    name = "gpu-crash-residue"
    story = ("A victim's GPU job dies with the node (no epilog runs); the "
             "attacker grabs the node right after it rejoins, reading "
             "residue unless fence-and-remediate scrubbed it.")
    section = "IV-F"
    mechanism = "gpu"
    blocked_by = "fence + rejoin remediation scrub"
    invariant = "I5"
    flipped_by = ("no-gpu-scrub", "baseline")

    def _crash_recover(self, cluster):
        """Run the shared crash story; returns (crashed node, gpu index)."""
        attach_health(cluster, interval=1.0, down_after=2).start()
        chaos = cluster.chaos()
        job = cluster.submit("alice", name="train", gpus_per_task=1,
                             duration=60.0)
        cluster.run(until=0.5)
        node_name = job.nodes[0]
        shell = cluster.job_session(job)
        idx = job.allocations[0].gpu_indices[0]
        shell.sys.open_write(f"/dev/nvidia{idx}", SECRET)
        chaos.crash_node(node_name)
        cluster.run(until=5.0)   # detected + fenced; job NODE_FAILs
        chaos.reboot_node(node_name)
        cluster.run(until=10.0)  # rejoin (remediation scrubs under full)
        return node_name, idx

    def benign(self, cluster):
        self._crash_recover(cluster)
        job2 = cluster.submit("alice", name="retrain", gpus_per_task=1,
                              duration=5.0, at=11.0)
        cluster.run(until=20.0)
        assert job2.nodes, "service not restored after crash recovery"
        return "alice's replacement job ran after fence + rejoin"

    def malicious(self, cluster):
        node_name, idx = self._crash_recover(cluster)
        bjob = cluster.submit("bob", name="scrape", ntasks=4,
                              cores_per_task=16, gpus_per_task=1,
                              duration=10.0, at=11.0)
        cluster.run(until=12.0)
        if node_name not in bjob.nodes:
            return False, f"attacker never landed on {node_name}"
        residue = bytes(cluster.compute(node_name).gpu(idx).read_at(0, 4096))
        if SECRET in residue:
            return True, f"crash residue read from {node_name} gpu{idx}"
        return False, "rejoin remediation scrubbed the crashed node"


# --------------------------------------------------------------------------
# IV-G containers
# --------------------------------------------------------------------------

class ContainerSmaskEscape(AttackModel):
    """A12: drop world-readable files from inside a container."""

    id = "A12"
    name = "container-smask-evasion"
    area = "containers"
    story = ("A user creates world-readable files from inside a Singularity "
             "container, hoping the container's mount namespace dodges the "
             "File Permission Handler.")
    section = "IV-G"
    mechanism = "vfs"
    blocked_by = "smask passthrough into containers"
    invariant = "I3"
    flipped_by = ("no-fph", "open-homes", "baseline")

    def _container_sys(self, cluster):
        victim = cluster.login("alice")
        ws = cluster.add_workstation("alice")
        image = build_image(ws, victim.user, "env",
                            [ImageFile("/opt", is_dir=True)])
        container = cluster.singularity(victim.node.name).run(
            victim.process, image)
        return container.syscalls()

    def benign(self, cluster):
        csys = self._container_sys(cluster)
        csys.create("/tmp/private-scratch", mode=0o600, data=SECRET)
        got = csys.open_read("/tmp/private-scratch")
        assert got == SECRET, "container user cannot read own file"
        return "containerised alice works on her own files"

    def malicious(self, cluster):
        csys = self._container_sys(cluster)
        csys.umask(0o000)
        csys.create("/tmp/container-drop", mode=0o666, data=SECRET)
        try:
            csys.chmod("/tmp/container-drop", 0o666)
        except KernelError:
            pass
        attacker = _audited(cluster, cluster.login("bob"))
        try:
            got = attacker.open_read("/tmp/container-drop")
            return got == SECRET, "world bits survived the container"
        except KernelError as e:
            return False, f"blocked: {e}"


class ContainerBuildOnCluster(AttackModel):
    """Building an image on the cluster would require root: must fail."""

    name = "container-build-on-cluster"
    area = "containers"

    def malicious(self, cluster):
        attacker = cluster.login("bob")
        return _try(build_image, attacker.node, attacker.user, "evil", [])


# --------------------------------------------------------------------------
# cross-zone transfer
# --------------------------------------------------------------------------

class DtnExfiltration(AttackModel):
    """A13: pull a stranger's home file out through the DTN zone."""

    id = "A13"
    name = "dtn-transfer-exfiltration"
    story = ("The DTN zone has no pam_slurm gate (transfers are its job); "
             "an attacker sshes there and scp's a victim's home file out, "
             "betting filesystem posture is looser in the transfer zone.")
    section = "IV-B/IV-C"
    mechanism = "vfs"
    blocked_by = "root-owned 0770 homes (uniform across zones)"
    invariant = "I3"
    flipped_by = ("open-homes", "baseline")

    def benign(self, cluster):
        alice = cluster.login("alice")
        alice.sys.create("/home/alice/results.csv", mode=0o644, data=SECRET)
        res = scp(cluster, alice, "dtn1:/home/alice/results.csv",
                  "/home/alice/copy.csv")
        got = alice.sys.open_read("/home/alice/copy.csv")
        assert got == SECRET and res.bytes_moved == len(SECRET), \
            "owner transfer through the DTN failed"
        return "alice staged her own file out through dtn1"

    def malicious(self, cluster):
        victim = cluster.login("alice")
        victim.sys.create("/home/alice/results.csv", mode=0o644, data=SECRET)
        bob_dtn = _audited(cluster, cluster.ssh("bob", "dtn1"))
        try:
            bob_dtn.open_read("/home/alice/results.csv")
        except KernelError:
            pass  # the direct read is audited; now try the transfer path
        bob = cluster.login("bob")
        try:
            scp(cluster, bob, "dtn1:/home/alice/results.csv",
                "/home/bob/loot.csv")
            got = bob.sys.open_read("/home/bob/loot.csv")
            return got == SECRET, "victim file exfiltrated via DTN"
        except KernelError as e:
            return False, f"blocked: {e}"


#: The numbered catalog, id-ordered (A1..A14).
CATALOG: tuple[AttackModel, ...] = (
    ProcfsSnoop(), SshWithoutJob(), CoResidentPlacement(),
    SmaskWorldPublish(), AclForeignGrant(),
    UbfCrossUserConnect(), IdentSpoof(), RevokedMemberReplay(),
    PortalImpersonation(), GpuResidueScrape(), GpuCrashResidue(),
    ContainerSmaskEscape(), DtnExfiltration(), DegradedOutageSneak(),
)

#: The E14 battery, area-ordered.
ALL_ATTACKS: tuple[AttackModel, ...] = (
    PsSnoop(), ProcArgvSecret(), ProcUidEnumeration(),
    SqueueSnoop(), SqueueMetadata(), SacctUsage(), SshWithoutJob(),
    CoResidentPlacement(), SlurmStdoutSnoop(),
    ChmodWorldHome(), TmpWorldFile(), DevShmFile(), AclUserGrant(),
    ChgrpSharedGroup(), HomeWalk(), TmpFilenameEnum(), SmaskWorldPublish(),
    TmpSymlinkRedirect(), TmpHardlinkPin(), ProjectGroupShare(),
    UbfCrossUserConnect(), UdpCrossUser(), PortSquat(), AbstractUds(),
    RdmaCmBypass(), RdmaTcpControlled(),
    PortalUnauthenticated(), PortalImpersonation(), PortalTokenArgvHarvest(),
    GpuResidueScrape(), GpuUnallocatedOpen(),
    ContainerSmaskEscape(), ContainerBuildOnCluster(),
)


def by_id(attack_id: str) -> AttackModel:
    """Resolve ``A7``-style ids (case-insensitive), with a helpful error."""
    wanted = attack_id.strip().upper()
    for attack in CATALOG:
        if attack.id == wanted:
            return attack
    known = ", ".join(a.id for a in CATALOG)
    raise KeyError(f"unknown attack {attack_id!r} (known: {known})")
