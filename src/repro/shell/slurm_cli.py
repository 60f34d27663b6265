"""sbatch/scancel/scontrol: the command-line face of the scheduler.

Users interact with Slurm through option strings, and several of the
paper's controls surface exactly there: PrivateData turns ``scontrol show
job`` for someone else's job into "Invalid job id" (not "permission
denied" — existence itself is hidden), partitions enforce their time
limits at submit, and ``scancel`` of a foreign job is refused.

Supported sbatch options (the common subset)::

    -J/--job-name NAME      -n/--ntasks N         -c/--cpus-per-task N
    -p/--partition NAME     --mem-per-cpu SIZE    --gres=gpu:N
    -t/--time SPEC          --exclusive           --array=SPEC
    COMMAND [ARGS...]       (the remainder)

Time specs: ``MM``, ``MM:SS``, ``HH:MM:SS``, ``D-HH:MM:SS``.  Memory
sizes: ``500``/``500M``/``2G``.  Array specs: ``0-4``, ``1,3,7``,
``0-9%2`` (throttle parsed and ignored, as documented).
"""

from __future__ import annotations

import re
import shlex

from repro.core.cluster import Session
from repro.kernel.errors import InvalidArgument, PermissionError_
from repro.sched.jobs import Job, JobSpec


def parse_time(spec: str) -> float:
    """Slurm time spec → seconds."""
    m = re.fullmatch(r"(?:(\d+)-)?(?:(\d+):)?(?:(\d+):)?(\d+)", spec)
    if not m:
        raise InvalidArgument(f"bad time spec {spec!r}")
    days, a, b, c = m.groups()
    tail = int(c)
    if days is not None:
        # D-HH[:MM[:SS]]
        hh = int(a) if a else 0
        mm = int(b) if b else 0
        ss = tail if (a and b) else 0
        if a and not b:
            mm, ss = tail, 0
        if not a:
            hh, mm, ss = tail, 0, 0
        return float(int(days) * 86400 + hh * 3600 + mm * 60 + ss)
    if a and b:          # HH:MM:SS
        return float(int(a) * 3600 + int(b) * 60 + tail)
    if a:                # MM:SS
        return float(int(a) * 60 + tail)
    return float(tail * 60)  # plain minutes


def parse_mem(spec: str) -> int:
    """``500``/``500M``/``2G`` → MB."""
    m = re.fullmatch(r"(\d+)([MmGg]?)", spec)
    if not m:
        raise InvalidArgument(f"bad memory spec {spec!r}")
    n, unit = int(m.group(1)), m.group(2).upper()
    return n * 1024 if unit == "G" else n


def parse_array(spec: str) -> list[int]:
    """``0-4`` / ``1,3,7`` / ``0-9%2`` → indices (throttle ignored)."""
    spec = spec.split("%", 1)[0]
    out: list[int] = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            if int(hi) < int(lo):
                raise InvalidArgument(f"bad array range {part!r}")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise InvalidArgument(f"empty array spec {spec!r}")
    return out


def _parse_sbatch(argv: list[str]) -> tuple[dict, list[int] | None, float]:
    kw: dict = {}
    array: list[int] | None = None
    duration = 3600.0
    i = 0

    def val(flag: str) -> str:
        nonlocal i
        i += 1
        if i >= len(argv):
            raise InvalidArgument(f"{flag} needs a value")
        return argv[i]

    while i < len(argv):
        arg = argv[i]
        if arg in ("-J", "--job-name"):
            kw["name"] = val(arg)
        elif arg.startswith("--job-name="):
            kw["name"] = arg.split("=", 1)[1]
        elif arg in ("-n", "--ntasks"):
            kw["ntasks"] = int(val(arg))
        elif arg.startswith("--ntasks="):
            kw["ntasks"] = int(arg.split("=", 1)[1])
        elif arg in ("-c", "--cpus-per-task"):
            kw["cores_per_task"] = int(val(arg))
        elif arg.startswith("--cpus-per-task="):
            kw["cores_per_task"] = int(arg.split("=", 1)[1])
        elif arg in ("-p", "--partition"):
            kw["partition"] = val(arg)
        elif arg.startswith("--partition="):
            kw["partition"] = arg.split("=", 1)[1]
        elif arg.startswith("--mem-per-cpu"):
            spec = arg.split("=", 1)[1] if "=" in arg else val(arg)
            kw["mem_mb_per_task"] = parse_mem(spec)
        elif arg.startswith("--gres=gpu:"):
            kw["gpus_per_task"] = int(arg.split(":", 1)[1])
        elif arg in ("-t", "--time"):
            duration = parse_time(val(arg))
        elif arg.startswith("--time="):
            duration = parse_time(arg.split("=", 1)[1])
        elif arg == "--exclusive":
            kw["exclusive"] = True
        elif arg.startswith("--array="):
            array = parse_array(arg.split("=", 1)[1])
        elif arg.startswith("-"):
            raise InvalidArgument(f"unsupported sbatch option {arg!r}")
        else:
            kw["command"] = " ".join(argv[i:])
            break
        i += 1
    return kw, array, duration


def sbatch(session: Session, cmdline: str) -> tuple[str, list[Job]]:
    """Run an ``sbatch`` line for the session's user.

    Returns (output text, submitted jobs).  Array submissions return one
    job per element, like real Slurm.
    """
    kw, array, duration = _parse_sbatch(shlex.split(cmdline))
    cluster = session.cluster
    kw.setdefault("name", "sbatch")
    kw.setdefault("command", "./run.sh")
    spec = JobSpec(user=session.user, workdir=f"/home/{session.user.name}",
                   **kw)
    if array is None:
        job = cluster.scheduler.submit(spec, duration)
        return f"Submitted batch job {job.job_id}", [job]
    jobs = cluster.scheduler.submit_array(spec, [duration] * len(array))
    for job, idx in zip(jobs, array):
        job.array_index = idx
    return (f"Submitted batch job {jobs[0].array_id} "
            f"(array of {len(jobs)})"), jobs


def scancel(session: Session, job_id: int) -> str:
    """``scancel <id>``: owner or root; PrivateData hides foreign ids."""
    cluster = session.cluster
    job = cluster.scheduler.jobs.get(job_id)
    view = cluster.scheduler_view
    if job is None or (view.private.jobs
                       and not view._privileged(session.user)
                       and job.uid != session.user.uid):
        return f"scancel: error: Invalid job id {job_id}"
    try:
        cluster.scheduler.cancel(job, by=session.user)
    except PermissionError_:
        return (f"scancel: error: Kill job error on job id {job_id}: "
                "Access/permission denied")
    return ""


def scontrol_show_node(session: Session, node_name: str) -> str:
    """``scontrol show node`` — capacity/occupancy state (public shape
    data; which *user* holds the node is not revealed to non-operators
    under PrivateData)."""
    cluster = session.cluster
    try:
        cn = cluster.scheduler.nodes[node_name]
    except KeyError:
        return f"Node {node_name} not found"
    if cn.failed:
        state = "DOWN"
    elif cn.drained:
        state = "DRAIN"
    elif cn.idle:
        state = "IDLE"
    elif cn.free_cores == 0:
        state = "ALLOCATED"
    else:
        state = "MIXED"
    lines = [
        f"NodeName={cn.name} State={state}",
        f"   CPUTot={cn.total_cores} CPUAlloc={cn.used_cores}",
        f"   RealMemory={cn.total_mem_mb} AllocMem={cn.used_mem_mb}",
        f"   Gres=gpu:{len(cn.gpus)}"
        f" GresUsed=gpu:{len(cn.used_gpu_indices)}",
    ]
    view = cluster.scheduler_view
    if view._privileged(session.user) or not view.private.jobs:
        uids = cn.running_uids()
        users = ",".join(sorted(cluster.userdb.user(u).name for u in uids))
        lines.append(f"   AllocUsers={users or '(none)'}")
    return "\n".join(lines)


def scontrol_show_job(session: Session, job_id: int) -> str:
    """``scontrol show job <id>`` — PrivateData-gated existence."""
    cluster = session.cluster
    job = cluster.scheduler.jobs.get(job_id)
    view = cluster.scheduler_view
    if job is None or (view.private.jobs
                       and not view._privileged(session.user)
                       and job.uid != session.user.uid):
        return f"slurm_load_jobs error: Invalid job id specified ({job_id})"
    lines = [
        f"JobId={job.job_id} JobName={job.spec.name}",
        f"   UserId={job.spec.user.name}({job.uid})"
        f" Partition={job.spec.partition}",
        f"   JobState={job.state.name} Reason={job.reason or 'None'}",
        f"   NumTasks={job.spec.ntasks}"
        f" CPUs/Task={job.spec.cores_per_task}"
        f" MinMemoryCPU={job.spec.mem_mb_per_task}M",
        f"   NodeList={','.join(job.nodes) or '(null)'}",
        f"   Command={job.spec.command}",
        f"   WorkDir={job.spec.workdir}",
        f"   StdOut={job.stdout_path}",
    ]
    if job.array_id is not None:
        lines.insert(1, f"   ArrayJobId={job.array_id}"
                        f" ArrayTaskId={job.array_index}")
    return "\n".join(lines)
