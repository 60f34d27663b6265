"""Structural gate: optional planes reach enforcement points one way only.

Every enforcement object reports its decisions to one ``observers``
container (:mod:`repro.observer`); the security-event log, telemetry, the
forensic plane, the oracle and the journal are observers on it.  This
stdlib-``ast`` gate (the same approach as ``test_docstring_coverage.py``)
keeps it that way: none of the eleven enforcement classes (the observed
syscall façade among them) may declare or assign a per-plane hook field
again, nor keep a private per-decision ``log`` beside its observers, each
must declare ``observers``, no module may mark a hook with a ``_wrapped``
flag (the idiom closures that wrap an enforcement hook need to avoid
wrapping it twice), no module may loop over every observer calling a
method of each: a decision goes only to the observers that override it
(``for f in self.observers.job_finished: f(job, state)``), and no module
may single out ``spawn_child`` by name to re-wrap a child's façade.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: module (relative to src/repro) -> its enforcement class
ENFORCEMENT = {
    "sched/scheduler.py": "Scheduler",
    "sched/health.py": "HealthMonitor",
    "kernel/users.py": "UserDB",
    "kernel/procfs.py": "ProcFS",
    "kernel/vfs.py": "VFS",
    "kernel/pam.py": "PamStack",
    "gpu/device.py": "GPUDevice",
    "net/ubf.py": "UBFDaemon",
    "portal/gateway.py": "Portal",
    "faults/injector.py": "FaultInjector",
    "kernel/syscalls.py": "ObservedSyscalls",
}

PLANE_FIELDS = {"tracer", "oracle", "audit", "events", "event_log",
                "journal", "attribution", "deny_hook", "on_finish",
                "on_inject", "log"}


def declared_fields(cls: ast.ClassDef) -> set[str]:
    """Names the class declares (class-level fields and methods or
    properties) or assigns on ``self`` anywhere in its body."""
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets
                         if isinstance(t, ast.Name))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return names


def enforcement_classes():
    for rel, name in ENFORCEMENT.items():
        tree = ast.parse((SRC / rel).read_text())
        (cls,) = [n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == name]
        yield rel, cls


def test_enforcement_classes_have_only_the_observer_seam():
    offenders = []
    for rel, cls in enforcement_classes():
        fields = declared_fields(cls)
        for name in sorted(fields & PLANE_FIELDS):
            offenders.append(f"{rel}: {cls.name}.{name}")
        if "observers" not in fields:
            offenders.append(f"{rel}: {cls.name} lacks `observers`")
    assert not offenders, "\n".join(offenders)


def wrapped_flags(tree: ast.Module) -> list[int]:
    """Lines setting an attribute whose name carries ``_wrapped``, by
    assignment or by ``setattr`` with a literal or module-constant name."""
    consts = {t.id: n.value.value for n in tree.body
              if isinstance(n, ast.Assign)
              and isinstance(n.value, ast.Constant)
              and isinstance(n.value.value, str)
              for t in n.targets if isinstance(t, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and "_wrapped" in node.attr:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2):
            arg = node.args[1]
            name = arg.value if isinstance(arg, ast.Constant) \
                else consts.get(getattr(arg, "id", None), "")
            if isinstance(name, str) and "_wrapped" in name:
                lines.append(node.lineno)
    return lines


def test_no_module_sets_a_wrapped_flag():
    offenders = [f"{path.relative_to(SRC.parent)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line in wrapped_flags(ast.parse(path.read_text()))]
    assert not offenders, "\n".join(offenders)


def all_observer_loops(tree: ast.Module) -> list[int]:
    """Lines of loops over a whole ``observers`` container (``for o in
    self.observers:``) that call a method of each element, no-op or not."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and any(isinstance(n, ast.Attribute) and n.attr == "observers"
                        for n in ast.walk(node.iter))):
            continue
        var = node.target.id
        if any(isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute)
               and isinstance(n.func.value, ast.Name)
               and n.func.value.id == var
               for stmt in node.body for n in ast.walk(stmt)):
            lines.append(node.lineno)
    return lines


def test_decisions_reach_only_their_overriders():
    offenders = [f"{path.relative_to(SRC.parent)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line in all_observer_loops(ast.parse(path.read_text()))]
    assert not offenders, "\n".join(offenders)


def test_no_module_special_cases_spawn_child():
    """A child's façade is its parent's rebound to the child
    (``SyscallInterface.spawn_child``): no wrapper compares a method name
    with ``"spawn_child"`` to wrap the child again by hand."""
    offenders = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant)
                 and node.value == "spawn_child"]
    assert not offenders, "\n".join(offenders)
