"""A miniature PAM (pluggable authentication modules) stack.

Two paper mechanisms live here:

* **pam_slurm** (Section IV-B): "we have also configured pam_slurm so that
  users can only ssh into compute nodes on which they have one or more jobs
  currently executing."  The account-phase module consults a *job presence*
  callback provided by the scheduler.

* **pam_smask** (Section IV-C / appendix): the File Permission Handler ships
  a PAM module that installs the security mask into every new session's
  credentials, so the smask is in force before the user's first process runs.

A :class:`PamStack` is a list of modules; ``open_session`` runs all account
checks (any failure denies the login) and then lets session modules
transform the credentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.kernel.errors import AccessDenied
from repro.kernel.users import Credentials, User
from repro.observer import Observers, as_observers


class PamModule(Protocol):
    """One PAM module: an account predicate and/or a session transform."""

    name: str

    def account(self, user: User, node_name: str) -> None:
        """Raise :class:`AccessDenied` to deny the login."""

    def session(self, user: User, node_name: str,
                creds: Credentials) -> Credentials:
        """Return (possibly transformed) session credentials."""


@dataclass
class PamUnix:
    """Stock pam_unix: everyone with an account may log in."""

    name: str = "pam_unix"

    def account(self, user: User, node_name: str) -> None:
        return None

    def session(self, user: User, node_name: str,
                creds: Credentials) -> Credentials:
        return creds


@dataclass
class PamSlurm:
    """pam_slurm: deny ssh to compute nodes without a running job there.

    ``has_job_on`` is supplied by the scheduler
    (:meth:`repro.sched.scheduler.Scheduler.user_has_job_on`).  Root and
    login/service nodes (``exempt_nodes``) are always allowed.
    """

    has_job_on: Callable[[int, str], bool]
    exempt_nodes: frozenset[str] = frozenset()
    name: str = "pam_slurm"

    def account(self, user: User, node_name: str) -> None:
        if user.is_root or node_name in self.exempt_nodes:
            return
        if not self.has_job_on(user.uid, node_name):
            raise AccessDenied(
                f"pam_slurm: {user.name} has no running job on {node_name}"
            )

    def session(self, user: User, node_name: str,
                creds: Credentials) -> Credentials:
        return creds


@dataclass
class PamSmask:
    """The File Permission Handler's PAM module: installs the smask."""

    smask: int = 0o007
    name: str = "pam_smask"

    def account(self, user: User, node_name: str) -> None:
        return None

    def session(self, user: User, node_name: str,
                creds: Credentials) -> Credentials:
        if creds.is_root:
            return creds
        return creds.with_smask(self.smask)


@dataclass
class PamStack:
    """Ordered module list evaluated at every login / job launch."""

    modules: list[PamModule] = field(default_factory=lambda: [PamUnix()])
    #: optional planes (repro.observer) told every verdict
    observers: Observers = field(default_factory=Observers, repr=False)

    def __post_init__(self):
        self.observers = as_observers(self.observers)

    def open_session(self, user: User, node_name: str,
                     base_creds: Credentials) -> Credentials:
        """Run account checks then session transforms.

        Raises :class:`AccessDenied` (from a module) on denial; otherwise
        returns the final session credentials.
        """
        for mod in self.modules:
            try:
                mod.account(user, node_name)
            except AccessDenied:
                for f in self.observers.pam_session:
                    f(user, node_name, mod)
                raise
        creds = base_creds
        for mod in self.modules:
            creds = mod.session(user, node_name, creds)
        for f in self.observers.pam_session:
            f(user, node_name, None)
        return creds
