"""repro.oracle — always-on separation-invariant checking.

The correctness counterpart to the observability spine: a declarative
catalog of paper-derived invariants (:mod:`repro.oracle.invariants`),
a sampling online checker with a naive-reference shadow mode
(:mod:`repro.oracle.oracle`), and one-call cluster wiring
(:mod:`repro.oracle.hooks`).  ``REPRO_ORACLE=1`` in the environment makes
:meth:`repro.core.cluster.Cluster.build` attach it fail-fast at full
sampling — how CI proves the whole tier-1 suite and the E23/E24 smoke
points make zero violating decisions.
"""

from repro.oracle.hooks import attach_oracle  # noqa: F401
from repro.oracle.invariants import BY_ID, CATALOG, Invariant  # noqa: F401
from repro.oracle.oracle import (  # noqa: F401
    DEFAULT_SEED,
    SeparationOracle,
    SeparationViolation,
    Violation,
    reference_ubf_verdict,
)

__all__ = [
    "BY_ID", "CATALOG", "DEFAULT_SEED", "Invariant", "SeparationOracle",
    "SeparationViolation", "Violation", "attach_oracle",
    "reference_ubf_verdict",
]
