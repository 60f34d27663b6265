"""GPU devices with *persistent* memory — the Section IV-F hazard.

"Accelerators, and specifically GPUs, do not use a traditional security
model for data resident in memory.  They have no concept of data ownership
or data segmenting within the GPU. ... GPUs do not clear their memory before
reassignment to another job/user ... the data of the previous user's job
will remain in GPU memory and registers."

:class:`GPUDevice` is the payload behind ``/dev/nvidiaN`` character files
(access control happens in the VFS, on the file's permission bits — *not*
here, because the real device has none).  Memory is a numpy byte array that
survives job boundaries; only an explicit :meth:`scrub` (the vendor-provided
steps the LLSC epilog runs) clears it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.observer import Observers, as_observers


@dataclass
class GPUDevice:
    """One accelerator: device memory + registers, no ownership model."""

    index: int
    mem_bytes: int = 65536
    memory: np.ndarray = field(init=False)
    registers: np.ndarray = field(init=False)
    last_user_uid: int | None = None
    scrub_count: int = 0
    #: name of the node the device is installed in
    host: str = ""
    #: optional planes (repro.observer) told of reads and refused opens
    observers: Observers = field(default_factory=Observers, repr=False,
                            compare=False)

    def __post_init__(self):
        self.observers = as_observers(self.observers)
        self.memory = np.zeros(self.mem_bytes, dtype=np.uint8)
        self.registers = np.zeros(64, dtype=np.uint64)

    # -- the /dev character-file interface (called by the VFS after DAC) ----

    def dev_write(self, creds, data: bytes) -> int:
        """Write at offset 0 (a compute kernel leaving results in memory)."""
        a = np.frombuffer(data, dtype=np.uint8)
        n = min(a.size, self.memory.size)
        self.memory[:n] = a[:n]
        self.registers[0] = n
        self.last_user_uid = creds.uid
        return int(n)

    def dev_read(self, creds) -> bytes:
        """Map device memory: returns whatever is resident — including a
        previous user's data if nobody scrubbed."""
        for f in self.observers.gpu_read:
            f(self, creds)
        return self.memory.tobytes()

    def on_access_denied(self, creds, path: str) -> None:
        """VFS callback: DAC refused an open of this device's /dev file.

        Purely observational — the refusal has already been decided; this
        only forwards it to the observers.
        """
        for f in self.observers.gpu_denied:
            f(self, creds, path)

    # -- direct (driver-level) operations ------------------------------------

    def read_at(self, offset: int, size: int) -> bytes:
        return self.memory[offset:offset + size].tobytes()

    @property
    def dirty(self) -> bool:
        """Any non-zero residue in memory or registers?"""
        return bool(self.memory.any() or self.registers.any())

    def scrub(self) -> None:
        """The vendor-provided clearing steps (run by the scheduler epilog)."""
        self.memory[:] = 0
        self.registers[:] = 0
        self.scrub_count += 1

    def forensic_summary(self) -> dict:
        """JSON-ready residue facts for a flight-recorder dump.

        Captures ownership and dirtiness *without* the memory contents —
        a dump must never itself leak the previous tenant's data.
        """
        return {
            "gpu": self.index,
            "dirty": self.dirty,
            "last_user_uid": self.last_user_uid,
            "scrub_count": self.scrub_count,
            "resident_bytes": int(np.count_nonzero(self.memory)),
        }
