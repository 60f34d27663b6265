"""Application-level secured MPI — the paper's "Option 1" baseline.

Section III's Option 1 is "make the code better": push security into the
applications and frameworks.  Section IV-D cites the concrete instance for
networking: "an effort to encrypt all MPI traffic" (MPISec, ref [33]) whose
trade-offs motivated the system-level UBF instead.

:class:`EncryptedChannel` wraps a simulated TCP connection with a real
(toy-grade but genuinely executed) authenticated stream cipher: a
keystream derived from BLAKE2b in counter mode, XORed over the payload with
numpy, plus a keyed BLAKE2b MAC per message.  Every byte of every message
pays the cipher+MAC cost — the defining property of Option 1 — whereas the
UBF's cost is per *connection* (Option 2).  Experiment E18 compares the two
cost structures and their coverage.

This is NOT cryptographically secure (single static key, no nonce
management, toy keystream) — it exists to execute the Option-1 *code path*
and expose its cost/coverage shape, per the DESIGN.md substitution rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.kernel.errors import InvalidArgument
from repro.net.stack import ConnectionEnd

MAC_LEN = 16
#: Modelled per-byte cost of AES-GCM-class processing without hardware
#: offload on the message path (µs/KB), as measured in studies like
#: Naser et al. [23]; :func:`option1_exchange_cost_us` prices E18's series
#: with it.
CRYPTO_US_PER_KB = 0.9
#: Fixed per-message cost (key schedule amortised, MAC finalisation).
CRYPTO_US_PER_MSG = 0.4


@dataclass
class CryptoStats:
    """Counters for encrypted traffic through a channel."""

    messages: int = 0
    bytes_processed: int = 0
    mac_failures: int = 0


def _keystream(key: bytes, counter: int, n: int) -> np.ndarray:
    """Deterministic keystream: BLAKE2b(key || counter-block) expanded."""
    out = np.empty(n, dtype=np.uint8)
    filled = 0
    block = 0
    while filled < n:
        digest = hashlib.blake2b(
            counter.to_bytes(8, "big") + block.to_bytes(8, "big"),
            key=key, digest_size=64).digest()
        take = min(64, n - filled)
        out[filled:filled + take] = np.frombuffer(digest[:take],
                                                  dtype=np.uint8)
        filled += take
        block += 1
    return out


class EncryptedChannel:
    """Authenticated-encryption wrapper over one connection end.

    Both sides must share *key*.  ``send`` seals (encrypt-then-MAC);
    ``recv`` opens and raises on MAC failure.  All byte-twiddling is
    vectorised numpy per the HPC guide.
    """

    def __init__(self, end: ConnectionEnd, key: bytes,
                 stats: CryptoStats | None = None):
        if len(key) < 16:
            raise InvalidArgument("key must be at least 16 bytes")
        self.end = end
        self.key = key
        self.stats = stats or CryptoStats()
        self._send_ctr = 0
        self._recv_ctr = 0

    def _mac(self, counter: int, ciphertext: bytes) -> bytes:
        return hashlib.blake2b(
            counter.to_bytes(8, "big") + ciphertext,
            key=self.key, digest_size=MAC_LEN).digest()

    def send(self, data: bytes) -> int:
        plain = np.frombuffer(data, dtype=np.uint8)
        ks = _keystream(self.key, self._send_ctr, plain.size)
        cipher = (plain ^ ks).tobytes()
        mac = self._mac(self._send_ctr, cipher)
        self._send_ctr += 1
        self.stats.messages += 1
        self.stats.bytes_processed += len(data)
        return self.end.send(mac + cipher)

    def recv(self) -> bytes:
        frame = self.end.recv()
        if frame == b"":
            return b""
        mac, cipher = frame[:MAC_LEN], frame[MAC_LEN:]
        if self._mac(self._recv_ctr, cipher) != mac:
            self.stats.mac_failures += 1
            raise InvalidArgument("message authentication failed")
        ks = _keystream(self.key, self._recv_ctr, len(cipher))
        self._recv_ctr += 1
        self.stats.messages += 1
        self.stats.bytes_processed += len(cipher)
        plain = np.frombuffer(cipher, dtype=np.uint8) ^ ks
        return plain.tobytes()


def option1_exchange_cost_us(n_messages: int, message_bytes: int) -> float:
    """Modelled Option-1 security cost for an MPI exchange: every message
    pays cipher+MAC on both ends."""
    per_msg = (message_bytes / 1024.0) * CRYPTO_US_PER_KB + CRYPTO_US_PER_MSG
    return 2.0 * n_messages * per_msg  # sender + receiver


def option2_exchange_cost_us(n_connections: int,
                             ubf_setup_us: float = 155.0,
                             per_packet_us: float = 0.3,
                             n_messages: int = 0) -> float:
    """Modelled Option-2 (UBF) security cost: per-connection setup plus
    the conntrack fast-path lookups."""
    return n_connections * ubf_setup_us + n_messages * per_packet_us
