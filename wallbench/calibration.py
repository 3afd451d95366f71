"""Host-speed calibration: CPU time expressed at the host's full speed.

The virtual machine this benchmark was built on runs the same Python
code in two speed modes, about 1.3 to 1.9 times apart, in episodes of a
few seconds to tens of seconds, set by load outside the machine. Raw
wall-clock medians of 20-second runs then move by 20 to 40 per cent
from run to run, depending on the share of time spent in the slow mode.

A fixed loop of Python arithmetic, SHA-256, Ed25519, dict inserts,
JSON encoding and large copies, independent of ``vet``, slows by about
the same factor as the operations. So each operation's CPU time is multiplied by
``FULL_SPEED_S / c``, where ``c`` is the loop's wall time measured right
before and right after the operation. The time an operation waits (its
wall time minus the CPU time of this process) is not scaled: a network
wait does not change with CPU speed.
"""

from __future__ import annotations

import hashlib
import json
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The loop's wall time when the host runs at full speed: the 5th
# percentile over a minute of runs on an Intel Xeon 2.1 GHz, 2-vCPU
# virtual machine with Python 3.11.7.
FULL_SPEED_S = 2.67e-3

_SIGNER = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_VERIFIER = _SIGNER.public_key()
_DOC = {f"k{i}": ["v" * 20, str(i), {"x": "y" * 10}] for i in range(40)}
# Shaped like a proof's disclosed chunks: the part of the loop that
# allocates and copies a hundred kilobytes or so, as encoding proofs does.
_CHUNKS = [
    {"index": str(i), "salt": "ab" * 16, "data": "cd" * 16, "path": ["ef" * 32] * 4}
    for i in range(150)
]


def loop() -> int:
    """Python arithmetic, SHA-256, Ed25519, dicts, JSON and large copies."""
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    digest = b""
    for _ in range(400):
        digest = hashlib.sha256(digest + b"x" * 48).digest()
    for i in range(2):
        message = b"calibration %d" % i
        _VERIFIER.verify(_SIGNER.sign(message), message)
    table = {}
    for i in range(1500):
        table[i] = bytes([i & 255]) * 4
    for _ in range(3):
        acc ^= len(json.dumps(_DOC, sort_keys=True, separators=(",", ":")))
    text = json.dumps({"chunks": _CHUNKS}, sort_keys=True, separators=(",", ":"))
    raw = bytes.fromhex(text.encode().hex())
    copied = b"".join(raw[i:i + 16] for i in range(0, len(raw), 16))
    return acc ^ digest[0] ^ len(table) ^ len(copied)


def measure() -> float:
    """The loop's wall time now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def at_full_speed(wall: float, cpu: float, loop_s: float) -> float:
    """``wall`` seconds with the ``cpu`` seconds in it rescaled to full speed."""
    cpu = min(cpu, wall)
    return (wall - cpu) + cpu * FULL_SPEED_S / loop_s
