"""Ed25519 signing keys with algorithm-prefixed string encoding.

Key strings look like "ed25519:<64 hex chars>" so that a document carrying
a key also pins the algorithm; verification never consults out-of-band
configuration to decide how to check a signature. Ed25519 signatures are
deterministic, which keeps proof bundles byte-stable under a fixed seed.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .canonical import parse_hex
from .errors import ValidationError

ED25519_PREFIX = "ed25519:"


class SigningKey:
    """An Ed25519 private key plus its prefixed public string."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private
        pub = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        self.public_string = ED25519_PREFIX + pub.hex()

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "SigningKey":
        """Derive a key deterministically from a seed (tests and demos)."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        raw = hashlib.sha256(b"VET/key-seed:" + seed).digest()
        return cls(Ed25519PrivateKey.from_private_bytes(raw))

    @classmethod
    def from_private_hex(cls, hexstr: str) -> "SigningKey":
        return cls(Ed25519PrivateKey.from_private_bytes(bytes.fromhex(hexstr)))

    def private_hex(self) -> str:
        from cryptography.hazmat.primitives.serialization import (
            NoEncryption,
            PrivateFormat,
        )

        raw = self._private.private_bytes(
            Encoding.Raw, PrivateFormat.Raw, NoEncryption()
        )
        return raw.hex()

    def sign(self, message: bytes) -> str:
        """Sign and return the signature as lowercase hex."""
        return self._private.sign(message).hex()


def parse_public_key(key_string: str) -> Ed25519PublicKey:
    """Parse an "ed25519:<hex>" string into a public key object."""
    if not isinstance(key_string, str) or not key_string.startswith(ED25519_PREFIX):
        raise ValidationError(f"unsupported key string {key_string!r}")
    raw = parse_hex(key_string[len(ED25519_PREFIX):], "key string")
    if len(raw) != 32:
        raise ValidationError(f"key string {key_string!r} has wrong length")
    return Ed25519PublicKey.from_public_bytes(raw)


def verify_signature(key_string: str, message: bytes, signature_hex: str) -> bool:
    """True iff the hex signature verifies under the prefixed key string."""
    try:
        parse_public_key(key_string).verify(parse_hex(signature_hex, "signature"), message)
        return True
    except (InvalidSignature, ValidationError):
        return False
