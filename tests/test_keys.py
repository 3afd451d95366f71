import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from vet.errors import ValidationError
from vet.keys import SigningKey, parse_public_key, verify_signature


def test_from_seed_deterministic():
    a = SigningKey.from_seed("same seed")
    b = SigningKey.from_seed(b"same seed")
    assert a.public_string == b.public_string
    assert a.public_string.startswith("ed25519:")
    assert SigningKey.from_seed("other").public_string != a.public_string


def test_sign_verify_round_trip():
    key = SigningKey.from_seed("sig")
    message = b"hello proofs"
    signature = key.sign(message)
    assert verify_signature(key.public_string, message, signature)
    assert not verify_signature(key.public_string, b"hello proofs!", signature)
    assert not verify_signature(
        SigningKey.from_seed("other").public_string, message, signature
    )
    assert not verify_signature(key.public_string, message, "00" * 64)
    assert not verify_signature(key.public_string, message, "not-hex")


def test_signature_checks_under_library_oracle():
    # Verify with the cryptography library directly, bypassing our wrapper.
    key = SigningKey.from_seed("oracle")
    message = b"oracle message"
    signature = bytes.fromhex(key.sign(message))
    raw = bytes.fromhex(key.public_string[len("ed25519:"):])
    Ed25519PublicKey.from_public_bytes(raw).verify(signature, message)


def test_private_hex_round_trip():
    key = SigningKey.from_seed("round")
    clone = SigningKey.from_private_hex(key.private_hex())
    assert clone.public_string == key.public_string
    message = b"m"
    assert verify_signature(key.public_string, message, clone.sign(message))


def test_generate_gives_distinct_keys():
    assert SigningKey.generate().public_string != SigningKey.generate().public_string


@pytest.mark.parametrize(
    "bad",
    ["rsa:" + "a" * 64, "ed25519:zz", "ed25519:" + "a" * 62, "", None],
)
def test_parse_public_key_rejects(bad):
    with pytest.raises(ValidationError):
        parse_public_key(bad)
