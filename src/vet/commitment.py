"""The salted commitment under which a web proof discloses its response whole.

The committer cuts the transcript into chunks of lengths it chooses, each
at least one byte long; a web-proof prover cuts at its TLS record
boundaries, so one record is one chunk. Each chunk gets an independent
16-byte salt, and chunk ``i`` has the leaf
``H("VET/leaf:" || salt_i || chunk_i)``. The root hashes the chunk
count, every chunk length and every leaf, counts and lengths as 8-byte
big-endian integers:
``H("VET/root:" || n || len_0 .. len_{n-1} || leaf_0 .. leaf_{n-1})``.
The commitment is the root and the total length. The chunk lengths do
not ship with it: the verifier brings its own, which for a web proof
are the non-zero lengths of its down records, and they must sum to the
total.

A disclosure reveals the whole transcript: one run that carries every
salt and every byte, with no hidden leaf, and no run for an empty
transcript. The serialized run still has a path of hidden leaves, and
it must be empty. Any other shape is refused: another number of runs is
a ``chunk-range-inconsistency``, chunk lengths of another sum or salts
or bytes of the wrong length a ``length-mismatch``, and a hidden leaf or
a root that does not match a ``bad-path``.

``verify_disclosure`` recomputes every leaf and the root from the
chunk lengths, so short of a SHA-256 collision the bytes it returns
are the committed ones, cut as they were committed. The commitment is
not what binds a response to its session: nothing signs its root, and
the prover commits after the session has closed. What binds the
response is the tag of each down record under its released key, which
the notary's chain head signs (``vet.webproof`` gives that argument).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .canonical import json_field, parse_hex, refuse_unread
from .errors import Rejected, ValidationError

SALT_LEN = 16

_LEAF = b"VET/leaf:"
_ROOT = b"VET/root:"


def leaf_hash(salt: bytes, chunk: bytes) -> bytes:
    return hashlib.sha256(_LEAF + salt + chunk).digest()


def _root(chunk_lengths, salts: bytes, data: bytes) -> bytes:
    """The root over the chunk lengths and the leaves of ``data`` cut at
    them, chunk ``i`` salted with the ``i``-th SALT_LEN bytes of ``salts``."""
    parts = [_ROOT, len(chunk_lengths).to_bytes(8, "big")]
    parts += [n.to_bytes(8, "big") for n in chunk_lengths]
    offset = 0
    for i, n in enumerate(chunk_lengths):
        parts.append(leaf_hash(salts[i * SALT_LEN:(i + 1) * SALT_LEN], data[offset:offset + n]))
        offset += n
    return hashlib.sha256(b"".join(parts)).digest()


@dataclass(frozen=True)
class TranscriptCommitment:
    """The root and total length; the chunk lengths are the verifier's own."""

    root: bytes
    total_length: int

    def to_obj(self) -> dict:
        return {"root": self.root.hex(), "total_length": str(self.total_length)}

    @classmethod
    def from_obj(cls, obj: dict) -> "TranscriptCommitment":
        commitment = cls(
            root=json_field(obj, "root", bytes), total_length=json_field(obj, "total_length", int)
        )
        refuse_unread(obj, ("root", "total_length"), "a commitment")
        return commitment


@dataclass(frozen=True)
class Opening:
    """Prover-held witness: the plaintext and the salt of each chunk."""

    plaintext: bytes
    salts: tuple[bytes, ...]


@dataclass(frozen=True)
class RevealedRun:
    """Revealed chunks from chunk 0 on, with their salts and bytes
    concatenated; ``path`` would hold the leaves of hidden chunks, and a
    whole disclosure has none."""

    salt: bytes
    data: bytes
    path: tuple[bytes, ...]

    def to_obj(self) -> dict:
        return {
            "salt": self.salt.hex(),
            "data": self.data.hex(),
            "path": [p.hex() for p in self.path],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RevealedRun":
        run = cls(
            salt=json_field(obj, "salt", bytes),
            data=json_field(obj, "data", bytes),
            path=tuple(parse_hex(node, "path") for node in json_field(obj, "path", list)),
        )
        refuse_unread(obj, ("salt", "data", "path"), "a disclosed chunk")
        return run


@dataclass(frozen=True)
class Disclosure:
    chunks: tuple[RevealedRun, ...]  # one entry per run, in chunk order

    def to_obj(self) -> dict:
        return {"chunks": [c.to_obj() for c in self.chunks]}

    @classmethod
    def from_obj(cls, obj: dict) -> "Disclosure":
        chunks = tuple(RevealedRun.from_obj(c) for c in json_field(obj, "chunks", list))
        refuse_unread(obj, ("chunks",), "a disclosure")
        return cls(chunks)


def commit(
    transcript: bytes,
    chunk_lengths,
    randomness: random.Random,
) -> tuple[TranscriptCommitment, Opening]:
    """Commit to a byte transcript cut into chunks of ``chunk_lengths``
    bytes; returns the commitment and the witness.

    ``randomness`` supplies the per-chunk salts; a seeded random.Random
    gives reproducible commitments.
    """
    lengths = tuple(chunk_lengths)
    if any(n < 1 for n in lengths) or sum(lengths) != len(transcript):
        raise ValidationError(
            f"chunk lengths must be at least 1 and sum to the {len(transcript)} transcript bytes"
        )
    salts = tuple(randomness.randbytes(SALT_LEN) for _ in lengths)
    commitment = TranscriptCommitment(
        root=_root(lengths, b"".join(salts), transcript), total_length=len(transcript)
    )
    return commitment, Opening(plaintext=transcript, salts=salts)


def disclose(opening: Opening) -> Disclosure:
    """Reveal the whole transcript: one run of every chunk, if it has any."""
    return Disclosure(
        (RevealedRun(b"".join(opening.salts), opening.plaintext, ()),) if opening.salts else ()
    )


def verify_disclosure(
    commitment: TranscriptCommitment, disclosure: Disclosure, chunk_lengths: tuple[int, ...]
) -> bytes:
    """The committed transcript, from a disclosure of all of it in chunks
    of ``chunk_lengths`` bytes.

    Accepts iff the chunk lengths sum to the committed total, the
    disclosure is one run with no hidden leaf (none for an empty
    transcript), its salts and bytes have the committed lengths, and
    they hash to the root. Raises Rejected otherwise.
    """
    total, n = commitment.total_length, len(chunk_lengths)
    if sum(chunk_lengths) != total:
        raise Rejected(
            "length-mismatch",
            f"{n} chunks of {sum(chunk_lengths)} bytes for a commitment of {total} bytes",
        )
    if len(disclosure.chunks) != min(n, 1):
        raise Rejected(
            "chunk-range-inconsistency",
            f"the disclosure has {len(disclosure.chunks)} runs, its {n} chunks need {min(n, 1)}",
        )
    salt = data = b""
    for run in disclosure.chunks:
        if len(run.salt) != n * SALT_LEN or len(run.data) != total:
            raise Rejected(
                "length-mismatch",
                f"the run has {len(run.salt)} salt and {len(run.data)} data bytes "
                f"for {n} chunks of {total} bytes",
            )
        if run.path:
            raise Rejected(
                "bad-path",
                f"the run carries hidden leaves ({len(run.path)}); a whole disclosure hides no chunk",
            )
        salt, data = run.salt, run.data
    if _root(chunk_lengths, salt, data) != commitment.root:
        raise Rejected("bad-path", "the disclosed chunks do not authenticate to the root")
    return data
