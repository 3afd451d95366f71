"""Salted chunk commitments with selective disclosure of byte ranges.

The committer cuts the transcript into chunks of lengths it chooses, each
at least one byte long; a web-proof prover cuts at its TLS record
boundaries, so one record is one chunk. Each chunk gets an independent
16-byte salt, so revealing one chunk leaks nothing about the bytes of the
others, only their lengths. Chunk ``i`` has the leaf
``H("VET/leaf:" || salt_i || chunk_i)``, and the root hashes the chunk
count, every chunk length and every leaf, counts and lengths as 8-byte
big-endian integers:
``H("VET/root:" || n || len_0 .. len_{n-1} || leaf_0 .. leaf_{n-1})``.
The commitment lists the chunk lengths next to the root and the total
length.

A disclosure has one entry per run of consecutive revealed chunks: the
run's salts and bytes, and the leaf hashes of the hidden chunks in the
gap before the run (the last run also carries the gap after it). Which
chunks those hashes stand for follows from the run layout and the chunk
count alone, and a disclosure with any other number of hashes is
rejected, so every disclosure has one encoding. ``verify_disclosure``
lays the supplied and the recomputed leaves out in chunk order and
hashes the root once.

Soundness. Suppose a disclosure hashes to the committed root. The
verifier refuses a hidden leaf that is not 32 bytes long, so every leaf
it lays out is 32 bytes and the root input has a fixed layout once ``n``
is read. Short of a SHA-256 collision, then, the verifier hashed the
committer's exact input: the same chunk lengths, and at each revealed
position the committed leaf. A leaf binds no index or offset, so the
size check is what stops one supplied hash from standing in for part of
its neighbour's, moving a revealed chunk to another position. Equal
leaves in turn mean the same salt and chunk bytes, again short of a
collision. The verifier places revealed chunk ``i`` at the sum of the
lengths before it, which is therefore the committed offset, so every
revealed byte is the committed byte at the position it is read from.
Binding the lengths is what makes chunks of variable length sound: a
commitment that lists other lengths, even with the same sum and the same
revealed chunks, hashes to another root.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .canonical import json_field, parse_hex, parse_int
from .errors import Rejected, ValidationError

SALT_LEN = 16

_LEAF = b"VET/leaf:"
_ROOT = b"VET/root:"


def leaf_hash(salt: bytes, chunk: bytes) -> bytes:
    return hashlib.sha256(_LEAF + salt + chunk).digest()


def _root_hash(chunk_lengths, leaves) -> bytes:
    """The root over the chunk lengths and the leaves, in chunk order."""
    return hashlib.sha256(
        b"".join(
            [_ROOT, len(chunk_lengths).to_bytes(8, "big")]
            + [n.to_bytes(8, "big") for n in chunk_lengths]
            + list(leaves)
        )
    ).digest()


def _offsets(chunk_lengths) -> list[int]:
    """The start offset of each chunk, then the total length."""
    return list(accumulate(chunk_lengths, initial=0))


def chunk_cover(ranges: list[tuple[int, int]], chunk_lengths) -> list[int]:
    """Minimal sorted set of chunk indices covering the given byte ranges."""
    offsets = _offsets(chunk_lengths)
    indices: set[int] = set()
    for offset, length in ranges:
        if length < 0 or offset < 0 or offset + length > offsets[-1]:
            raise ValidationError(f"range ({offset},{length}) out of bounds")
        if length == 0:
            continue
        first = bisect_right(offsets, offset) - 1
        last = bisect_right(offsets, offset + length - 1) - 1
        indices.update(range(first, last + 1))
    return sorted(indices)


@dataclass(frozen=True)
class TranscriptCommitment:
    root: bytes
    chunk_lengths: tuple[int, ...]
    total_length: int

    def to_obj(self) -> dict:
        return {
            "root": self.root.hex(),
            "chunk_lengths": [str(n) for n in self.chunk_lengths],
            "total_length": str(self.total_length),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TranscriptCommitment":
        commitment = cls(
            root=json_field(obj, "root", bytes),
            chunk_lengths=tuple(
                parse_int(n, "chunk_lengths") for n in json_field(obj, "chunk_lengths", list)
            ),
            total_length=json_field(obj, "total_length", int),
        )
        lengths, total = commitment.chunk_lengths, commitment.total_length
        # The root encodes each chunk length in 8 bytes.
        if any(n < 1 for n in lengths) or sum(lengths) != total or total >= 1 << 64:
            raise ValidationError(
                f"commitment of {total} bytes in {len(lengths)} chunks: chunk lengths must "
                "be at least 1 and sum to the total length"
            )
        return commitment


@dataclass(frozen=True)
class Opening:
    """Prover-held witness: the plaintext, its chunk lengths, all
    per-chunk salts and the leaves ``commit`` hashed from them, so
    disclosing reads the hidden leaves instead of rehashing."""

    plaintext: bytes
    salts: tuple[bytes, ...]
    chunk_lengths: tuple[int, ...]
    leaves: tuple[bytes, ...]


@dataclass(frozen=True)
class RevealedRun:
    """Revealed chunks ``index`` .. ``end - 1``, with their salts and
    bytes concatenated, and in ``path`` the leaves of the hidden chunks
    in the gap before the run (for the last run, also after it)."""

    index: int
    salt: bytes
    data: bytes
    path: tuple[bytes, ...]

    @property
    def end(self) -> int:
        return self.index + len(self.salt) // SALT_LEN

    def to_obj(self) -> dict:
        return {
            "index": str(self.index),
            "salt": self.salt.hex(),
            "data": self.data.hex(),
            "path": [p.hex() for p in self.path],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RevealedRun":
        return cls(
            index=json_field(obj, "index", int),
            salt=json_field(obj, "salt", bytes),
            data=json_field(obj, "data", bytes),
            path=tuple(parse_hex(node, "path") for node in json_field(obj, "path", list)),
        )


@dataclass(frozen=True)
class Disclosure:
    ranges: tuple[tuple[int, int], ...]
    chunks: tuple[RevealedRun, ...]  # one entry per run, in chunk order

    def to_obj(self) -> dict:
        return {
            "ranges": [[str(o), str(n)] for o, n in self.ranges],
            "chunks": [c.to_obj() for c in self.chunks],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Disclosure":
        ranges = json_field(obj, "ranges", list)
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in ranges):
            raise ValidationError("ranges must be [offset, length] pairs")
        return cls(
            ranges=tuple((parse_int(o, "ranges"), parse_int(n, "ranges")) for o, n in ranges),
            chunks=tuple(RevealedRun.from_obj(c) for c in json_field(obj, "chunks", list)),
        )


def _run_leaves(first: int, salt: bytes, data: bytes, offsets: list[int]) -> list[bytes]:
    """Leaf hashes of the chunks from ``first`` on, one per SALT_LEN bytes
    of ``salt``; ``data`` holds their bytes from offset ``offsets[first]``."""
    base = offsets[first]
    return [
        leaf_hash(
            salt[(i - first) * SALT_LEN:(i - first + 1) * SALT_LEN],
            data[offsets[i] - base:offsets[i + 1] - base],
        )
        for i in range(first, first + len(salt) // SALT_LEN)
    ]


def commit(
    transcript: bytes,
    chunk_lengths,
    randomness: random.Random | None = None,
) -> tuple[TranscriptCommitment, Opening]:
    """Commit to a byte transcript cut into chunks of ``chunk_lengths``
    bytes; returns the commitment and the witness.

    ``randomness`` supplies the per-chunk salts; pass a seeded
    random.Random for reproducible commitments, or None for fresh
    system entropy.
    """
    lengths = tuple(chunk_lengths)
    if any(n < 1 for n in lengths) or sum(lengths) != len(transcript):
        raise ValidationError(
            f"chunk lengths must be at least 1 and sum to the {len(transcript)} transcript bytes"
        )
    if randomness is None:
        randomness = random.SystemRandom()
    salts = tuple(randomness.randbytes(SALT_LEN) for _ in lengths)
    leaves = tuple(_run_leaves(0, b"".join(salts), transcript, _offsets(lengths)))
    commitment = TranscriptCommitment(
        root=_root_hash(lengths, leaves), chunk_lengths=lengths, total_length=len(transcript)
    )
    return commitment, Opening(
        plaintext=transcript, salts=salts, chunk_lengths=lengths, leaves=leaves
    )


def recommit(opening: Opening) -> bytes:
    """Root recomputed from an opening (consistency checks in tests)."""
    offsets = _offsets(opening.chunk_lengths)
    leaves = _run_leaves(0, b"".join(opening.salts), opening.plaintext, offsets)
    return _root_hash(opening.chunk_lengths, leaves)


def normalize_ranges(ranges: list[tuple[int, int]], total_length: int) -> list[tuple[int, int]]:
    """Sort, bounds-check, drop empties and merge overlapping ranges."""
    checked = []
    for offset, length in ranges:
        if offset < 0 or length < 0 or offset + length > total_length:
            raise ValidationError(f"range ({offset},{length}) out of bounds")
        if length:
            checked.append((offset, length))
    checked.sort()
    merged: list[tuple[int, int]] = []
    for offset, length in checked:
        if merged and offset <= merged[-1][0] + merged[-1][1]:
            prev_off, prev_len = merged[-1]
            merged[-1] = (prev_off, max(prev_off + prev_len, offset + length) - prev_off)
        else:
            merged.append((offset, length))
    return merged


def disclose(opening: Opening, ranges: list[tuple[int, int]]) -> Disclosure:
    """Reveal the minimal chunk cover of ``ranges`` as runs, each with the
    hidden leaves of the gap before it."""
    norm = normalize_ranges(ranges, len(opening.plaintext))
    spans: list[list[int]] = []  # [first, end) of each run of the cover
    for index in chunk_cover(norm, opening.chunk_lengths):
        if spans and spans[-1][1] == index:
            spans[-1][1] += 1
        else:
            spans.append([index, index + 1])
    offsets = _offsets(opening.chunk_lengths)
    runs = []
    gap = 0
    for k, (first, end) in enumerate(spans):
        hidden = opening.leaves[gap:first]
        if k == len(spans) - 1:
            hidden += opening.leaves[end:]
        runs.append(
            RevealedRun(
                index=first,
                salt=b"".join(opening.salts[first:end]),
                data=opening.plaintext[offsets[first]:offsets[end]],
                path=hidden,
            )
        )
        gap = end
    return Disclosure(ranges=tuple(norm), chunks=tuple(runs))


def verify_disclosure(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[tuple[int, int], bytes]:
    """Check a disclosure against a commitment root.

    Accepts iff the runs are in order, apart, inside the transcript and
    of consistent lengths, each carries exactly the hidden leaves its
    layout dictates, each a 32-byte hash, the leaves and lengths hash to
    the root, and each claimed range lies in one run. Returns the bytes
    of each claimed range; raises Rejected otherwise.
    """
    offsets = _offsets(commitment.chunk_lengths)
    n = len(commitment.chunk_lengths)
    runs = disclosure.chunks
    gap = 0
    for k, run in enumerate(runs):
        if run.index < 0:
            raise Rejected("chunk-range-inconsistency", f"run index {run.index} out of range")
        if k and run.index <= gap:
            raise Rejected(
                "chunk-range-inconsistency",
                f"run at chunk {run.index} overlaps or abuts the run before it",
            )
        count, odd = divmod(len(run.salt), SALT_LEN)
        if odd or not count:
            raise Rejected(
                "length-mismatch", f"run at chunk {run.index} has {len(run.salt)} salt bytes"
            )
        if run.end > n:
            raise Rejected(
                "chunk-range-inconsistency",
                f"run at chunk {run.index} of {count} chunks passes the last chunk {n - 1}",
            )
        if len(run.data) != offsets[run.end] - offsets[run.index]:
            raise Rejected(
                "length-mismatch", f"run at chunk {run.index} has wrong data length"
            )
        gap = run.end
    leaves: list[bytes] = []
    for k, run in enumerate(runs):
        before = run.index - len(leaves)
        after = n - run.end if k == len(runs) - 1 else 0
        if len(run.path) != before + after:
            raise Rejected(
                "bad-path",
                f"run at chunk {run.index} carries {len(run.path)} hidden leaves, "
                f"its layout needs {before + after}",
            )
        if any(len(leaf) != 32 for leaf in run.path):
            raise Rejected("bad-path", f"run at chunk {run.index} carries a leaf not of 32 bytes")
        leaves += run.path[:before]
        leaves += _run_leaves(run.index, run.salt, run.data, offsets)
        leaves += run.path[before:]
    if (runs or not n) and _root_hash(commitment.chunk_lengths, leaves) != commitment.root:
        raise Rejected("bad-path", "revealed runs do not authenticate to the root")

    starts = [offsets[run.index] for run in runs]
    out: dict[tuple[int, int], bytes] = {}
    for offset, length in disclosure.ranges:
        if offset < 0 or length < 0 or offset + length > offsets[-1]:
            raise Rejected("chunk-range-inconsistency", f"range ({offset},{length}) out of bounds")
        if not length:
            out[(offset, length)] = b""
            continue
        k = bisect_right(starts, offset) - 1
        if k < 0 or offset + length > offsets[runs[k].end]:
            raise Rejected(
                "chunk-range-inconsistency",
                f"range ({offset},{length}) is not inside one revealed run",
            )
        start = offset - starts[k]
        out[(offset, length)] = runs[k].data[start:start + length]
    return out

