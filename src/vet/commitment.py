"""Salted chunk-tree commitments with selective disclosure of byte ranges.

The transcript is split into fixed-size chunks; each chunk gets an
independent 16-byte salt, so revealing one chunk leaks nothing about its
neighbours. Leaf and interior hashes carry distinct domain-separation
prefixes, and the chunk index is bound into the leaf hash so a revealed
chunk cannot be relocated. Levels with an odd node count are closed with
a domain-separated padding node.

``verify_disclosure`` hashes each tree node at most once, yet accepts
exactly the disclosures that the per-path check accepts (every revealed
chunk, hashed up its own sibling path, reaches the root). Once a chunk
has been carried to the root, a later chunk's walk stops at a node the
earlier walk passed through if both the value it computed there and its
remaining sibling hashes equal the earlier chunk's. Every hash above that
node then takes the same inputs as in the earlier walk, so the per-path
walk of the later chunk would reach the root too. If either differs, the
walk simply goes on to the root as the per-path check does. Neither
direction relies on any property of the hash, and a rejected disclosure
gets the same reason and detail as under the per-path check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .errors import Rejected, ValidationError

DEFAULT_CHUNK_SIZE = 16
SALT_LEN = 16

_LEAF = b"VET/leaf:"
_NODE = b"VET/node:"
_PAD = hashlib.sha256(b"VET/pad-leaf").digest()
EMPTY_ROOT = hashlib.sha256(b"VET/empty-leaf").digest()


def leaf_hash(index: int, salt: bytes, chunk: bytes) -> bytes:
    return hashlib.sha256(_LEAF + index.to_bytes(8, "big") + salt + chunk).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE + left + right).digest()


def chunk_count(total_length: int, chunk_size: int) -> int:
    return -(-total_length // chunk_size)


def chunk_cover(ranges: list[tuple[int, int]], chunk_size: int, total_length: int) -> list[int]:
    """Minimal sorted set of chunk indices covering the given byte ranges."""
    indices: set[int] = set()
    for offset, length in ranges:
        if length < 0 or offset < 0 or offset + length > total_length:
            raise ValidationError(f"range ({offset},{length}) out of bounds")
        if length == 0:
            continue
        first = offset // chunk_size
        last = (offset + length - 1) // chunk_size
        indices.update(range(first, last + 1))
    return sorted(indices)


@dataclass(frozen=True)
class TranscriptCommitment:
    root: bytes
    chunk_size: int
    total_length: int

    def to_obj(self) -> dict:
        return {
            "root": self.root.hex(),
            "chunk_size": str(self.chunk_size),
            "total_length": str(self.total_length),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TranscriptCommitment":
        return cls(
            root=bytes.fromhex(obj["root"]),
            chunk_size=int(obj["chunk_size"]),
            total_length=int(obj["total_length"]),
        )


@dataclass(frozen=True)
class Opening:
    """Prover-held witness: the plaintext, all per-chunk salts and the tree.

    ``levels`` is the hash tree ``commit`` built over them, leaves first,
    so disclosing reads authentication paths instead of rehashing.
    """

    plaintext: bytes
    salts: tuple[bytes, ...]
    chunk_size: int
    levels: tuple[tuple[bytes, ...], ...] = field(repr=False)


@dataclass(frozen=True)
class RevealedChunk:
    index: int
    salt: bytes
    data: bytes
    # Sibling hashes from the leaf up to (excluding) the root.
    path: tuple[bytes, ...]

    def to_obj(self) -> dict:
        return {
            "index": str(self.index),
            "salt": self.salt.hex(),
            "data": self.data.hex(),
            "path": [p.hex() for p in self.path],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RevealedChunk":
        return cls(
            index=int(obj["index"]),
            salt=bytes.fromhex(obj["salt"]),
            data=bytes.fromhex(obj["data"]),
            path=tuple(map(bytes.fromhex, obj["path"])),
        )


@dataclass(frozen=True)
class Disclosure:
    ranges: tuple[tuple[int, int], ...]
    chunks: tuple[RevealedChunk, ...]

    def to_obj(self) -> dict:
        return {
            "ranges": [[str(o), str(n)] for o, n in self.ranges],
            "chunks": [c.to_obj() for c in self.chunks],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Disclosure":
        return cls(
            ranges=tuple((int(o), int(n)) for o, n in obj["ranges"]),
            chunks=tuple(RevealedChunk.from_obj(c) for c in obj["chunks"]),
        )


def _leaf_hashes(plaintext: bytes, salts: tuple[bytes, ...], chunk_size: int) -> list[bytes]:
    return [
        leaf_hash(i, salts[i], plaintext[i * chunk_size:(i + 1) * chunk_size])
        for i in range(len(salts))
    ]


def _tree_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """All levels bottom-up; odd levels are closed with the padding node."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        current = levels[-1]
        if len(current) % 2:
            current = current + [_PAD]
            levels[-1] = current
        levels.append(
            [_node_hash(current[i], current[i + 1]) for i in range(0, len(current), 2)]
        )
    return levels


def _root_of(leaves: list[bytes]) -> bytes:
    if not leaves:
        return EMPTY_ROOT
    return _tree_levels(leaves)[-1][0]


def commit(
    transcript: bytes,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    randomness: random.Random | None = None,
) -> tuple[TranscriptCommitment, Opening]:
    """Commit to a byte transcript; returns the commitment and the witness.

    ``randomness`` supplies the per-chunk salts; pass a seeded
    random.Random for reproducible commitments, or None for fresh
    system entropy.
    """
    if chunk_size < 1:
        raise ValidationError("chunk_size must be >= 1")
    n = chunk_count(len(transcript), chunk_size)
    if randomness is None:
        randomness = random.SystemRandom()
    salts = tuple(randomness.randbytes(SALT_LEN) for _ in range(n))
    levels = tuple(map(tuple, _tree_levels(_leaf_hashes(transcript, salts, chunk_size))))
    commitment = TranscriptCommitment(
        root=levels[-1][0] if n else EMPTY_ROOT,
        chunk_size=chunk_size,
        total_length=len(transcript),
    )
    return commitment, Opening(
        plaintext=transcript, salts=salts, chunk_size=chunk_size, levels=levels
    )


def recommit(opening: Opening) -> bytes:
    """Root recomputed from an opening (consistency checks in tests)."""
    return _root_of(_leaf_hashes(opening.plaintext, opening.salts, opening.chunk_size))


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
    """Reveal the minimal chunk cover of ``ranges`` with authentication paths."""
    total = len(opening.plaintext)
    norm = normalize_ranges(ranges, total)
    cover = chunk_cover(norm, opening.chunk_size, total)
    # Paths are built from the root down: a node's path is its sibling
    # followed by its parent's path, so each node of the cover's
    # ancestry is visited once. Every level below the root has even
    # length (``_tree_levels`` pads it), so a sibling always exists.
    depth = len(opening.levels) - 1
    positions = [cover]
    for _ in range(depth - 1):
        positions.append({pos >> 1 for pos in positions[-1]})
    paths: dict[int, tuple[bytes, ...]] = {0: ()}
    for level in reversed(range(depth)):
        nodes = opening.levels[level]
        paths = {pos: (nodes[pos ^ 1],) + paths[pos >> 1] for pos in positions[level]}
    cs = opening.chunk_size
    revealed = tuple(
        RevealedChunk(
            index=index,
            salt=opening.salts[index],
            data=opening.plaintext[index * cs:(index + 1) * cs],
            path=paths[index],
        )
        for index in cover
    )
    return Disclosure(ranges=tuple(norm), chunks=revealed)


def verify_disclosure(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[tuple[int, int], bytes]:
    """Check a disclosure against a commitment root.

    Accepts iff every revealed chunk authenticates to the root through
    its sibling path and the revealed chunks cover the claimed ranges.
    Returns the bytes of each claimed range; raises Rejected otherwise.
    """
    n = chunk_count(commitment.total_length, commitment.chunk_size)
    if n == 0 and commitment.root != EMPTY_ROOT:
        raise Rejected("bad-path", "empty transcript with non-empty root")
    depth = 0 if n <= 1 else (n - 1).bit_length()
    by_index: dict[int, RevealedChunk] = {}
    # Node id (heap numbering: root 1, children 2k and 2k+1) -> the value
    # an earlier chunk computed there and that chunk's path.
    carried: dict[int, tuple[bytes, tuple[bytes, ...]]] = {}
    for chunk in disclosure.chunks:
        if not 0 <= chunk.index < n:
            raise Rejected("chunk-range-inconsistency", f"chunk index {chunk.index} out of range")
        if chunk.index in by_index:
            raise Rejected("chunk-range-inconsistency", f"duplicate chunk {chunk.index}")
        expected_len = min(
            commitment.chunk_size,
            commitment.total_length - chunk.index * commitment.chunk_size,
        )
        if len(chunk.data) != expected_len:
            raise Rejected("length-mismatch", f"chunk {chunk.index} has wrong length")
        if len(chunk.path) != depth:
            raise Rejected("bad-path", f"chunk {chunk.index} path depth {len(chunk.path)} != {depth}")
        path = chunk.path
        node = leaf_hash(chunk.index, chunk.salt, chunk.data)
        node_id = (1 << depth) | chunk.index
        for level, sibling in enumerate(path):
            seen = carried.get(node_id)
            if seen is None:
                carried[node_id] = (node, path)
            elif seen[0] == node and seen[1][level:] == path[level:]:
                break  # the rest of the walk is the earlier chunk's walk
            node = _node_hash(node, sibling) if node_id % 2 == 0 else _node_hash(sibling, node)
            node_id >>= 1
        else:
            if node != commitment.root:
                raise Rejected("bad-path", f"chunk {chunk.index} does not authenticate to root")
        by_index[chunk.index] = chunk

    if n == 0 and disclosure.chunks:
        raise Rejected("chunk-range-inconsistency", "chunks revealed for empty transcript")

    try:
        needed = chunk_cover(list(disclosure.ranges), commitment.chunk_size, commitment.total_length)
    except ValidationError as exc:
        raise Rejected("chunk-range-inconsistency", str(exc))
    missing = [i for i in needed if i not in by_index]
    if missing:
        raise Rejected("chunk-range-inconsistency", f"ranges not covered, missing chunks {missing}")

    cs = commitment.chunk_size
    out: dict[tuple[int, int], bytes] = {}
    for offset, length in disclosure.ranges:
        if not length:
            out[(offset, length)] = b""
            continue
        first, last = offset // cs, (offset + length - 1) // cs
        run = b"".join(by_index[i].data for i in range(first, last + 1))
        start = offset - first * cs
        out[(offset, length)] = run[start:start + length]
    return out


def disclosed_bytes(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[int, bytes]:
    """Verify and return all revealed chunk bytes keyed by absolute offset."""
    verify_disclosure(commitment, disclosure)
    return {
        c.index * commitment.chunk_size: c.data for c in disclosure.chunks
    }
