"""Salted chunk-tree commitments with selective disclosure of byte ranges.

The transcript is split into fixed-size chunks; each chunk gets an
independent 16-byte salt, so revealing one chunk leaks nothing about its
neighbours. Leaf and interior hashes carry distinct domain-separation
prefixes, and the chunk index is bound into the leaf hash so a revealed
chunk cannot be relocated. Levels with an odd node count are closed with
a domain-separated padding node.

A disclosure is a Merkle multiproof, the compact-range idea of RFC 9162
(Certificate Transparency v2). It has one entry per run of consecutive
revealed chunks: the run's salts and bytes, and the roots of the largest
aligned subtrees whose real leaves lie in the hidden gap before the run
(the last run also carries the gap after it). The revealed leaves and
those subtrees partition the chunks, so ``verify_disclosure`` folds them
left to right into the root and computes each interior node once. Which
subtree each hash stands for follows from the run layout and the
transcript length alone, and a disclosure with any other number of
hashes is rejected, so every disclosure has one encoding.

Soundness. Suppose a disclosure folds to the committed root, yet some
revealed chunk ``i`` differs from the committed one in its salt or its
bytes. The fold hashes the same tree shape as ``commit``: every value it
holds stands for one node of the committed tree. Follow the path from
the root to leaf ``i``. The root values agree. At each node on the way
either both children agree with the committed ones, and the walk moves
down, or the two hash inputs differ while the outputs agree. The walk
cannot reach leaf ``i`` with all inputs equal, because the leaf inputs
differ; so somewhere it meets two inputs with one SHA-256 output, a
collision. The index in each leaf input binds a chunk to its position by
itself: a run moved to other chunks changes all its leaf hashes. The
"VET/leaf:", "VET/node:" and padding domains keep one kind of node from
being opened as another, so a supplied subtree hash cannot pass for a
leaf, nor a leaf for an interior node or the padding, without a
collision.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .canonical import json_field, parse_hex, parse_int
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


def _depth(n: int) -> int:
    """Levels above the leaves in a tree over ``n`` leaves."""
    return (n - 1).bit_length() if n > 1 else 0


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


def _hidden_subtrees(start: int, end: int, n: int) -> list[tuple[int, int]]:
    """(level, position) of the largest aligned subtrees whose real leaves
    lie in chunks ``start`` .. ``end - 1`` of an ``n``-leaf tree, left to
    right. A subtree past the last leaf is closed by padding, so only its
    real leaves must lie in the range."""
    depth = _depth(n)
    out = []
    while start < end:
        level = 0
        while (
            level < depth
            and start % (2 << level) == 0
            and min(start + (2 << level), n) <= end
        ):
            level += 1
        out.append((level, start >> level))
        start += 1 << level
    return out


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
        commitment = cls(
            root=json_field(obj, "root", bytes),
            chunk_size=json_field(obj, "chunk_size", int),
            total_length=json_field(obj, "total_length", int),
        )
        cs, total = commitment.chunk_size, commitment.total_length
        # Leaf hashes encode a chunk index in 8 bytes.
        if cs < 1 or total < 0 or chunk_count(total, cs) > 1 << 64:
            raise ValidationError(f"commitment of {total} bytes in chunks of {cs} is malformed")
        return commitment


@dataclass(frozen=True)
class Opening:
    """Prover-held witness: the plaintext, all per-chunk salts and the tree.

    ``levels`` is the hash tree ``commit`` built over them, leaves first,
    so disclosing reads hidden-subtree roots instead of rehashing.
    """

    plaintext: bytes
    salts: tuple[bytes, ...]
    chunk_size: int
    levels: tuple[tuple[bytes, ...], ...] = field(repr=False)


@dataclass(frozen=True)
class RevealedRun:
    """Revealed chunks ``index`` .. ``end - 1``, with their salts and
    bytes concatenated, and in ``path`` the roots of the hidden subtrees
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
    """Reveal the minimal chunk cover of ``ranges`` as runs, each with the
    hidden-subtree roots of the gap before it."""
    total = len(opening.plaintext)
    norm = normalize_ranges(ranges, total)
    spans: list[list[int]] = []  # [first, end) of each run of the cover
    for index in chunk_cover(norm, opening.chunk_size, total):
        if spans and spans[-1][1] == index:
            spans[-1][1] += 1
        else:
            spans.append([index, index + 1])
    n = len(opening.salts)
    cs = opening.chunk_size
    runs = []
    gap = 0
    for k, (first, end) in enumerate(spans):
        hidden = _hidden_subtrees(gap, first, n)
        if k == len(spans) - 1:
            hidden += _hidden_subtrees(end, n, n)
        runs.append(
            RevealedRun(
                index=first,
                salt=b"".join(opening.salts[first:end]),
                data=opening.plaintext[first * cs:end * cs],
                path=tuple(opening.levels[level][pos] for level, pos in hidden),
            )
        )
        gap = end
    return Disclosure(ranges=tuple(norm), chunks=tuple(runs))


def _fold(nodes: list[list[tuple[int, list[bytes]]]], n: int) -> bytes:
    """The root over ``nodes[level]``: (position, hashes) spans of known
    consecutive nodes at each level.

    The spans partition the leaves into aligned subtrees, so a known
    node's sibling is known at its level or is the padding node, and
    each level's spans pair up into the next level's.
    """
    carried: list[tuple[int, list[bytes]]] = []
    for level, supplied in enumerate(nodes[:-1]):
        merged: list[tuple[int, list[bytes]]] = []
        for start, hashes in sorted(carried + supplied):
            if merged and merged[-1][0] + len(merged[-1][1]) == start:
                merged[-1][1].extend(hashes)
            else:
                merged.append((start, list(hashes)))
        width = -(-n >> level)  # real nodes at this level
        start, hashes = merged[-1]
        if width % 2 and start + len(hashes) == width:
            hashes.append(_PAD)
        carried = [
            (start >> 1, [_node_hash(h[i], h[i + 1]) for i in range(0, len(h), 2)])
            for start, h in merged
        ]
    return (carried + nodes[-1])[0][1][0]


def verify_disclosure(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[tuple[int, int], bytes]:
    """Check a disclosure against a commitment root.

    Accepts iff the runs are in order, apart, inside the transcript and
    of consistent lengths, each carries exactly the hidden-subtree hashes
    its layout dictates, the runs fold to the root, and each claimed
    range lies in one run. Returns the bytes of each claimed range;
    raises Rejected otherwise.
    """
    cs, total = commitment.chunk_size, commitment.total_length
    n = chunk_count(total, cs)
    if n == 0 and commitment.root != EMPTY_ROOT:
        raise Rejected("bad-path", "empty transcript with non-empty root")
    runs = disclosure.chunks
    nodes: list[list[tuple[int, list[bytes]]]] = [[] for _ in range(_depth(n) + 1)]
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
        if len(run.data) != min(run.end * cs, total) - run.index * cs:
            raise Rejected(
                "length-mismatch", f"run at chunk {run.index} has wrong data length"
            )
        hidden = _hidden_subtrees(gap, run.index, n)
        if k == len(runs) - 1:
            hidden += _hidden_subtrees(run.end, n, n)
        if len(run.path) != len(hidden):
            raise Rejected(
                "bad-path",
                f"run at chunk {run.index} carries {len(run.path)} subtree hashes, "
                f"its layout needs {len(hidden)}",
            )
        for (level, pos), node in zip(hidden, run.path):
            nodes[level].append((pos, [node]))
        leaves = [
            leaf_hash(
                run.index + j,
                run.salt[j * SALT_LEN:(j + 1) * SALT_LEN],
                run.data[j * cs:(j + 1) * cs],
            )
            for j in range(count)
        ]
        nodes[0].append((run.index, leaves))
        gap = run.end
    if runs and _fold(nodes, n) != commitment.root:
        raise Rejected("bad-path", "revealed runs do not authenticate to the root")

    starts = [run.index for run in runs]
    out: dict[tuple[int, int], bytes] = {}
    for offset, length in disclosure.ranges:
        if offset < 0 or length < 0 or offset + length > total:
            raise Rejected("chunk-range-inconsistency", f"range ({offset},{length}) out of bounds")
        if not length:
            out[(offset, length)] = b""
            continue
        k = bisect_right(starts, offset // cs) - 1
        if k < 0 or (offset + length - 1) // cs >= runs[k].end:
            raise Rejected(
                "chunk-range-inconsistency",
                f"range ({offset},{length}) is not inside one revealed run",
            )
        start = offset - runs[k].index * cs
        out[(offset, length)] = runs[k].data[start:start + length]
    return out


def disclosed_bytes(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[int, bytes]:
    """Verify and return the bytes of each revealed run keyed by offset."""
    verify_disclosure(commitment, disclosure)
    return {run.index * commitment.chunk_size: run.data for run in disclosure.chunks}
