"""Salted chunk-tree commitments with selective disclosure of byte ranges.

The committer cuts the transcript into chunks of lengths it chooses, each
at least one byte long; a web-proof prover cuts at its TLS record
boundaries, so one record is one chunk. The commitment lists the chunk
lengths next to the root and the total length. Each chunk gets an
independent 16-byte salt, so revealing one chunk leaks nothing about the
bytes of the others, only their lengths. Leaf and interior hashes carry
distinct domain-separation prefixes, and each leaf binds its chunk's
index and start offset, both as 8-byte big-endian integers:
``H("VET/leaf:" || index || offset || salt || chunk)``. Levels with an odd
node count are closed with a domain-separated padding node.

A disclosure is a Merkle multiproof, the compact-range idea of RFC 9162
(Certificate Transparency v2). It has one entry per run of consecutive
revealed chunks: the run's salts and bytes, and the roots of the largest
aligned subtrees whose real leaves lie in the hidden gap before the run
(the last run also carries the gap after it). The revealed leaves and
those subtrees partition the chunks, so ``verify_disclosure`` folds them
left to right into the root and computes each interior node once. Which
subtree each hash stands for follows from the run layout and the chunk
count alone, and a disclosure with any other number of hashes is
rejected, so every disclosure has one encoding.

Soundness. Suppose a disclosure folds to the committed root, yet some
revealed byte differs from the committed byte at its position. The
verifier places revealed chunk ``i`` at the offset ``o`` that the
commitment's chunk lengths give it. Walk from the root to leaf ``i``
through the tree the fold hashed and, in step, through the committed
tree. The root values agree. At each node on the way either both hash
inputs agree, and the walk moves down to the child on the same side in
both trees, or two different inputs have one SHA-256 output, a
collision. The "VET/leaf:", "VET/node:" and padding domains make an
input of one kind differ from any input of another, so a supplied
subtree hash cannot pass for a leaf, nor a leaf for an interior node or
the padding, without a collision. Without one, the walk ends at a
committed leaf whose input equals the revealed one: the same index, salt
and bytes, and the same offset ``o``. So every revealed byte is the
committed byte at the position the verifier reads it from.

The offset is what makes variable chunks sound. On a fixed grid the
index implied the offset; with lengths read off the wire it does not.
Without the offset a disclosure could claim the hidden lengths (6, 8)
where the committer cut (8, 6): the chunk count and the sum stay the
same, every hash stays the same, and the revealed chunk after them would
be read two bytes early. With it, that chunk's leaf input changes and
the fold misses the root. The claimed lengths are otherwise not checked
against the tree, and need not be: they only decide where revealed bytes
are placed, and each revealed leaf binds its own offset and length.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .canonical import json_field, parse_hex, parse_int
from .errors import Rejected, ValidationError

SALT_LEN = 16

_LEAF = b"VET/leaf:"
_NODE = b"VET/node:"
_PAD = hashlib.sha256(b"VET/pad-leaf").digest()
EMPTY_ROOT = hashlib.sha256(b"VET/empty-leaf").digest()


def leaf_hash(index: int, offset: int, salt: bytes, chunk: bytes) -> bytes:
    return hashlib.sha256(
        _LEAF + index.to_bytes(8, "big") + offset.to_bytes(8, "big") + salt + chunk
    ).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE + left + right).digest()


def _offsets(chunk_lengths) -> list[int]:
    """The start offset of each chunk, then the total length."""
    return list(accumulate(chunk_lengths, initial=0))


def _depth(n: int) -> int:
    """Levels above the leaves in a tree over ``n`` leaves."""
    return (n - 1).bit_length() if n > 1 else 0


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
        # Leaf hashes encode a chunk offset in 8 bytes.
        if any(n < 1 for n in lengths) or sum(lengths) != total or total >= 1 << 64:
            raise ValidationError(
                f"commitment of {total} bytes in {len(lengths)} chunks: chunk lengths must "
                "be at least 1 and sum to the total length"
            )
        return commitment


@dataclass(frozen=True)
class Opening:
    """Prover-held witness: the plaintext, its chunk lengths, all
    per-chunk salts and the tree.

    ``levels`` is the hash tree ``commit`` built over them, leaves first,
    so disclosing reads hidden-subtree roots instead of rehashing.
    """

    plaintext: bytes
    salts: tuple[bytes, ...]
    chunk_lengths: tuple[int, ...]
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


def _run_leaves(first: int, salt: bytes, data: bytes, offsets: list[int]) -> list[bytes]:
    """Leaf hashes of the chunks from ``first`` on, one per SALT_LEN bytes
    of ``salt``; ``data`` holds their bytes from offset ``offsets[first]``."""
    base = offsets[first]
    return [
        leaf_hash(
            i,
            offsets[i],
            salt[(i - first) * SALT_LEN:(i - first + 1) * SALT_LEN],
            data[offsets[i] - base:offsets[i + 1] - base],
        )
        for i in range(first, first + len(salt) // SALT_LEN)
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
    leaves = _run_leaves(0, b"".join(salts), transcript, _offsets(lengths))
    levels = tuple(map(tuple, _tree_levels(leaves)))
    commitment = TranscriptCommitment(
        root=levels[-1][0] if lengths else EMPTY_ROOT,
        chunk_lengths=lengths,
        total_length=len(transcript),
    )
    return commitment, Opening(
        plaintext=transcript, salts=salts, chunk_lengths=lengths, levels=levels
    )


def recommit(opening: Opening) -> bytes:
    """Root recomputed from an opening (consistency checks in tests)."""
    if not opening.salts:
        return EMPTY_ROOT
    offsets = _offsets(opening.chunk_lengths)
    leaves = _run_leaves(0, b"".join(opening.salts), opening.plaintext, offsets)
    return _tree_levels(leaves)[-1][0]


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
    norm = normalize_ranges(ranges, len(opening.plaintext))
    spans: list[list[int]] = []  # [first, end) of each run of the cover
    for index in chunk_cover(norm, opening.chunk_lengths):
        if spans and spans[-1][1] == index:
            spans[-1][1] += 1
        else:
            spans.append([index, index + 1])
    n = len(opening.salts)
    offsets = _offsets(opening.chunk_lengths)
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
                data=opening.plaintext[offsets[first]:offsets[end]],
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
    offsets = _offsets(commitment.chunk_lengths)
    n = len(commitment.chunk_lengths)
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
        if len(run.data) != offsets[run.end] - offsets[run.index]:
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
        nodes[0].append((run.index, _run_leaves(run.index, run.salt, run.data, offsets)))
        gap = run.end
    if runs and _fold(nodes, n) != commitment.root:
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


def disclosed_bytes(
    commitment: TranscriptCommitment, disclosure: Disclosure
) -> dict[int, bytes]:
    """Verify and return the bytes of each revealed run keyed by offset."""
    verify_disclosure(commitment, disclosure)
    offsets = _offsets(commitment.chunk_lengths)
    return {offsets[run.index]: run.data for run in disclosure.chunks}
