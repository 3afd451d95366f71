import hashlib
import random

import pytest

from vet.commitment import (
    EMPTY_ROOT,
    Disclosure,
    RevealedRun,
    chunk_cover,
    commit,
    disclose,
    disclosed_bytes,
    leaf_hash,
    normalize_ranges,
    recommit,
    verify_disclosure,
)
from vet.errors import Rejected, ValidationError


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100, 257])
@pytest.mark.parametrize("chunk_size", [1, 7, 16])
def test_commit_disclose_round_trip(size, chunk_size):
    rng = random.Random(size * 1000 + chunk_size)
    data = rng.randbytes(size)
    commitment, opening = commit(data, chunk_size, rng)
    assert commitment.total_length == size
    assert recommit(opening) == commitment.root
    disclosure = disclose(opening, [(0, size)])
    revealed = verify_disclosure(commitment, disclosure)
    if size:
        assert revealed[(0, size)] == data
    by_offset = disclosed_bytes(commitment, disclosure)
    assert b"".join(by_offset[k] for k in sorted(by_offset)) == data


def test_empty_transcript_root():
    commitment, opening = commit(b"", 16, random.Random(0))
    assert commitment.root == EMPTY_ROOT
    assert verify_disclosure(commitment, disclose(opening, [])) == {}


def test_partial_disclosure_reveals_only_cover():
    rng = random.Random(7)
    data = rng.randbytes(100)
    commitment, opening = commit(data, 16, rng)
    disclosure = disclose(opening, [(20, 10)])
    # bytes 20..29 live entirely in chunk 1
    assert [c.index for c in disclosure.chunks] == [1]
    assert verify_disclosure(commitment, disclosure)[(20, 10)] == data[20:30]


def test_cover_minimality_against_brute_force():
    rng = random.Random(11)
    for trial in range(200):
        total = rng.randrange(1, 200)
        chunk_size = rng.choice([1, 4, 16, 32])
        ranges = []
        for _ in range(rng.randrange(0, 4)):
            offset = rng.randrange(0, total)
            ranges.append((offset, rng.randrange(0, total - offset + 1)))
        cover = chunk_cover(ranges, chunk_size, total)
        # Brute-force oracle: a chunk is needed iff it contains a requested byte.
        needed = sorted(
            {
                pos // chunk_size
                for offset, length in ranges
                for pos in range(offset, offset + length)
            }
        )
        assert cover == needed


def test_binding_mutations_rejected():
    rng = random.Random(42)
    data = rng.randbytes(128)
    commitment, opening = commit(data, 16, rng)
    # Runs at chunks 0-2, 4 and 7: the later two carry subtree hashes.
    disclosure = disclose(opening, [(0, 40), (64, 16), (112, 16)])
    verify_disclosure(commitment, disclosure)
    rejected = 0
    trials = 500
    for _ in range(trials):
        runs = list(disclosure.chunks)
        mode = rng.randrange(4)
        i = rng.randrange(len(runs)) if mode < 3 else rng.choice([1, 2])
        c = runs[i]
        if mode == 0:  # flip a data byte
            pos = rng.randrange(len(c.data))
            data2 = bytes(
                b ^ (1 << rng.randrange(8)) if k == pos else b
                for k, b in enumerate(c.data)
            )
            runs[i] = RevealedRun(c.index, c.salt, data2, c.path)
        elif mode == 1:  # flip a salt byte
            pos = rng.randrange(len(c.salt))
            salt2 = bytes(b ^ 1 if k == pos else b for k, b in enumerate(c.salt))
            runs[i] = RevealedRun(c.index, salt2, c.data, c.path)
        elif mode == 2:  # relocate the run
            other = (c.index + 1) % 8
            runs[i] = RevealedRun(other, c.salt, c.data, c.path)
        else:  # corrupt a subtree hash
            j = rng.randrange(len(c.path))
            path2 = tuple(
                bytes(b ^ 1 for b in p) if k == j else p for k, p in enumerate(c.path)
            )
            runs[i] = RevealedRun(c.index, c.salt, c.data, path2)
        mutated = Disclosure(ranges=disclosure.ranges, chunks=tuple(runs))
        try:
            out = verify_disclosure(commitment, mutated)
            # Acceptance is only sound if every range still equals the
            # committed bytes (e.g. relocating onto an identical chunk).
            assert all(
                out[(o, n)] == data[o:o + n] for o, n in mutated.ranges
            )
        except Rejected:
            rejected += 1
    assert rejected == trials


def test_hiding_chunks_are_salted_independently():
    # Committing the same plaintext twice with different randomness must
    # give unrelated roots and leaf hashes, so an undisclosed chunk's
    # bytes cannot be confirmed by recomputation.
    data = b"A" * 64
    c1, o1 = commit(data, 16, random.Random(1))
    c2, o2 = commit(data, 16, random.Random(2))
    assert c1.root != c2.root
    assert leaf_hash(0, o1.salts[0], data[:16]) != leaf_hash(0, o2.salts[0], data[:16])
    # Equal chunks inside one commitment also have distinct leaves.
    assert leaf_hash(0, o1.salts[0], data[:16]) != leaf_hash(1, o1.salts[1], data[16:32])


def test_disclosure_serialization_round_trip():
    rng = random.Random(5)
    data = rng.randbytes(50)
    commitment, opening = commit(data, 16, rng)
    for ranges in ([(0, 50)], [(0, 5), (40, 10)]):
        disclosure = disclose(opening, ranges)
        clone = Disclosure.from_obj(disclosure.to_obj())
        assert clone == disclosure
        verify_disclosure(commitment, clone)


def test_normalize_ranges():
    assert normalize_ranges([(5, 5), (0, 6), (20, 0)], 30) == [(0, 10)]
    assert normalize_ranges([(0, 3), (3, 3)], 10) == [(0, 6)]
    with pytest.raises(ValidationError):
        normalize_ranges([(0, 11)], 10)
    with pytest.raises(ValidationError):
        normalize_ranges([(-1, 2)], 10)


def test_range_outside_cover_rejected():
    rng = random.Random(3)
    data = rng.randbytes(64)
    commitment, opening = commit(data, 16, rng)
    disclosure = disclose(opening, [(0, 16)])
    widened = Disclosure(ranges=((0, 32),), chunks=disclosure.chunks)
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, widened)
    assert err.value.reason == "chunk-range-inconsistency"


def test_wrong_length_chunk_rejected():
    rng = random.Random(4)
    data = rng.randbytes(40)  # last chunk is 8 bytes
    commitment, opening = commit(data, 16, rng)
    disclosure = disclose(opening, [(32, 8)])
    c = disclosure.chunks[0]
    padded = Disclosure(
        ranges=disclosure.ranges,
        chunks=(RevealedRun(c.index, c.salt, c.data + b"\x00" * 8, c.path),),
    )
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, padded)
    assert err.value.reason == "length-mismatch"


def _runs_case():
    """Eight chunks of 16 bytes with chunks 2-3 and 5 revealed: the first
    run carries the subtree over chunks 0-1, the second chunk 4 before it
    and chunks 6-7 after it."""
    rng = random.Random(8)
    data = rng.randbytes(128)
    commitment, opening = commit(data, 16, rng)
    disclosure = disclose(opening, [(32, 32), (80, 16)])
    assert [(r.index, r.end, len(r.path)) for r in disclosure.chunks] == [(2, 4, 1), (5, 6, 2)]
    return commitment, disclosure


def _with_run(disclosure, k, **changes):
    runs = list(disclosure.chunks)
    run = runs[k]
    fields = dict(index=run.index, salt=run.salt, data=run.data, path=run.path)
    fields.update(changes)
    runs[k] = RevealedRun(**fields)
    return Disclosure(disclosure.ranges, tuple(runs))


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _with_run(d, 1, path=(_flip(d.chunks[1].path[0]),) + d.chunks[1].path[1:]),
        lambda d: _with_run(d, 1, path=d.chunks[1].path[:-1]),
        lambda d: _with_run(d, 0, path=d.chunks[0].path + (bytes(32),)),
        lambda d: _with_run(d, 1, index=6),
        lambda d: _with_run(d, 0, index=1),
    ],
    ids=["flipped-subtree-hash", "dropped-subtree-hash", "extra-subtree-hash",
         "run-moved-right", "run-moved-left"],
)
def test_run_format_bad_path(mutate):
    commitment, disclosure = _runs_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure))
    assert err.value.reason == "bad-path"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _with_run(d, 1, index=3),
        lambda d: Disclosure(d.ranges, (d.chunks[0], d.chunks[0], d.chunks[1])),
        lambda d: Disclosure(d.ranges, tuple(reversed(d.chunks))),
        lambda d: Disclosure(d.ranges + ((64, 16),), d.chunks),
        lambda d: Disclosure(((32, 64),), d.chunks),
        lambda d: _with_run(d, 1, salt=d.chunks[1].salt * 4, data=d.chunks[1].data * 4),
        lambda d: _with_run(d, 0, index=-1),
    ],
    ids=["overlapping-runs", "duplicated-run", "runs-out-of-order", "range-not-covered",
         "range-spanning-a-gap", "run-past-the-end", "negative-index"],
)
def test_run_format_chunk_range_inconsistency(mutate):
    commitment, disclosure = _runs_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure))
    assert err.value.reason == "chunk-range-inconsistency"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _with_run(d, 0, data=d.chunks[0].data[:-1]),
        lambda d: _with_run(d, 0, data=d.chunks[0].data + b"\x00"),
        lambda d: _with_run(d, 0, salt=d.chunks[0].salt[:-1]),
        lambda d: _with_run(d, 0, salt=d.chunks[0].salt[:16]),
        lambda d: _with_run(d, 0, salt=b""),
    ],
    ids=["short-data", "long-data", "salt-not-whole", "salt-of-fewer-chunks", "no-salt"],
)
def test_run_format_length_mismatch(mutate):
    commitment, disclosure = _runs_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure))
    assert err.value.reason == "length-mismatch"


def test_full_disclosure_ships_no_subtree_hashes():
    rng = random.Random(9)
    data = rng.randbytes(1000)
    commitment, opening = commit(data, 16, rng)
    disclosure = disclose(opening, [(0, 1000)])
    assert [(r.index, r.end, r.path) for r in disclosure.chunks] == [(0, 63, ())]
    assert verify_disclosure(commitment, disclosure) == {(0, 1000): data}
