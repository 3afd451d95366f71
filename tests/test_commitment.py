import hashlib
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import grid
from vet.commitment import (
    Disclosure,
    RevealedRun,
    TranscriptCommitment,
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
    commitment, opening = commit(data, grid(size, chunk_size), rng)
    assert commitment.total_length == size
    assert recommit(opening) == commitment.root
    disclosure = disclose(opening, [(0, size)])
    revealed = verify_disclosure(commitment, disclosure)
    if size:
        assert revealed[(0, size)] == data
    by_offset = disclosed_bytes(commitment, disclosure)
    assert b"".join(by_offset[k] for k in sorted(by_offset)) == data


def test_empty_transcript_root():
    commitment, opening = commit(b"", [], random.Random(0))
    assert commitment.root == hashlib.sha256(b"VET/root:" + bytes(8)).digest()
    assert verify_disclosure(commitment, disclose(opening, [])) == {}


def test_partial_disclosure_reveals_only_cover():
    rng = random.Random(7)
    data = rng.randbytes(100)
    commitment, opening = commit(data, grid(len(data), 16), rng)
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
        cover = chunk_cover(ranges, grid(total, chunk_size))
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
    commitment, opening = commit(data, grid(len(data), 16), rng)
    # Runs at chunks 0-2, 4 and 7: the later two carry hidden leaves.
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
        else:  # corrupt a hidden leaf
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
    c1, o1 = commit(data, grid(len(data), 16), random.Random(1))
    c2, o2 = commit(data, grid(len(data), 16), random.Random(2))
    assert c1.root != c2.root
    assert leaf_hash(o1.salts[0], data[:16]) != leaf_hash(o2.salts[0], data[:16])
    # Equal chunks inside one commitment also have distinct leaves.
    assert leaf_hash(o1.salts[0], data[:16]) != leaf_hash(o1.salts[1], data[16:32])


def test_disclosure_serialization_round_trip():
    rng = random.Random(5)
    data = rng.randbytes(50)
    commitment, opening = commit(data, grid(len(data), 16), rng)
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
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening, [(0, 16)])
    widened = Disclosure(ranges=((0, 32),), chunks=disclosure.chunks)
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, widened)
    assert err.value.reason == "chunk-range-inconsistency"


def test_wrong_length_chunk_rejected():
    rng = random.Random(4)
    data = rng.randbytes(40)  # last chunk is 8 bytes
    commitment, opening = commit(data, grid(len(data), 16), rng)
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
    run carries the leaves of chunks 0 and 1, the second chunk 4's before
    it and those of chunks 6 and 7 after it."""
    rng = random.Random(8)
    data = rng.randbytes(128)
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening, [(32, 32), (80, 16)])
    assert [(r.index, r.end, len(r.path)) for r in disclosure.chunks] == [(2, 4, 2), (5, 6, 3)]
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
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening, [(0, 1000)])
    assert [(r.index, r.end, r.path) for r in disclosure.chunks] == [(0, 63, ())]
    assert verify_disclosure(commitment, disclosure) == {(0, 1000): data}


# ---------------------------------------------------------------------------
# Chunks of variable length.

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
chunk_lengths = st.lists(st.integers(1, 40) | st.just(1), min_size=1, max_size=24)


@st.composite
def variable_disclosures(draw):
    """A transcript cut into chunks of random lengths, length-1 chunks and
    a single chunk included, with random byte ranges disclosed."""
    lengths = draw(chunk_lengths)
    total = sum(lengths)
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = rng.randbytes(total)
    commitment, opening = commit(data, lengths, rng)
    ranges = []
    for _ in range(draw(st.integers(0, 4))):
        offset = draw(st.integers(0, total))
        ranges.append((offset, draw(st.integers(0, total - offset))))
    return data, commitment, disclose(opening, ranges)


@SETTINGS
@given(variable_disclosures())
def test_variable_chunks_verify_to_the_committed_bytes(case):
    data, commitment, disclosure = case
    assert TranscriptCommitment.from_obj(commitment.to_obj()) == commitment
    assert Disclosure.from_obj(disclosure.to_obj()) == disclosure
    out = verify_disclosure(commitment, disclosure)
    assert out == {(o, n): data[o:o + n] for o, n in disclosure.ranges}
    for offset, run in disclosed_bytes(commitment, disclosure).items():
        assert run == data[offset:offset + len(run)]


@st.composite
def hidden_length_shifts(draw):
    """Chunks ``h1 < r < h2`` with ``r`` revealed and ``h1``, ``h2`` hidden,
    and the same lengths with ``d`` bytes moved between ``h1`` and ``h2``:
    the sum stays, and the revealed chunk starts ``d`` bytes off."""
    lengths = draw(st.lists(st.integers(1, 40) | st.just(1), min_size=3, max_size=24))
    h1 = draw(st.integers(0, len(lengths) - 3))
    h2 = draw(st.integers(h1 + 2, len(lengths) - 1))
    lengths[h1] += 1  # so at least one byte can move either way
    reveal = {i for i in range(len(lengths)) if i not in (h1, h2) and draw(st.booleans())}
    reveal.add(draw(st.integers(h1 + 1, h2 - 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = rng.randbytes(sum(lengths))
    commitment, opening = commit(data, lengths, rng)
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    disclosure = disclose(opening, [(starts[i], lengths[i]) for i in reveal])
    source, target = (h1, h2) if lengths[h2] < 2 or draw(st.booleans()) else (h2, h1)
    d = draw(st.integers(1, lengths[source] - 1))
    shifted = list(lengths)
    shifted[source] -= d
    shifted[target] += d
    forged = TranscriptCommitment(commitment.root, tuple(shifted), commitment.total_length)
    return forged, disclosure


def _swapped_around_a_revealed_chunk():
    """Hidden chunks of 8 and 6 bytes around a revealed one, claimed as 6
    and 8: the revealed chunk would read back from byte 10, not 12."""
    rng = random.Random(12)
    commitment, opening = commit(rng.randbytes(22), [4, 8, 4, 6], rng)
    forged = TranscriptCommitment(commitment.root, (4, 6, 4, 8), commitment.total_length)
    return forged, disclose(opening, [(0, 4), (12, 4)])


@SETTINGS
@example(_swapped_around_a_revealed_chunk())
@given(hidden_length_shifts())
def test_hidden_lengths_changed_with_the_sum_kept_are_a_bad_path(case):
    forged, disclosure = case
    assert TranscriptCommitment.from_obj(forged.to_obj()) == forged  # it decodes
    with pytest.raises(Rejected) as err:
        verify_disclosure(forged, disclosure)
    assert err.value.reason == "bad-path"


def test_hidden_lengths_swapped_inside_one_gap_are_a_bad_path():
    # Hidden chunks 1 and 2 lie in one gap, so no revealed byte moves when
    # their lengths are swapped; the root binds the lengths all the same.
    rng = random.Random(13)
    commitment, opening = commit(rng.randbytes(22), [4, 8, 6, 4], rng)
    disclosure = disclose(opening, [(0, 4), (18, 4)])
    verify_disclosure(commitment, disclosure)
    forged = TranscriptCommitment(commitment.root, (4, 6, 8, 4), commitment.total_length)
    with pytest.raises(Rejected) as err:
        verify_disclosure(forged, disclosure)
    assert err.value.reason == "bad-path"


def test_hidden_leaves_of_other_than_32_bytes_are_a_bad_path():
    # A leaf binds no position. Shipping leaves 0 and 1 as one 64-byte
    # hash and an empty one after the run joins to the committed root
    # input, which would let chunk 2's salt and bytes pass as chunk 1.
    rng = random.Random(15)
    data = rng.randbytes(48)
    commitment, opening = commit(data, [16, 16, 16], rng)
    l0, l1, _ = opening.leaves
    forged = Disclosure(
        ((16, 16),), (RevealedRun(1, opening.salts[2], data[32:], (l0 + l1, b"")),)
    )
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, forged)
    assert err.value.reason == "bad-path"
    assert "not of 32 bytes" in err.value.detail


def test_root_hashes_the_count_the_lengths_and_the_leaves():
    rng = random.Random(14)
    data = rng.randbytes(9)
    commitment, opening = commit(data, [2, 7], rng)
    leaves = [
        hashlib.sha256(b"VET/leaf:" + opening.salts[0] + data[:2]).digest(),
        hashlib.sha256(b"VET/leaf:" + opening.salts[1] + data[2:]).digest(),
    ]
    assert list(opening.leaves) == leaves
    expected = hashlib.sha256(
        b"VET/root:" + (2).to_bytes(8, "big") + (2).to_bytes(8, "big")
        + (7).to_bytes(8, "big") + b"".join(leaves)
    ).digest()
    assert commitment.root == expected


@SETTINGS
@given(variable_disclosures(), st.data())
def test_variable_chunks_reject_a_flipped_bit_and_a_moved_run(case, choose):
    _, commitment, disclosure = case
    if not disclosure.chunks:
        return
    k = choose.draw(st.integers(0, len(disclosure.chunks) - 1))
    run = disclosure.chunks[k]
    bit = choose.draw(st.integers(0, 8 * len(run.data) - 1))
    flipped = bytearray(run.data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, _with_run(disclosure, k, data=bytes(flipped)))
    assert err.value.reason == "bad-path"
    n = len(commitment.chunk_lengths)
    moved = choose.draw(st.integers(-1, n).filter(lambda i: i != run.index))
    with pytest.raises(Rejected):
        verify_disclosure(commitment, _with_run(disclosure, k, index=moved))


@SETTINGS
@given(chunk_lengths, st.integers(-3, 3).filter(bool))
def test_chunk_lengths_must_sum_to_the_total(lengths, off):
    rng = random.Random(len(lengths))
    commitment, _ = commit(rng.randbytes(sum(lengths)), lengths, rng)
    obj = commitment.to_obj()
    obj["total_length"] = str(max(0, commitment.total_length + off))
    with pytest.raises(ValidationError):
        TranscriptCommitment.from_obj(obj)
    with pytest.raises(ValidationError):
        commit(rng.randbytes(max(0, sum(lengths) + off)), lengths, rng)


@pytest.mark.parametrize("lengths", [["0", "4"], ["4", "0"], ["-1", "5"]])
def test_chunk_lengths_below_one_do_not_decode(lengths):
    obj = {"root": "00" * 32, "chunk_lengths": lengths, "total_length": "4"}
    with pytest.raises(ValidationError):
        TranscriptCommitment.from_obj(obj)
    with pytest.raises(ValidationError):
        commit(b"abcd", [int(n) for n in lengths])
