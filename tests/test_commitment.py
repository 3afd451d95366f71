import hashlib
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import grid
from vet.commitment import (
    SALT_LEN,
    Disclosure,
    RevealedRun,
    TranscriptCommitment,
    commit,
    disclose,
    leaf_hash,
    verify_disclosure,
)
from vet.errors import Rejected, ValidationError


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100, 257])
@pytest.mark.parametrize("chunk_size", [1, 7, 16])
def test_commit_disclose_round_trip(size, chunk_size):
    rng = random.Random(size * 1000 + chunk_size)
    data = rng.randbytes(size)
    lengths = grid(size, chunk_size)
    commitment, opening = commit(data, lengths, rng)
    assert commitment.total_length == size
    disclosure = disclose(opening)
    assert verify_disclosure(commitment, disclosure, lengths) == data
    assert b"".join(run.data for run in disclosure.chunks) == data


def test_empty_transcript_root():
    # No chunk, so no run.
    commitment, opening = commit(b"", [], random.Random(0))
    assert commitment.root == hashlib.sha256(b"VET/root:" + bytes(8)).digest()
    disclosure = disclose(opening)
    assert disclosure.to_obj() == {"chunks": []}
    assert verify_disclosure(commitment, disclosure, ()) == b""


def test_binding_mutations_rejected():
    rng = random.Random(42)
    data = rng.randbytes(128)
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    disclosure = disclose(opening)
    (run,) = disclosure.chunks
    rejected = 0
    trials = 500
    for _ in range(trials):
        mode = rng.randrange(4)
        if mode == 0:  # flip a data byte
            pos = rng.randrange(len(run.data))
            data2 = bytes(
                b ^ (1 << rng.randrange(8)) if k == pos else b
                for k, b in enumerate(run.data)
            )
            forged = RevealedRun(run.salt, data2, run.path)
        elif mode == 1:  # flip a salt byte
            pos = rng.randrange(len(run.salt))
            salt2 = bytes(b ^ 1 if k == pos else b for k, b in enumerate(run.salt))
            forged = RevealedRun(salt2, run.data, run.path)
        elif mode == 2:  # relocate the run: its bytes read some places off
            shift = rng.choice([-16, -1, 1, 7, 8])
            forged = RevealedRun(run.salt, run.data[shift:] + run.data[:shift], run.path)
        else:  # carry a hidden leaf
            forged = RevealedRun(run.salt, run.data, (rng.randbytes(32),))
        try:
            verify_disclosure(commitment, Disclosure((forged,)), lengths)
        except Rejected:
            rejected += 1
    assert rejected == trials


def test_hiding_chunks_are_salted_independently():
    # Committing the same plaintext twice with different randomness must
    # give unrelated roots and leaf hashes.
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
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    disclosure = disclose(opening)
    clone = Disclosure.from_obj(disclosure.to_obj())
    assert clone == disclosure
    assert verify_disclosure(commitment, clone, lengths) == data


def test_range_outside_cover_rejected():
    # The verifier's chunk lengths must cover the committed transcript
    # exactly: lengths of another sum are refused, short of it or past it.
    rng = random.Random(3)
    data = rng.randbytes(64)
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening)
    for lengths in [(80,), (16,), (), (64, 64), (32, 16), (16, 16, 16, 17)]:
        with pytest.raises(Rejected) as err:
            verify_disclosure(commitment, disclosure, lengths)
        assert err.value.reason == "length-mismatch"


def test_wrong_length_chunk_rejected():
    rng = random.Random(4)
    data = rng.randbytes(40)  # last chunk is 8 bytes
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    (c,) = disclose(opening).chunks
    padded = Disclosure((RevealedRun(c.salt, c.data + b"\x00" * 8, c.path),))
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, padded, lengths)
    assert err.value.reason == "length-mismatch"


WHOLE_LENGTHS = (16,) * 8


def _whole_case():
    """Eight chunks of 16 bytes, disclosed whole: one run from chunk 0."""
    rng = random.Random(8)
    data = rng.randbytes(128)
    commitment, opening = commit(data, WHOLE_LENGTHS, rng)
    disclosure = disclose(opening)
    assert [(len(r.salt), r.path) for r in disclosure.chunks] == [(8 * SALT_LEN, ())]
    return commitment, disclosure


def _with_run(disclosure, **changes):
    (run,) = disclosure.chunks
    fields = dict(salt=run.salt, data=run.data, path=run.path)
    fields.update(changes)
    return Disclosure((RevealedRun(**fields),))


def _split(disclosure, first, second, gap=False):
    """The run cut into chunks ``0 .. first - 1`` and ``second .. 7``; with
    ``gap`` the second carries the correct leaves of the chunks between."""
    (run,) = disclosure.chunks
    leaves = tuple(
        leaf_hash(run.salt[i * SALT_LEN:(i + 1) * SALT_LEN], run.data[16 * i:16 * i + 16])
        for i in range(first, second)
    )
    return Disclosure(
        (
            RevealedRun(run.salt[:first * SALT_LEN], run.data[:16 * first], ()),
            RevealedRun(
                run.salt[second * SALT_LEN:], run.data[16 * second:], leaves if gap else ()
            ),
        ),
    )


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _with_run(d, path=(bytes(32),)),
        lambda d: _with_run(d, data=_flip(d.chunks[0].data)),
        lambda d: _with_run(d, salt=_flip(d.chunks[0].salt)),
        lambda d: _with_run(d, data=d.chunks[0].data[-1:] + d.chunks[0].data[:-1]),
        lambda d: _with_run(d, data=d.chunks[0].data[1:] + d.chunks[0].data[:1]),
    ],
    ids=["extra-subtree-hash", "flipped-data", "flipped-salt", "run-moved-right",
         "run-moved-left"],
)
def test_run_format_bad_path(mutate):
    # A moved run is its bytes read one place off: the leaves bind each
    # chunk's bytes where the committed lengths put it.
    commitment, disclosure = _whole_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure), WHOLE_LENGTHS)
    assert err.value.reason == "bad-path"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _split(d, 5, 4),
        lambda d: Disclosure((d.chunks[0], d.chunks[0])),
        lambda d: Disclosure(tuple(reversed(_split(d, 3, 3).chunks))),
        lambda d: Disclosure(()),
        lambda d: _split(d, 3, 4, gap=True),
        lambda d: Disclosure((d.chunks[0], RevealedRun(b"", b"", ()))),
        lambda d: Disclosure((RevealedRun(b"", b"", ()), d.chunks[0])),
    ],
    ids=["overlapping-runs", "duplicated-run", "runs-out-of-order", "range-not-covered",
         "range-spanning-a-gap", "run-past-the-end", "negative-index"],
)
def test_run_format_chunk_range_inconsistency(mutate):
    # Runs carry no index: one past the end or before the start is an
    # empty run after or before the whole one, and no run covers nothing.
    commitment, disclosure = _whole_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure), WHOLE_LENGTHS)
    assert err.value.reason == "chunk-range-inconsistency"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _with_run(d, data=d.chunks[0].data[:-1]),
        lambda d: _with_run(d, data=d.chunks[0].data + b"\x00"),
        lambda d: _with_run(d, salt=d.chunks[0].salt[:-1]),
        lambda d: _with_run(d, salt=d.chunks[0].salt[:16]),
        lambda d: _with_run(d, salt=b""),
    ],
    ids=["short-data", "long-data", "salt-not-whole", "salt-of-fewer-chunks", "no-salt"],
)
def test_run_format_length_mismatch(mutate):
    commitment, disclosure = _whole_case()
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, mutate(disclosure), WHOLE_LENGTHS)
    assert err.value.reason == "length-mismatch"


def test_full_disclosure_ships_no_subtree_hashes():
    rng = random.Random(9)
    data = rng.randbytes(1000)
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    disclosure = disclose(opening)
    assert [(len(r.salt) // SALT_LEN, r.path) for r in disclosure.chunks] == [(63, ())]
    assert verify_disclosure(commitment, disclosure, lengths) == data


# ---------------------------------------------------------------------------
# Chunks of variable length.

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
chunk_lengths = st.lists(st.integers(1, 40) | st.just(1), min_size=1, max_size=24)


@st.composite
def variable_disclosures(draw):
    """A transcript cut into chunks of random lengths, length-1 chunks and
    a single chunk included, disclosed whole."""
    lengths = draw(chunk_lengths)
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = rng.randbytes(sum(lengths))
    commitment, opening = commit(data, lengths, rng)
    return data, tuple(lengths), commitment, disclose(opening)


@SETTINGS
@given(variable_disclosures())
def test_variable_chunks_verify_to_the_committed_bytes(case):
    data, lengths, commitment, disclosure = case
    assert TranscriptCommitment.from_obj(commitment.to_obj()) == commitment
    assert Disclosure.from_obj(disclosure.to_obj()) == disclosure
    assert verify_disclosure(commitment, disclosure, lengths) == data


@st.composite
def hidden_length_shifts(draw):
    """Chunks ``h1 < h2`` and the same lengths with ``d`` bytes moved
    between them: the sum stays, and every chunk between them starts
    ``d`` bytes off."""
    lengths = draw(st.lists(st.integers(1, 40) | st.just(1), min_size=2, max_size=24))
    h1 = draw(st.integers(0, len(lengths) - 2))
    h2 = draw(st.integers(h1 + 1, len(lengths) - 1))
    lengths[h1] += 1  # so at least one byte can move either way
    rng = random.Random(draw(st.integers(0, 2**32)))
    commitment, opening = commit(rng.randbytes(sum(lengths)), lengths, rng)
    source, target = (h1, h2) if lengths[h2] < 2 or draw(st.booleans()) else (h2, h1)
    d = draw(st.integers(1, lengths[source] - 1))
    shifted = list(lengths)
    shifted[source] -= d
    shifted[target] += d
    return commitment, tuple(shifted), disclose(opening)


def _swapped_around_a_chunk():
    """Chunks of 8 and 6 bytes around another, claimed as 6 and 8: the
    chunk between would read back from byte 10, not 12."""
    rng = random.Random(12)
    commitment, opening = commit(rng.randbytes(22), [4, 8, 4, 6], rng)
    return commitment, (4, 6, 4, 8), disclose(opening)


@SETTINGS
@example(_swapped_around_a_chunk())
@given(hidden_length_shifts())
def test_hidden_lengths_changed_with_the_sum_kept_are_a_bad_path(case):
    # The root binds the chunk lengths, so other lengths with the same sum
    # do not authenticate the same disclosure.
    commitment, shifted, disclosure = case
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, disclosure, shifted)
    assert err.value.reason == "bad-path"


def test_hidden_leaves_of_other_than_32_bytes_are_a_bad_path():
    # Leaves 0 and 1 as one 64-byte hash and an empty one join to the
    # committed root input; a whole run carries no hidden leaf of any size.
    rng = random.Random(15)
    data = rng.randbytes(48)
    commitment, opening = commit(data, [16, 16, 16], rng)
    l0, l1 = (leaf_hash(opening.salts[i], data[16 * i:16 * i + 16]) for i in (0, 1))
    (run,) = disclose(opening).chunks
    for path in [(l0 + l1, b""), (l0[:31],), (l0,)]:
        forged = Disclosure((RevealedRun(run.salt, run.data, path),))
        with pytest.raises(Rejected) as err:
            verify_disclosure(commitment, forged, (16, 16, 16))
        assert err.value.reason == "bad-path"
        assert "hidden leaves" in err.value.detail


def test_root_hashes_the_count_the_lengths_and_the_leaves():
    rng = random.Random(14)
    data = rng.randbytes(9)
    commitment, opening = commit(data, [2, 7], rng)
    leaves = [
        hashlib.sha256(b"VET/leaf:" + opening.salts[0] + data[:2]).digest(),
        hashlib.sha256(b"VET/leaf:" + opening.salts[1] + data[2:]).digest(),
    ]
    expected = hashlib.sha256(
        b"VET/root:" + (2).to_bytes(8, "big") + (2).to_bytes(8, "big")
        + (7).to_bytes(8, "big") + b"".join(leaves)
    ).digest()
    assert commitment.root == expected


@SETTINGS
@given(variable_disclosures(), st.data())
def test_variable_chunks_reject_a_flipped_bit_and_a_moved_run(case, choose):
    _, lengths, commitment, disclosure = case
    (run,) = disclosure.chunks
    bit = choose.draw(st.integers(0, 8 * len(run.data) - 1))
    flipped = bytearray(run.data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(Rejected) as err:
        verify_disclosure(commitment, _with_run(disclosure, data=bytes(flipped)), lengths)
    assert err.value.reason == "bad-path"
    # The run moved: its bytes read some places off, unless they read the same.
    moved = choose.draw(st.integers(1, len(run.data)))
    data = run.data[moved:] + run.data[:moved]
    if data != run.data:
        with pytest.raises(Rejected):
            verify_disclosure(commitment, _with_run(disclosure, data=data), lengths)


@SETTINGS
@given(chunk_lengths, st.integers(-3, 3).filter(bool))
def test_chunk_lengths_must_sum_to_the_total(lengths, off):
    # The commitment decodes with any total; the verifier's chunk lengths
    # must sum to it.
    rng = random.Random(len(lengths))
    commitment, opening = commit(rng.randbytes(sum(lengths)), lengths, rng)
    obj = commitment.to_obj()
    obj["total_length"] = str(max(0, commitment.total_length + off))
    forged = TranscriptCommitment.from_obj(obj)
    with pytest.raises(Rejected) as err:
        verify_disclosure(forged, disclose(opening), tuple(lengths))
    assert err.value.reason == "length-mismatch"
    with pytest.raises(ValidationError):
        commit(rng.randbytes(max(0, sum(lengths) + off)), lengths, rng)


@pytest.mark.parametrize("lengths", [["0", "4"], ["4", "0"], ["-1", "5"]])
def test_chunk_lengths_below_one_do_not_decode(lengths):
    # A commitment lists no chunk lengths, so one that does, of any value,
    # does not decode; and no chunk is committed shorter than one byte.
    obj = {"root": "00" * 32, "chunk_lengths": lengths, "total_length": "4"}
    with pytest.raises(ValidationError):
        TranscriptCommitment.from_obj(obj)
    with pytest.raises(ValidationError):
        commit(b"abcd", [int(n) for n in lengths], random.Random(0))
