"""Differential tests: the slice- and run-at-a-time verifier paths against
the per-byte and per-chunk loops they replaced, kept here as oracles.

Each test draws honest inputs, optionally applies one mutation, and
requires the same outcome from both sides: the same result on
acceptance, or the same exception type, reject reason and detail.
Disclosures are the exception, because their format changed from one
entry per chunk to one per run: the oracle verifies the per-chunk
disclosure of the same ranges (each revealed chunk on its own, and the
leaf of every hidden chunk by index), and a mutated run disclosure must be
rejected or yield exactly the committed bytes from 32-byte hidden leaves. The commitments here are
cut on a fixed grid (``conftest.grid``), the chunking of the per-chunk
format; the oracle reads each chunk's offset and length from the list.
"""

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import grid
from vet import frames, toytls
from vet.agent_model import (
    ExecutionTrace,
    StepRecord,
    ToolCall,
    rebuild_transcript,
    run_agent,
    transcript_prefixes,
)
from vet.canonical import canonical_bytes
from vet.composer import core_input, invocations
from vet.commitment import (
    SALT_LEN,
    Disclosure,
    RevealedRun,
    chunk_cover,
    commit,
    disclose,
    normalize_ranges,
    verify_disclosure,
)
from vet.tee_proxy import _match_tee_request
from vet.errors import ProtocolError, Rejected, ValidationError
from vet.templates import InjectTemplate, extract_input, match_request, render
from vet.webproof import _check_records

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def outcome(fn, *args):
    """What a call did: its result, or its exception type and message."""
    try:
        return ("ok", fn(*args))
    except Rejected as exc:
        return ("rejected", exc.reason, exc.detail)
    except (ProtocolError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Oracles: the implementations the fast paths replaced.


def old_keystream(key, length):
    # The construction itself (format 5 on); what the oracles below keep
    # is the per-byte XOR that the int-XOR fast path replaced.
    return hashlib.shake_256(b"VET/ks:" + key).digest(length)


def old_tag(key, plaintext):
    # Format 7: encrypt-and-MAC, the tag over the plaintext.
    return hashlib.sha256(b"VET/mac:" + key + plaintext).digest()


def old_seal_record(key, plaintext):
    ct = bytes(a ^ b for a, b in zip(plaintext, old_keystream(key, len(plaintext))))
    return ct + old_tag(key, plaintext)


def old_open_record(key, wire):
    if len(wire) < toytls.TAG_LEN:
        raise ProtocolError("record shorter than MAC tag")
    ct, tag = wire[:-toytls.TAG_LEN], wire[-toytls.TAG_LEN:]
    plaintext = bytes(a ^ b for a, b in zip(ct, old_keystream(key, len(ct))))
    if old_tag(key, plaintext) != tag:
        raise ProtocolError("record MAC check failed")
    return plaintext


@dataclass(frozen=True)
class RevealedChunk:
    """A disclosed chunk of the per-chunk format."""

    index: int
    salt: bytes
    data: bytes


@dataclass(frozen=True)
class ChunkDisclosure:
    """The per-chunk format: each revealed chunk on its own, and the leaf
    hash of every hidden chunk keyed by its index."""

    ranges: tuple[tuple[int, int], ...]
    chunks: tuple[RevealedChunk, ...]
    hidden: dict


def offsets_of(chunk_lengths):
    return list(accumulate(chunk_lengths, initial=0))


def old_leaf(salt, chunk):
    return hashlib.sha256(b"VET/leaf:" + salt + chunk).digest()


def old_disclose(opening, ranges):
    norm = normalize_ranges(ranges, len(opening.plaintext))
    cover = chunk_cover(norm, opening.chunk_lengths)
    offsets = offsets_of(opening.chunk_lengths)
    chunks = [
        opening.plaintext[offsets[i]:offsets[i + 1]] for i in range(len(opening.chunk_lengths))
    ]
    revealed = tuple(RevealedChunk(i, opening.salts[i], chunks[i]) for i in cover)
    hidden = {
        i: old_leaf(opening.salts[i], c) for i, c in enumerate(chunks) if i not in cover
    }
    return ChunkDisclosure(tuple(norm), revealed, hidden)


def old_verify_disclosure(commitment, disclosure):
    n = len(commitment.chunk_lengths)
    offsets = offsets_of(commitment.chunk_lengths)
    by_index = {}
    for chunk in disclosure.chunks:
        if not 0 <= chunk.index < n:
            raise Rejected("chunk-range-inconsistency", f"chunk index {chunk.index} out of range")
        if chunk.index in by_index or chunk.index in disclosure.hidden:
            raise Rejected("chunk-range-inconsistency", f"duplicate chunk {chunk.index}")
        if len(chunk.salt) != SALT_LEN or len(chunk.data) != commitment.chunk_lengths[chunk.index]:
            raise Rejected("length-mismatch", f"chunk {chunk.index} has wrong length")
        by_index[chunk.index] = chunk
    if sorted([*by_index, *disclosure.hidden]) != list(range(n)):
        raise Rejected("bad-path", "revealed and hidden chunks do not cover the transcript")
    if any(len(leaf) != 32 for leaf in disclosure.hidden.values()):
        raise Rejected("bad-path", "a hidden leaf is not 32 bytes")
    root = hashlib.sha256(b"VET/root:" + n.to_bytes(8, "big"))
    for length in commitment.chunk_lengths:
        root.update(length.to_bytes(8, "big"))
    for i in range(n):
        chunk = by_index.get(i)
        root.update(old_leaf(chunk.salt, chunk.data) if chunk else disclosure.hidden[i])
    if root.digest() != commitment.root:
        raise Rejected("bad-path", "chunks do not authenticate to the root")
    try:
        needed = chunk_cover(list(disclosure.ranges), commitment.chunk_lengths)
    except ValidationError as exc:
        raise Rejected("chunk-range-inconsistency", str(exc))
    missing = [i for i in needed if i not in by_index]
    if missing:
        raise Rejected("chunk-range-inconsistency", f"ranges not covered, missing chunks {missing}")
    out = {}
    for offset, length in disclosure.ranges:
        parts = []
        pos = offset
        end = offset + length
        while pos < end:
            index = bisect_right(offsets, pos) - 1
            chunk = by_index[index]
            start_in_chunk = pos - offsets[index]
            take = min(end - pos, len(chunk.data) - start_in_chunk)
            parts.append(chunk.data[start_in_chunk:start_in_chunk + take])
            pos += take
        out[(offset, length)] = b"".join(parts)
    return out


def old_check_records(lengths, record_keys, direction, data, reason, secret, withheld):
    total = sum(lengths)
    if total != len(data):
        raise Rejected(reason, f"{direction} records carry {total} bytes, the proof {len(data)}")
    if len(withheld) != len(secret):
        raise Rejected(
            reason, f"the proof withholds {len(withheld)} tags for {len(secret)} secret records"
        )
    tags = []
    offset = 0
    for index, length in enumerate(lengths):
        plaintext = bytes(data[offset + k] for k in range(length))
        offset += length
        key = record_keys.get((direction, index))
        if index in secret:
            if key is not None:
                raise Rejected(reason, f"{direction} record {index} is secret but has a key")
            tags.append(withheld[sorted(secret).index(index)])
            continue
        if key is None:
            raise Rejected(reason, f"{direction} record {index} has no key")
        # The oracle re-seals the record, as the verifier did before
        # format 7, and reads the tag off the wire.
        tags.append(old_seal_record(key, plaintext)[-toytls.TAG_LEN:])
    for (d, index) in record_keys:
        if d == direction and index >= len(lengths):
            raise Rejected("cipher-mismatch", f"key for nonexistent {direction} record {index}")
    return tags


def old_render(template, x):
    """``render`` as a verifier calls it: an input the template cannot hold
    is a template mismatch."""
    try:
        return render(template, x, {})
    except ValidationError as exc:
        raise Rejected("template-mismatch", str(exc))


def old_match_request(template, x, total_length):
    expected, spans = old_render(template, x)
    if len(expected) != total_length:
        raise Rejected(
            "template-mismatch",
            f"rendered length {len(expected)} != declared length {total_length}",
        )
    # Walk the rendering byte by byte: a record ends where a secret span
    # begins or ends, or at RECORD_MAX bytes.
    secret_bytes = set()
    for offset, length in spans.values():
        secret_bytes.update(range(offset, offset + length))
    lengths, inside = [], set()
    run = 0
    for pos in range(len(expected)):
        edge = pos > 0 and (pos in secret_bytes) != (pos - 1 in secret_bytes)
        if run and (edge or run == toytls.RECORD_MAX):
            lengths.append(run)
            run = 0
        if not run and pos in secret_bytes:
            inside.add(len(lengths))
        run += 1
    if run:
        lengths.append(run)
    return expected, lengths, frozenset(inside)


def old_match_tee_request(template, request_bytes):
    try:
        x = extract_input(template, request_bytes)
    except ValidationError as exc:
        raise Rejected("parse-failure", str(exc))
    expected, spans = old_render(template, x)
    if len(expected) != len(request_bytes):
        raise Rejected("template-mismatch", "attested request length differs from template")
    secret = set()
    for offset, length in spans.values():
        secret.update(range(offset, offset + length))
    for i, (a, b) in enumerate(zip(request_bytes, expected)):
        if i not in secret and a != b:
            raise Rejected("template-mismatch", f"attested request byte {i} differs")
    return x


def old_check_scalars(obj, path):
    if obj is None or isinstance(obj, (str, bool)):
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValidationError(f"non-string key at {path or '/'}")
            old_check_scalars(value, f"{path}/{key}")
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            old_check_scalars(item, f"{path}/{i}")
        return
    if isinstance(obj, (int, float)):
        raise ValidationError(f"number at {path or '/'}: encode scalars as strings")
    raise ValidationError(f"unserializable type {type(obj).__name__} at {path or '/'}")


# ---------------------------------------------------------------------------
# Record crypto.


@SETTINGS
@given(st.binary(min_size=32, max_size=32), st.binary(max_size=2000), st.integers(0, 2063))
def test_seal_open_match_oracle(key, plaintext, flip):
    wire = toytls.seal_record(key, plaintext)
    assert wire == old_seal_record(key, plaintext)
    assert outcome(toytls.open_record, key, wire) == outcome(old_open_record, key, wire)
    tampered = bytearray(wire)
    tampered[flip % len(wire)] ^= 1
    tampered = bytes(tampered)
    assert outcome(toytls.open_record, key, tampered) == outcome(old_open_record, key, tampered)
    short = wire[: flip % toytls.TAG_LEN]
    assert outcome(toytls.open_record, key, short) == outcome(old_open_record, key, short)


# ---------------------------------------------------------------------------
# Frame counting: the header walk against counting the decoded frames.


def old_count_type(data, ftype):
    return sum(1 for found, _ in frames.decode_all(data) if found == ftype)


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(1, 5), st.binary(max_size=40)), max_size=12),
    st.integers(1, 5),
    st.one_of(st.none(), st.integers(0, 600)),
)
def test_count_type_matches_decode_all(parts, ftype, cut):
    data = b"".join(frames.encode(t, payload) for t, payload in parts)
    if cut is not None:
        data = data[: cut % (len(data) + 1)]  # cut short, possibly mid-header
    assert outcome(frames.count_type, data, ftype) == outcome(old_count_type, data, ftype)


# ---------------------------------------------------------------------------
# Commitments.

MUTATIONS = (
    "none", "data", "salt", "index", "path-node", "path-short", "path-extra",
    "swap", "swap-paths", "duplicate", "drop", "split", "extra-range", "empty-range",
    "path-regroup",
)


@st.composite
def disclosures(draw):
    size = draw(st.integers(0, 300))
    chunk_size = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = rng.randbytes(size)
    commitment, opening = commit(data, grid(size, chunk_size), rng)
    ranges = []
    for _ in range(draw(st.integers(0, 4))):
        offset = draw(st.integers(0, size))
        ranges.append((offset, draw(st.integers(0, size - offset))))
    if draw(st.booleans()):
        ranges.append((0, size))
    return commitment, opening, ranges, draw(st.sampled_from(MUTATIONS)), rng


def per_chunk(disclosure, chunk_lengths):
    """(index, salt, data) of every chunk a run or per-chunk disclosure reveals."""
    offsets = offsets_of(chunk_lengths)
    return [
        (
            entry.index + k,
            entry.salt[k * SALT_LEN:(k + 1) * SALT_LEN],
            entry.data[
                offsets[entry.index + k] - offsets[entry.index]:
                offsets[entry.index + k + 1] - offsets[entry.index]
            ],
        )
        for entry in disclosure.chunks
        for k in range(len(entry.salt) // SALT_LEN)
    ]


def mutate(disclosure, commitment, mutation, rng):
    """One mutation of a run disclosure."""
    runs = list(disclosure.chunks)
    ranges = list(disclosure.ranges)
    n = len(commitment.chunk_lengths)
    if runs:
        i = rng.randrange(len(runs))
        c = runs[i]
        if mutation == "data" and c.data:
            k = rng.randrange(len(c.data))
            flipped = c.data[:k] + bytes([c.data[k] ^ 1]) + c.data[k + 1:]
            runs[i] = RevealedRun(c.index, c.salt, flipped, c.path)
        elif mutation == "salt":
            k = rng.randrange(len(c.salt))
            flipped = c.salt[:k] + bytes([c.salt[k] ^ 1]) + c.salt[k + 1:]
            runs[i] = RevealedRun(c.index, flipped, c.data, c.path)
        elif mutation == "index":
            other = rng.choice([c.index - 1, c.index + 1, rng.randrange(-1, n + 1)])
            runs[i] = RevealedRun(other, c.salt, c.data, c.path)
        elif mutation == "path-node" and c.path:
            j = rng.randrange(len(c.path))
            path = tuple(bytes(b ^ 1 for b in p) if k == j else p for k, p in enumerate(c.path))
            runs[i] = RevealedRun(c.index, c.salt, c.data, path)
        elif mutation == "path-short" and c.path:
            j = rng.randrange(len(c.path))
            runs[i] = RevealedRun(c.index, c.salt, c.data, c.path[:j] + c.path[j + 1:])
        elif mutation == "path-extra":
            j = rng.randrange(len(c.path) + 1)
            extra = rng.choice([bytes(32), *c.path])
            runs[i] = RevealedRun(c.index, c.salt, c.data, c.path[:j] + (extra,) + c.path[j:])
        elif mutation == "path-regroup" and c.path:
            # The same hidden-leaf bytes cut at other points, so the run
            # still carries as many entries and they join to the same input.
            joined = b"".join(c.path)
            cuts = sorted(rng.randrange(len(joined) + 1) for _ in range(len(c.path) - 1))
            bounds = [0, *cuts, len(joined)]
            path = tuple(joined[a:b] for a, b in zip(bounds, bounds[1:]))
            runs[i] = RevealedRun(c.index, c.salt, c.data, path)
        elif mutation == "swap" and len(runs) > 1:
            j = rng.randrange(len(runs))
            runs[i], runs[j] = runs[j], runs[i]
        elif mutation == "swap-paths" and len(runs) > 1:
            j = rng.randrange(len(runs))
            a, b = runs[i], runs[j]
            runs[i] = RevealedRun(a.index, a.salt, a.data, b.path)
            runs[j] = RevealedRun(b.index, b.salt, b.data, a.path)
        elif mutation == "duplicate":
            runs.insert(rng.randrange(len(runs) + 1), c)
        elif mutation == "drop":
            del runs[i]
        elif mutation == "split" and len(c.salt) > SALT_LEN:
            # Two abutting runs where the prover made one.
            cut = SALT_LEN * rng.randrange(1, len(c.salt) // SALT_LEN)
            offsets = offsets_of(commitment.chunk_lengths)
            at = offsets[c.index + cut // SALT_LEN] - offsets[c.index]
            runs[i:i + 1] = [
                RevealedRun(c.index, c.salt[:cut], c.data[:at], c.path),
                RevealedRun(c.index + cut // SALT_LEN, c.salt[cut:], c.data[at:], ()),
            ]
    if mutation == "extra-range":
        total = commitment.total_length
        offset = rng.randrange(total + 2)
        ranges.append((offset, rng.randrange(total + 2)))
    elif mutation == "empty-range":
        ranges.append((rng.randrange(commitment.total_length + 1), 0))
    return Disclosure(ranges=tuple(ranges), chunks=tuple(runs))


@SETTINGS
@given(disclosures())
def test_disclose_and_verify_disclosure_match_oracle(case):
    commitment, opening, ranges, mutation, rng = case
    disclosure = disclose(opening, ranges)
    oracle = old_disclose(opening, ranges)
    # The runs reveal exactly the chunks the per-chunk disclosure reveals,
    # and read back to the same range bytes.
    assert per_chunk(disclosure, opening.chunk_lengths) == per_chunk(oracle, opening.chunk_lengths)
    assert outcome(verify_disclosure, commitment, disclosure) == outcome(
        old_verify_disclosure, commitment, oracle
    )
    assert outcome(verify_disclosure, commitment, disclosure)[0] == "ok"
    mutated = mutate(disclosure, commitment, mutation, rng)
    result = outcome(verify_disclosure, commitment, mutated)
    if result[0] == "ok":
        data = opening.plaintext
        assert result[1] == {(o, k): data[o:o + k] for o, k in mutated.ranges}
        assert all(len(leaf) == 32 for run in mutated.chunks for leaf in run.path)
    else:
        assert result[0] == "rejected"


def test_bad_hidden_leaf_after_the_last_run_is_rejected():
    rng = random.Random(5)
    data = rng.randbytes(16 * 8)
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening, [(0, 16), (32, 16)])
    runs = list(disclosure.chunks)
    last = runs[1]
    assert len(last.path) == 6  # chunk 1 before it; chunks 3-7 after it
    runs[1] = RevealedRun(last.index, last.salt, last.data, last.path[:-1] + (bytes(32),))
    mutated = Disclosure(disclosure.ranges, tuple(runs))
    assert outcome(verify_disclosure, commitment, mutated) == (
        "rejected", "bad-path", "revealed runs do not authenticate to the root"
    )
    # The same wrong leaf for chunk 7 fails the per-chunk check.
    oracle = old_disclose(opening, [(0, 16), (32, 16)])
    bad = replace(oracle, hidden={**oracle.hidden, 7: bytes(32)})
    assert outcome(old_verify_disclosure, commitment, bad)[:2] == ("rejected", "bad-path")


def test_hidden_leaves_joined_across_a_run_are_rejected():
    rng = random.Random(7)
    data = rng.randbytes(48)
    commitment, opening = commit(data, grid(len(data), 16), rng)
    l0, l1, _ = opening.leaves
    # Chunk 2's salt and bytes as chunk 1, with leaves 0 and 1 in one entry.
    forged = Disclosure(
        ((16, 16),), (RevealedRun(1, opening.salts[2], data[32:], (l0 + l1, b"")),)
    )
    assert outcome(verify_disclosure, commitment, forged)[:2] == ("rejected", "bad-path")
    oracle = ChunkDisclosure(
        ((16, 16),), (RevealedChunk(1, opening.salts[2], data[32:]),), {0: l0 + l1, 2: b""}
    )
    assert outcome(old_verify_disclosure, commitment, oracle)[:2] == ("rejected", "bad-path")


def test_empty_range_off_the_disclosed_chunks():
    rng = random.Random(6)
    data = rng.randbytes(100)
    commitment, opening = commit(data, grid(len(data), 16), rng)
    disclosure = disclose(opening, [(0, 10)])
    padded = Disclosure(disclosure.ranges + ((50, 0),), disclosure.chunks)
    assert outcome(verify_disclosure, commitment, padded) == ("ok", {(0, 10): data[:10], (50, 0): b""})
    oracle = old_disclose(opening, [(0, 10)])
    oracle = replace(oracle, ranges=oracle.ranges + ((50, 0),))
    assert outcome(old_verify_disclosure, commitment, oracle) == outcome(
        verify_disclosure, commitment, padded
    )


# ---------------------------------------------------------------------------
# Record tag checks.


@st.composite
def record_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.integers(0, 400))
    chunk_size = draw(st.integers(1, 24))
    plaintext = rng.randbytes(size)
    # Records are cut on the chunk grid, as secret spans are in a session.
    on_grid = range(0, size + 1, chunk_size)
    cuts = sorted({0, size, *(rng.choice(on_grid) for _ in range(draw(st.integers(0, 4))))})
    spans = list(zip(cuts, cuts[1:])) or [(0, 0)]
    direction = draw(st.sampled_from(["up", "down"]))
    keys, lengths, tags, secret = {}, [], [], set()
    for i, (start, end) in enumerate(spans):
        key = rng.randbytes(32)
        wire = old_seal_record(key, plaintext[start:end])
        lengths.append(end - start)
        tags.append(wire[-toytls.TAG_LEN:])
        # An honest prover withholds the key of a secret record, and only
        # of one, and ships its tag instead.
        if direction == "up" and draw(st.booleans()):
            secret.add(i)
        else:
            keys[(direction, i)] = key
    mutation = draw(
        st.sampled_from(
            [
                "none", "flip", "drop-key", "extra-key", "wrong-key", "secret-key", "length",
                "drop-tag",
            ]
        )
    )
    return plaintext, lengths, tags, keys, direction, secret, mutation, rng


@SETTINGS
@given(record_cases())
def test_check_records_matches_oracle(case):
    plaintext, lengths, tags, keys, direction, secret, mutation, rng = case
    withheld = [tags[i] for i in sorted(secret)]
    data = plaintext
    if mutation == "flip" and data:
        o = rng.randrange(len(data))
        data = data[:o] + bytes([data[o] ^ 1]) + data[o + 1:]
    elif mutation == "drop-key" and keys:
        del keys[rng.choice(sorted(keys))]
    elif mutation == "extra-key":
        keys[(direction, rng.randrange(len(lengths) + 2))] = rng.randbytes(32)
    elif mutation == "wrong-key" and keys:
        keys[rng.choice(sorted(keys))] = rng.randbytes(32)
    elif mutation == "secret-key" and secret:
        keys[(direction, rng.choice(sorted(secret)))] = rng.randbytes(32)
    elif mutation == "length":
        data = data + b"!" if rng.random() < 0.5 or not data else data[:-1]
    elif mutation == "drop-tag" and withheld:
        del withheld[rng.randrange(len(withheld))]
    reason = "template-mismatch" if direction == "up" else "cipher-mismatch"
    args = (tuple(lengths), keys, direction, data, reason, frozenset(secret), tuple(withheld))
    result = outcome(_check_records, *args)
    assert result == outcome(old_check_records, *args)
    if mutation == "none":
        assert result == ("ok", tags)


# ---------------------------------------------------------------------------
# Template matching.

TEMPLATES = [
    InjectTemplate.from_obj(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/q",
            "headers": [
                {"name": "Host", "value": "h.test"},
                {"name": "Authorization", "secret": "token", "length": "32"},
                {"name": "X-Second", "secret": "other", "length": "16"},
            ],
            "body": {"query": ""},
            "input_pointer": "/query",
        }
    ),
    InjectTemplate.from_obj(
        {
            "type": "inject",
            "kind": "tool",
            "method": "GET",
            "path": "/price?ids={input}&cur=usd",
            "headers": [{"name": "Host", "value": "h.test"}],
            "chunk_size": "8",
        }
    ),
    InjectTemplate.from_obj(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/q",
            "headers": [{"name": "Host", "value": "h.test"}],
            "body": {"query": "", "limit": "10"},
            "input_pointer": "/query",
        }
    ),
]

# The templates a ProxyTEE entry may use: no secret slot.
PUBLIC_TEMPLATES = [t for t in TEMPLATES if not t.secret_names()]

inputs = st.text(alphabet="abcdefgh0123456789-_", max_size=60)


@st.composite
def request_cases(draw, templates=TEMPLATES):
    template = draw(st.sampled_from(templates))
    # Some inputs are long enough that the rendering is cut at RECORD_MAX.
    x = draw(inputs) * draw(st.sampled_from([1, 1, 1, 400, 700]))
    data, _ = render(template, x, {})
    mutation = draw(st.sampled_from(["none", "claim", "length"]))
    return template, x, data, mutation, random.Random(draw(st.integers(0, 2**32)))


@SETTINGS
@given(request_cases())
def test_match_request_matches_oracle(case):
    template, x, data, mutation, rng = case
    total = len(data)
    if mutation == "claim":
        x = x + "z"
    elif mutation == "length":
        total += rng.choice([-1, 1])
    result = outcome(match_request, template, x, total)
    assert result == outcome(old_match_request, template, x, total)
    if mutation == "none":
        assert result[0] == "ok" and result[1][0] == data


@SETTINGS
@given(
    request_cases(PUBLIC_TEMPLATES),
    st.integers(0, 10**6),
    st.sampled_from(["none", "flip", "past-end"]),
)
def test_match_tee_request_matches_oracle(case, flip, mutation):
    # The oracle ignores the bytes of secret spans; a ProxyTEE template
    # has none, so it compares every byte, as the exact check does.
    template, x, request, *_ = case
    if mutation == "flip":
        tampered = bytearray(request)
        tampered[flip % len(request)] ^= 0x20
        request = bytes(tampered)
    elif mutation == "past-end":
        request += b" "
    result = outcome(_match_tee_request, template, request)
    assert result == outcome(old_match_tee_request, template, request)
    if mutation == "none":
        assert result == ("ok", x)


def test_every_one_byte_flip_of_an_attested_request_is_rejected():
    # A flip that keeps the input is named at its byte. A flip that reads
    # as another input is accepted only if it is that input's rendering,
    # so no flipped request passes for the honest one.
    for template in PUBLIC_TEMPLATES:
        honest, _ = render(template, "abc-01", {})
        for pos in range(len(honest)):
            for mask in (0x01, 0x20, 0x80):
                flipped = bytearray(honest)
                flipped[pos] ^= mask
                flipped = bytes(flipped)
                result = outcome(_match_tee_request, template, flipped)
                assert result != ("ok", "abc-01")
                if outcome(extract_input, template, flipped) == ("ok", "abc-01"):
                    detail = f"attested request byte {pos} differs"
                    assert result == ("rejected", "template-mismatch", detail)
                elif result[0] == "ok":
                    assert render(template, result[1], {})[0] == flipped


# ---------------------------------------------------------------------------
# Canonical JSON rejections.

scalars = st.one_of(
    st.text(max_size=5), st.booleans(), st.none(), st.integers(), st.floats(allow_nan=False),
    st.binary(max_size=3),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(0, 3)), inner, max_size=4),
    ),
    max_leaves=12,
)


def old_canonical_bytes(obj):
    old_check_scalars(obj, "")
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return text.encode("utf-8")


@SETTINGS
@given(documents)
def test_canonical_bytes_rejections_match_oracle(doc):
    assert outcome(canonical_bytes, doc) == outcome(old_canonical_bytes, doc)


def test_canonical_bytes_accepts_str_subclasses_as_before():
    class Name(str):
        pass

    doc = {"a": [Name("x"), {"b": Name("y")}]}
    assert outcome(canonical_bytes, doc) == outcome(old_canonical_bytes, doc)
    assert canonical_bytes(doc) == b'{"a":["x",{"b":"y"}]}'


# ---------------------------------------------------------------------------
# Transcript prefixes: one running prefix against a rebuild per step.


_texts = st.text(max_size=12)
_steps = st.lists(
    st.tuples(_texts, st.lists(st.tuples(_texts, _texts, _texts), max_size=3)),
    min_size=1,
    max_size=8,
)


@SETTINGS
@given(_texts, _steps)
def test_running_prefixes_match_rebuild_per_step(initial, steps):
    trace = ExecutionTrace(
        initial,
        tuple(
            StepRecord(j, output, tuple(ToolCall(*call) for call in calls))
            for j, (output, calls) in enumerate(steps)
        ),
    )
    prefixes = list(transcript_prefixes(trace.initial_input, trace.steps))
    assert prefixes == [rebuild_transcript(trace, j) for j in range(len(trace.steps))]
    cores = [i.x for i in invocations(trace) if i.call is None]
    assert cores == [core_input(trace, j) for j in range(len(trace.steps))]
    # The agent loop feeds its core the same prefixes.
    outputs = iter(trace.steps)
    fed = []

    def core(transcript):
        fed.append(transcript)
        step = next(outputs)
        return step.core_output, [(c.tool_id, c.input) for c in step.tool_calls]

    results = iter([c.result for s in trace.steps for c in s.tool_calls])
    tools = {c.tool_id: lambda x: next(results) for s in trace.steps for c in s.tool_calls}
    ran = run_agent(core, tools, initial, max_steps=len(trace.steps))
    assert fed == prefixes[: len(ran.steps)]
