"""Differential tests: the slice- and run-at-a-time verifier paths against
the per-byte and per-chunk loops they replaced, kept here as oracles.

Each test draws honest inputs, optionally applies one mutation, and
requires the same outcome from both sides: the same result on
acceptance, or the same exception type, reject reason and detail.
Disclosures are the exception, because their format changed from one
entry per chunk to one run of the whole transcript: the oracle verifies
the per-chunk disclosure of the whole range (each chunk on its own,
read back byte by byte), and a mutated whole disclosure must be rejected
or be the honest one. The commitments here are cut on a fixed grid
(``conftest.grid``), the chunking of the per-chunk format; the oracle
reads each chunk's offset and length from the list.
"""

import hashlib
import json
import random
from json.encoder import encode_basestring
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import grid, record_xor
from vet import frames, toytls
from vet.agent_model import (
    ExecutionTrace,
    StepRecord,
    ToolCall,
    rebuild_transcript,
    run_agent,
    transcript_prefixes,
)
from vet.canonical import QUOTE_WHOLE_MIN, JsonPointer, canonical_bytes, json_string
from vet.composer import invocations
from vet.commitment import SALT_LEN, Disclosure, RevealedRun, commit, disclose, verify_disclosure
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


def old_tag(key, plaintext):
    # Format 7: encrypt-and-MAC, the tag over the plaintext.
    return hashlib.sha256(b"VET/mac:" + key + plaintext).digest()


def old_record_key(direction, secret, index):
    return hashlib.sha256(
        b"VET/key-" + direction.encode() + b":" + secret + index.to_bytes(4, "big")
    ).digest()


def old_seal_record(direction, secret, index, plaintext):
    # The keystream built AES block by block over its counter blocks and
    # XORed byte by byte, in place of the one AES-GCM call per record.
    key = old_record_key(direction, secret, index)
    return record_xor(direction, secret, index, plaintext) + old_tag(key, plaintext)


def old_open_record(direction, secret, index, wire):
    if len(wire) < toytls.TAG_LEN:
        raise ProtocolError("record shorter than MAC tag")
    ct, tag = wire[:-toytls.TAG_LEN], wire[-toytls.TAG_LEN:]
    plaintext = record_xor(direction, secret, index, ct)
    if old_tag(old_record_key(direction, secret, index), plaintext) != tag:
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


def old_disclose_whole(opening, chunk_lengths):
    """Every chunk revealed on its own, for the range of the whole transcript."""
    offsets = offsets_of(chunk_lengths)
    chunks = tuple(
        RevealedChunk(i, opening.salts[i], opening.plaintext[offsets[i]:offsets[i + 1]])
        for i in range(len(chunk_lengths))
    )
    return ChunkDisclosure(((0, len(opening.plaintext)),), chunks, {})


def old_verify_disclosure(commitment, disclosure, chunk_lengths):
    n = len(chunk_lengths)
    offsets = offsets_of(chunk_lengths)
    by_index = {}
    for chunk in disclosure.chunks:
        if not 0 <= chunk.index < n:
            raise Rejected("chunk-range-inconsistency", f"chunk index {chunk.index} out of range")
        if chunk.index in by_index or chunk.index in disclosure.hidden:
            raise Rejected("chunk-range-inconsistency", f"duplicate chunk {chunk.index}")
        if len(chunk.salt) != SALT_LEN or len(chunk.data) != chunk_lengths[chunk.index]:
            raise Rejected("length-mismatch", f"chunk {chunk.index} has wrong length")
        by_index[chunk.index] = chunk
    if sorted([*by_index, *disclosure.hidden]) != list(range(n)):
        raise Rejected("bad-path", "revealed and hidden chunks do not cover the transcript")
    if any(len(leaf) != 32 for leaf in disclosure.hidden.values()):
        raise Rejected("bad-path", "a hidden leaf is not 32 bytes")
    root = hashlib.sha256(b"VET/root:" + n.to_bytes(8, "big"))
    for length in chunk_lengths:
        root.update(length.to_bytes(8, "big"))
    for i in range(n):
        chunk = by_index.get(i)
        root.update(old_leaf(chunk.salt, chunk.data) if chunk else disclosure.hidden[i])
    if root.digest() != commitment.root:
        raise Rejected("bad-path", "chunks do not authenticate to the root")
    out = {}
    for offset, length in disclosure.ranges:
        if offset < 0 or length < 0 or offset + length > offsets[-1]:
            raise Rejected("chunk-range-inconsistency", f"range ({offset},{length}) out of bounds")
        parts = []
        for pos in range(offset, offset + length):  # byte by byte
            index = bisect_right(offsets, pos) - 1
            if index not in by_index:
                raise Rejected("chunk-range-inconsistency", f"chunk {index} is not revealed")
            parts.append(by_index[index].data[pos - offsets[index]:pos - offsets[index] + 1])
        out[(offset, length)] = b"".join(parts)
    return out


def old_check_records(lengths, record_keys, direction, data, reason, secret, withheld):
    # Format 12 keys go to the public records by position; the oracle keeps
    # the per-byte read and the per-record loop.
    total = sum(lengths)
    if total != len(data):
        raise Rejected(reason, f"{direction} records carry {total} bytes, the proof {len(data)}")
    if len(withheld) != len(secret):
        raise Rejected(
            reason, f"the proof withholds {len(withheld)} tags for {len(secret)} secret records"
        )
    public = [index for index in range(len(lengths)) if index not in secret]
    if len(record_keys) != len(public):
        raise Rejected(
            reason if len(record_keys) < len(public) else "cipher-mismatch",
            f"the proof has {len(record_keys)} {direction} record keys for {len(public)} records",
        )
    tags = []
    offset = 0
    for index, length in enumerate(lengths):
        plaintext = bytes(data[offset + k] for k in range(length))
        offset += length
        if index in secret:
            tags.append(withheld[sorted(secret).index(index)])
            continue
        # The oracle hashes the tag over the plaintext, as sealing does.
        tags.append(old_tag(record_keys[public.index(index)], plaintext))
    return tags


def old_set_pointer(doc, pointer, value):
    parent, _, last = pointer.rpartition("/")
    node = JsonPointer(parent).resolve(doc)
    token = last.replace("~1", "/").replace("~0", "~")
    node[int(token) if isinstance(node, list) else token] = value


def old_render_request(template, x, secrets):
    """The request rendered from the template's fields on every call: a
    deep copy of the body with the input set at its pointer and the whole
    body serialized, and the head built header by header."""
    path = template.path
    if "{input}" in path:
        if any(c in x for c in " {}\r\n"):
            raise ValidationError(f"input {x!r} not encodable in a path slot")
        path = path.replace("{input}", x)
    body = b""
    if template.body is not None:
        doc = json.loads(json.dumps(template.body))
        if template.input_pointer:
            try:
                JsonPointer(template.input_pointer).resolve(doc)
            except KeyError:
                raise ValidationError(
                    f"input pointer {template.input_pointer!r} missing from body template"
                )
            old_set_pointer(doc, template.input_pointer, x)
        body = canonical_bytes(doc)
    request_line = f"{template.method} {path} HTTP/1.1"
    offset = len(request_line.encode("utf-8")) + 2
    spans = {}
    lines = []
    for header in template.headers:
        name = header["name"]
        if "secret" in header:
            secret_name = header["secret"]
            declared = int(header["length"])
            value = secrets.get(secret_name, "")
            if len(value) > declared:
                raise ValidationError(
                    f"secret {secret_name!r} longer than declared length {declared}"
                )
            # Not in the parent's render: a non-ASCII secret overran its span.
            if not value.isascii():
                raise ValidationError(f"secret {secret_name!r} is not ASCII")
            prefix = f"{name}: "
            spans[secret_name] = (offset + len(prefix), declared)
            line = prefix + value + "~" * (declared - len(value))
        else:
            line = f"{name}: {header['value']}"
        lines.append(line)
        offset += len(line.encode("utf-8")) + 2
    if body:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join([request_line] + lines) + "\r\n\r\n"
    return head.encode("utf-8") + body, spans


def old_render(template, x):
    """The rendering as a verifier asks for it: an input the template
    cannot hold is a template mismatch."""
    try:
        return old_render_request(template, x, {})
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
@given(
    st.binary(min_size=32, max_size=32),
    st.binary(max_size=2000),
    st.integers(0, 2063),
    st.sampled_from(["up", "down"]),
    st.integers(0, 2**32 - 1),
)
@example(b"k" * 32, b"", 0, "up", 0)
@example(b"k" * 32, b"a", 1, "down", 1)
@example(b"k" * 32, b"a" * 15, 15, "up", 2)
@example(b"k" * 32, b"a" * 16, 16, "down", 0)
@example(b"k" * 32, b"a" * 17, 17, "up", 2**32 - 1)
@example(b"k" * 32, b"a" * toytls.RECORD_MAX, toytls.RECORD_MAX - 1, "down", 3)
def test_seal_open_match_oracle(secret, plaintext, flip, direction, index):
    cipher = toytls.RecordCipher(direction, secret)
    key = cipher.key(index)

    def new_open(wire):
        return toytls.open_record(cipher, wire, index, key)

    def old_open(wire):
        return old_open_record(direction, secret, index, wire)

    wire = toytls.seal_record(cipher, plaintext, index, key)
    assert wire == old_seal_record(direction, secret, index, plaintext)
    assert outcome(new_open, wire) == outcome(old_open, wire)
    tampered = bytearray(wire)
    tampered[flip % len(wire)] ^= 1
    tampered = bytes(tampered)
    assert outcome(new_open, tampered) == outcome(old_open, tampered)
    short = wire[: flip % toytls.TAG_LEN]
    assert outcome(new_open, short) == outcome(old_open, short)


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
# Commitments: the whole disclosure against the per-chunk oracle.

# Format 12 ships no run index and no ranges: a moved run is its bytes
# read some places off, and what the ranges stated, the verifier's chunk
# lengths now state (a chunk more, an empty one, or another total).
MUTATIONS = (
    "none", "data", "salt", "moved", "path-extra", "duplicate", "drop", "split",
    "split-gap", "extra-chunk", "empty-chunk", "short-total",
)


@st.composite
def disclosures(draw):
    size = draw(st.integers(0, 300))
    chunk_size = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = tuple(grid(size, chunk_size))
    commitment, opening = commit(rng.randbytes(size), lengths, rng)
    return commitment, lengths, opening, draw(st.sampled_from(MUTATIONS)), rng


def per_chunk(disclosure, chunk_lengths):
    """(index, salt, data) of every chunk a run or per-chunk disclosure
    reveals; a run starts at chunk 0."""
    offsets = offsets_of(chunk_lengths)
    return [
        (
            first + k,
            entry.salt[k * SALT_LEN:(k + 1) * SALT_LEN],
            entry.data[offsets[first + k] - offsets[first]:offsets[first + k + 1] - offsets[first]],
        )
        for entry in disclosure.chunks
        for first in [getattr(entry, "index", 0)]
        for k in range(len(entry.salt) // SALT_LEN)
    ]


def mutate(disclosure, lengths, mutation, rng):
    """One mutation of a whole disclosure, or of the chunk lengths the
    verifier reads it at; returns both."""
    runs = list(disclosure.chunks)
    lengths = list(lengths)
    n = len(lengths)
    offsets = offsets_of(lengths)
    if runs:
        c = runs[0]
        if mutation == "data":
            k = rng.randrange(len(c.data))
            flipped = c.data[:k] + bytes([c.data[k] ^ 1]) + c.data[k + 1:]
            runs[0] = RevealedRun(c.salt, flipped, c.path)
        elif mutation == "salt":
            k = rng.randrange(len(c.salt))
            flipped = c.salt[:k] + bytes([c.salt[k] ^ 1]) + c.salt[k + 1:]
            runs[0] = RevealedRun(flipped, c.data, c.path)
        elif mutation == "moved":
            k = rng.randrange(1, len(c.data) + 1)
            runs[0] = RevealedRun(c.salt, c.data[k:] + c.data[:k], c.path)
        elif mutation == "path-extra":
            runs[0] = RevealedRun(c.salt, c.data, (rng.choice([bytes(32), c.salt]),))
        elif mutation == "duplicate":
            runs.append(c)
        elif mutation == "drop":
            runs = []
        elif mutation in ("split", "split-gap") and n > 1 + (mutation == "split-gap"):
            # Two runs where the prover made one: abutting, or around one
            # chunk whose correct leaf the second run carries.
            gap = mutation == "split-gap"
            k = rng.randrange(1, n - gap)
            salt = lambda i, j: c.salt[i * SALT_LEN:j * SALT_LEN]
            leaf = old_leaf(salt(k, k + 1), c.data[offsets[k]:offsets[k + 1]])
            runs = [
                RevealedRun(salt(0, k), c.data[:offsets[k]], ()),
                RevealedRun(salt(k + gap, n), c.data[offsets[k + gap]:], (leaf,) * gap),
            ]
    elif mutation in ("duplicate", "path-extra"):
        runs.append(RevealedRun(b"", b"", (bytes(32),) * (mutation == "path-extra")))
    if mutation == "extra-chunk":
        lengths.insert(rng.randrange(n + 1), rng.randrange(1, 20))
    elif mutation == "empty-chunk":
        lengths.insert(rng.randrange(n + 1), 0)
    elif mutation == "short-total" and lengths:
        lengths[-1] += rng.choice([-1, 1])
    return Disclosure(tuple(runs)), tuple(lengths)


@SETTINGS
@given(disclosures())
def test_disclose_and_verify_disclosure_match_oracle(case):
    commitment, lengths, opening, mutation, rng = case
    disclosure = disclose(opening)
    oracle = old_disclose_whole(opening, lengths)
    # The run reveals exactly the chunks the per-chunk disclosure reveals,
    # and reads back to the same bytes.
    assert per_chunk(disclosure, lengths) == per_chunk(oracle, lengths)
    total = commitment.total_length
    assert outcome(old_verify_disclosure, commitment, oracle, lengths) == (
        "ok", {(0, total): opening.plaintext}
    )
    assert outcome(verify_disclosure, commitment, disclosure, lengths) == ("ok", opening.plaintext)
    # The whole shape has one encoding: a mutation is rejected, or it
    # changed nothing.
    mutated, read_at = mutate(disclosure, lengths, mutation, rng)
    result = outcome(verify_disclosure, commitment, mutated, read_at)
    if result[0] == "ok":
        assert (mutated, read_at) == (disclosure, lengths) and result[1] == opening.plaintext
    else:
        assert result[:1] == ("rejected",)
        assert result[1] in ("bad-path", "chunk-range-inconsistency", "length-mismatch")


def test_bad_hidden_leaf_after_the_last_run_is_rejected():
    rng = random.Random(5)
    data = rng.randbytes(16 * 8)
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    (run,) = disclose(opening).chunks
    assert run.path == ()
    mutated = Disclosure((RevealedRun(run.salt, run.data, (bytes(32),)),))
    assert outcome(verify_disclosure, commitment, mutated, lengths) == (
        "rejected", "bad-path", "the run carries hidden leaves (1); a whole disclosure hides no chunk"
    )
    # The per-chunk oracle refuses a leaf for a chunk past the last one.
    oracle = old_disclose_whole(opening, lengths)
    bad = replace(oracle, hidden={8: bytes(32)})
    assert outcome(old_verify_disclosure, commitment, bad, lengths)[:2] == ("rejected", "bad-path")


def test_hidden_leaves_joined_across_a_run_are_rejected():
    # Leaves 0 and 1 as one 64-byte entry and an empty one, which join to
    # the committed root input; a whole run carries no hidden leaf at all.
    rng = random.Random(7)
    data = rng.randbytes(48)
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    l0, l1 = (old_leaf(opening.salts[i], data[16 * i:16 * i + 16]) for i in (0, 1))
    (run,) = disclose(opening).chunks
    forged = Disclosure((RevealedRun(run.salt, data, (l0 + l1, b"")),))
    assert outcome(verify_disclosure, commitment, forged, lengths)[:2] == ("rejected", "bad-path")
    oracle = ChunkDisclosure(
        ((16, 16),), (RevealedChunk(1, opening.salts[2], data[32:]),), {0: l0 + l1, 2: b""}
    )
    assert outcome(old_verify_disclosure, commitment, oracle, lengths)[:2] == (
        "rejected", "bad-path"
    )


def test_empty_range_off_the_disclosed_chunks():
    # The per-chunk oracle reads an extra empty range as no bytes; the
    # whole shape has no ranges and exactly one run, so an extra empty run
    # is refused.
    rng = random.Random(6)
    data = rng.randbytes(100)
    lengths = grid(len(data), 16)
    commitment, opening = commit(data, lengths, rng)
    disclosure = disclose(opening)
    padded = Disclosure(disclosure.chunks + (RevealedRun(b"", b"", ()),))
    assert outcome(verify_disclosure, commitment, padded, lengths)[:2] == (
        "rejected", "chunk-range-inconsistency"
    )
    oracle = old_disclose_whole(opening, lengths)
    oracle = replace(oracle, ranges=oracle.ranges + ((50, 0),))
    assert outcome(old_verify_disclosure, commitment, oracle, lengths) == (
        "ok", {(0, 100): data, (50, 0): b""}
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
    keys, lengths, tags, secret = [], [], [], set()
    for i, (start, end) in enumerate(spans):
        key = rng.randbytes(32)
        lengths.append(end - start)
        tags.append(old_tag(key, plaintext[start:end]))
        # An honest prover withholds the key of a secret record, and only
        # of one, and ships its tag instead.
        if direction == "up" and draw(st.booleans()):
            secret.add(i)
        else:
            keys.append(key)
    mutation = draw(
        st.sampled_from(
            [
                "none", "flip", "drop-key", "extra-key", "wrong-key", "secret-key", "length",
                "drop-tag", "swap-keys",
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
        del keys[rng.randrange(len(keys))]
    elif mutation == "extra-key":
        keys.insert(rng.randrange(len(keys) + 1), rng.randbytes(32))
    elif mutation == "wrong-key" and keys:
        keys[rng.randrange(len(keys))] = rng.randbytes(32)
    elif mutation == "secret-key" and secret:
        # A key at the secret record's place, ahead of the later public ones.
        index = rng.choice(sorted(secret))
        keys.insert(sum(1 for i in range(index) if i not in secret), rng.randbytes(32))
    elif mutation == "swap-keys" and len(keys) > 1:
        i, j = rng.sample(range(len(keys)), 2)
        keys[i], keys[j] = keys[j], keys[i]
    elif mutation == "length":
        data = data + b"!" if rng.random() < 0.5 or not data else data[:-1]
    elif mutation == "drop-tag" and withheld:
        del withheld[rng.randrange(len(withheld))]
    reason = "template-mismatch" if direction == "up" else "cipher-mismatch"
    args = (tuple(lengths), tuple(keys), direction, data, reason, frozenset(secret), tuple(withheld))
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
# Request rendering: the compiled template against a rendering from its
# fields on every call.

# Header names are HTTP tokens; test_a_header_name_that_is_not_a_token_is_refused
# draws the others.
_names = st.text(alphabet="AbX-", min_size=1, max_size=5)
# Quotes, backslashes, control, non-ASCII and astral characters, which the
# body's canonical JSON escapes or keeps as they are. No half surrogate
# pair: a claimed input is decoded by canonical_loads, which refuses one.
_chars = st.one_of(
    st.characters(exclude_categories=("Cs",)), st.sampled_from('"\\\x00\x1f\x7f\u2028é😀{} \r\n~/')
)
_input_texts = st.text(alphabet=_chars, max_size=12)
_keys = st.text(alphabet="ab~/é", max_size=3)
_bodies = st.dictionaries(
    _keys,
    st.recursive(
        st.text(alphabet=_chars, max_size=4),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3),
            st.dictionaries(_keys, inner, min_size=1, max_size=3),
        ),
        max_leaves=8,
    ),
    min_size=1,
    max_size=3,
)


def _pointers(node, prefix=""):
    """Every JSON pointer below ``node``, its tokens escaped."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        pointer = prefix + "/" + str(key).replace("~", "~0").replace("/", "~1")
        yield pointer
        yield from _pointers(child, pointer)


@st.composite
def render_cases(draw):
    headers = []
    for i in range(draw(st.integers(0, 3))):
        length = str(draw(st.integers(1, 72)))
        headers.append({"name": draw(_names), "secret": f"s{i}", "length": length})
    for _ in range(draw(st.integers(0, 3))):
        static = {"name": draw(_names), "value": draw(st.text(alphabet=_chars, max_size=6))}
        headers.insert(draw(st.integers(0, len(headers))), static)
    obj = {
        "type": "inject",
        "kind": draw(st.sampled_from(["tool", "core"])),
        "method": draw(st.sampled_from(["GET", "POST"])),
        "headers": headers,
    }
    path = draw(st.text(alphabet="/?=&aé", max_size=6))
    if draw(st.booleans()):
        obj["path"] = path + "{input}" + draw(st.text(alphabet="/?=&aé", max_size=6))
        if draw(st.booleans()):
            obj["body"] = draw(_bodies)
    else:
        obj["path"] = path
        body = draw(_bodies)
        pointers = list(_pointers(body))
        # A pointer that names a value in the body, or one that does not.
        dangling = ["/absent", pointers[0] + "/absent/x", "/0", "no-slash"]
        obj["body"] = body
        obj["input_pointer"] = draw(st.sampled_from(pointers + dangling))
    template = InjectTemplate.from_obj(obj)
    secrets = {}
    for header in headers:
        if "secret" in header and draw(st.booleans()):
            declared = int(header["length"])
            size = draw(st.sampled_from([0, declared - 1, declared, declared + 1]))
            secrets[header["secret"]] = draw(st.text(alphabet=_chars, min_size=size, max_size=size))
    return template, draw(_input_texts), secrets


@SETTINGS
@given(render_cases())
@example(
    (
        InjectTemplate.from_obj(
            {
                "type": "inject", "kind": "tool", "method": "POST", "path": "/q",
                "headers": [], "body": {"a~/b": [{"c": "", "d": "\x00"}]},
                "input_pointer": "/a~0~1b/0/c",
            }
        ),
        '"\\\x00é😀',
        {},
    )
)
@example(
    # The body holds, as a key and as a value, the strings the compiler
    # tries first as the input's stand-in.
    (
        InjectTemplate.from_obj(
            {
                "type": "inject", "kind": "tool", "method": "POST", "path": "/q",
                "headers": [], "body": {"\x00input-slot-0": "\x00input-slot-1", "q": ""},
                "input_pointer": "/q",
            }
        ),
        "\x00input-slot-1",
        {},
    )
)
def test_render_matches_oracle(case):
    template, x, secrets = case
    result = outcome(render, template, x, secrets)
    assert result == outcome(old_render_request, template, x, secrets)


@SETTINGS
@given(
    st.text(alphabet="AbX-é :\x7f", max_size=5).filter(
        lambda name: not name or any(c in "é :\x7f" for c in name)
    ),
    st.booleans(),
)
def test_a_header_name_that_is_not_a_token_is_refused(name, secret):
    header = {"name": name, **({"secret": "s", "length": "16"} if secret else {"value": "v"})}
    obj = {"type": "inject", "kind": "tool", "method": "GET", "path": "/{input}",
           "headers": [header]}
    with pytest.raises(ValidationError, match="is not an HTTP token"):
        InjectTemplate.from_obj(obj)


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
# JSON strings: json_string, which quotes a long string that needs no
# escape whole, against the escape pass of encode_basestring; and
# canonical_bytes, whose encoder calls it, against json.dumps.

_unescaped = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
    min_size=1,
    max_size=8,
)
# The characters JSON escapes, DEL, which it does not, and characters
# outside ASCII, one of them astral.
_special = st.sampled_from(
    [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "é", "\u2028", "😀"]
)
_lengths = st.one_of(
    st.sampled_from([0, 1, QUOTE_WHOLE_MIN - 1, QUOTE_WHOLE_MIN, QUOTE_WHOLE_MIN + 1]),
    st.integers(0, 3 * QUOTE_WHOLE_MIN),
)


@st.composite
def long_texts(draw, special=_special):
    """A run of unescaped ASCII of a drawn length, on either side of
    QUOTE_WHOLE_MIN, with 0 to 2 special characters put in anywhere."""
    unit, length = draw(_unescaped), draw(_lengths)
    text = (unit * (length // len(unit) + 1))[:length]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(special) + text[at:]
    return text


class Name(str):
    pass


@SETTINGS
@given(st.one_of(st.text(), long_texts(_special | st.just("\ud800"))))
@example("a" * QUOTE_WHOLE_MIN)
@example("a" * (QUOTE_WHOLE_MIN - 1) + '"')
@example("\x00" + "a" * QUOTE_WHOLE_MIN)
def test_json_string_matches_encode_basestring(text):
    assert json_string(text) == encode_basestring(text)
    assert json_string(Name(text)) == encode_basestring(text)


_strings = st.one_of(st.text(max_size=6), long_texts())
json_documents = st.recursive(
    st.one_of(_strings, _strings.map(Name), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_strings, _strings.map(Name)), inner, max_size=4),
    ),
    max_leaves=10,
)


@SETTINGS
@given(json_documents)
@example({Name("é" * QUOTE_WHOLE_MIN): ["a" * QUOTE_WHOLE_MIN + '"', "\x1f" + "b" * QUOTE_WHOLE_MIN]})
def test_canonical_bytes_matches_json_dumps(doc):
    expected = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode()
    assert canonical_bytes(doc) == expected


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
    assert cores == [rebuild_transcript(trace, j).hex() for j in range(len(trace.steps))]
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
