import struct

import pytest

from vet.agent_model import (
    ROLE_CORE,
    ROLE_INPUT,
    ROLE_TOOL_ID,
    ROLE_TOOL_INPUT,
    ROLE_TOOL_RESULT,
    ExecutionTrace,
    StepRecord,
    ToolCall,
    UnknownToolError,
    frame,
    rebuild_transcript,
    run_agent,
    transcript_prefixes,
)
from vet.errors import ValidationError


def test_frame_encoding_oracle():
    payload = "héllo".encode("utf-8")
    assert frame(ROLE_CORE, payload) == struct.pack(">BI", 2, len(payload)) + payload
    assert frame(ROLE_INPUT, b"") == b"\x01\x00\x00\x00\x00"


def _trace():
    return ExecutionTrace(
        initial_input="start",
        steps=(
            StepRecord(0, "ask", (ToolCall("t", "q1", "r1"), ToolCall("t", "q2", "r2"))),
            StepRecord(1, "done", ()),
        ),
    )


def test_transcript_layout():
    trace = _trace()
    t0 = rebuild_transcript(trace, 0)
    assert t0 == frame(ROLE_INPUT, b"start")
    t1 = rebuild_transcript(trace, 1)
    expected = (
        frame(ROLE_INPUT, b"start")
        + frame(ROLE_CORE, b"ask")
        + frame(ROLE_TOOL_ID, b"t")
        + frame(ROLE_TOOL_INPUT, b"q1")
        + frame(ROLE_TOOL_RESULT, b"r1")
        + frame(ROLE_TOOL_ID, b"t")
        + frame(ROLE_TOOL_INPUT, b"q2")
        + frame(ROLE_TOOL_RESULT, b"r2")
    )
    assert t1 == expected
    assert t1.startswith(t0)
    assert list(transcript_prefixes(trace.initial_input, trace.steps)) == [t0, t1]


def test_rebuild_transcript_bounds():
    trace = _trace()
    with pytest.raises(IndexError):
        rebuild_transcript(trace, 2)
    with pytest.raises(IndexError):
        rebuild_transcript(trace, -1)


def test_trace_validation():
    with pytest.raises(ValidationError):
        ExecutionTrace(initial_input="x", steps=())
    with pytest.raises(ValidationError):
        ExecutionTrace(initial_input="x", steps=(StepRecord(1, "y", ()),))
    with pytest.raises(ValidationError):
        StepRecord(-1, "y", ())


def test_trace_obj_round_trip():
    trace = _trace()
    assert ExecutionTrace.from_obj(trace.to_obj()) == trace
    obj = trace.to_obj()
    # Scalars as strings, and a step's index is its position: it does not ship.
    assert obj["steps"][0] == {
        "core_output": trace.steps[0].core_output,
        "tool_calls": [
            {"tool": c.tool_id, "input": c.input, "result": c.result}
            for c in trace.steps[0].tool_calls
        ],
    }
    assert [s.step_index for s in ExecutionTrace.from_obj(obj).steps] == list(
        range(len(trace.steps))
    )


def test_run_agent_loop():
    def core(transcript):
        if b"r1" in transcript:
            return "final", []
        return "thinking", [("echo", "q")]

    trace = run_agent(core, {"echo": lambda x: "r1"}, "go", max_steps=5)
    assert [s.core_output for s in trace.steps] == ["thinking", "final"]
    assert trace.steps[0].tool_calls == (ToolCall("echo", "q", "r1"),)
    assert not trace.truncated


def test_run_agent_truncation():
    core = lambda transcript: ("loop", [("echo", "q")])
    trace = run_agent(core, {"echo": lambda x: "r"}, "go", max_steps=3)
    assert len(trace.steps) == 3
    assert trace.truncated


def test_run_agent_unknown_tool():
    core = lambda transcript: ("y", [("missing", "q")])
    with pytest.raises(UnknownToolError):
        run_agent(core, {}, "go", max_steps=2)
    with pytest.raises(ValidationError):
        run_agent(core, {}, "go", max_steps=0)
