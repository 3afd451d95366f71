"""Agent abstraction: tools, core, execution traces and transcripts.

The transcript is the byte string iteratively fed to the core. To avoid
escaping ambiguity it is built from length-prefixed frames rather than
textual separators: each frame is a 1-byte role tag, a 4-byte big-endian
payload length, and the payload (``frames.encode``). Frame roles:

    0x01  initial input
    0x02  core output        (one per step)
    0x03  tool id            (one triple per tool call, in emitted order)
    0x04  tool input
    0x05  tool result

This framing makes transcript reconstruction injective on traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .canonical import json_field
from .errors import ValidationError, VetError
from .frames import encode as frame

ROLE_INPUT = 0x01
ROLE_CORE = 0x02
ROLE_TOOL_ID = 0x03
ROLE_TOOL_INPUT = 0x04
ROLE_TOOL_RESULT = 0x05

# Core function protocol: transcript bytes -> (output, [(tool_id, input), ...])
CoreFunction = Callable[[bytes], tuple[str, Sequence[tuple[str, str]]]]
ToolFunction = Callable[[str], str]


class UnknownToolError(VetError):
    def __init__(self, tool_id: str):
        self.tool_id = tool_id
        super().__init__(f"core emitted unknown tool id {tool_id!r}")


@dataclass(frozen=True)
class ToolCall:
    tool_id: str
    input: str
    result: str


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    core_output: str
    tool_calls: tuple[ToolCall, ...]

    def __post_init__(self):
        if self.step_index < 0:
            raise ValidationError("step_index must be non-negative")


@dataclass(frozen=True)
class ExecutionTrace:
    initial_input: str
    steps: tuple[StepRecord, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValidationError("trace must contain at least one step")
        for j, step in enumerate(self.steps):
            if step.step_index != j:
                raise ValidationError(
                    f"step indices must be contiguous from 0, got {step.step_index} at {j}"
                )

    @property
    def truncated(self) -> bool:
        """Whether the run stopped at max_steps with tool calls still pending:
        the last step emitted calls, so the core was due another step."""
        return bool(self.steps[-1].tool_calls)

    def to_obj(self) -> dict:
        """Canonical-JSON-ready representation (all scalars as strings); a
        step's index is its position, so it does not ship."""
        return {
            "initial_input": self.initial_input,
            "steps": [
                {
                    "core_output": s.core_output,
                    "tool_calls": [
                        {"tool": c.tool_id, "input": c.input, "result": c.result}
                        for c in s.tool_calls
                    ],
                }
                for s in self.steps
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ExecutionTrace":
        steps = tuple(
            StepRecord(
                step_index=j,
                core_output=json_field(s, "core_output"),
                tool_calls=tuple(
                    ToolCall(*(json_field(c, key) for key in ("tool", "input", "result")))
                    for c in json_field(s, "tool_calls", list)
                ),
            )
            for j, s in enumerate(json_field(obj, "steps", list))
        )
        return cls(initial_input=json_field(obj, "initial_input"), steps=steps)


def _step_frames(step: StepRecord) -> Iterable[bytes]:
    yield frame(ROLE_CORE, step.core_output.encode("utf-8"))
    for call in step.tool_calls:
        yield frame(ROLE_TOOL_ID, call.tool_id.encode("utf-8"))
        yield frame(ROLE_TOOL_INPUT, call.input.encode("utf-8"))
        yield frame(ROLE_TOOL_RESULT, call.result.encode("utf-8"))


def rebuild_transcript(trace: ExecutionTrace, upto_step: int) -> bytes:
    """Transcript fed to the core at step ``upto_step``.

    Contains the initial input followed by all completed steps strictly
    before ``upto_step``. rebuild_transcript(t, j) is a byte prefix of
    rebuild_transcript(t, j + 1).
    """
    if not 0 <= upto_step < len(trace.steps):
        raise IndexError(f"upto_step {upto_step} out of range for {len(trace.steps)} steps")
    parts = [frame(ROLE_INPUT, trace.initial_input.encode("utf-8"))]
    for step in trace.steps[:upto_step]:
        parts.extend(_step_frames(step))
    return b"".join(parts)


def transcript_prefixes(initial_input: str, steps: Iterable[StepRecord]) -> Iterator[bytes]:
    """The core's input at each step, as ``rebuild_transcript`` gives it,
    from one running prefix that each step extends: linear in the frames
    of the trace, where a rebuild per step is quadratic."""
    prefix = bytearray(frame(ROLE_INPUT, initial_input.encode("utf-8")))
    for step in steps:
        yield bytes(prefix)
        prefix += b"".join(_step_frames(step))


def run_agent(
    core: CoreFunction,
    tools: Mapping[str, ToolFunction],
    input: str,
    max_steps: int,
) -> ExecutionTrace:
    """Execute the iterative agent loop with a black-box core.

    Each step feeds the core the transcript of everything so far; the
    core's emitted tool calls are executed in order and their results
    recorded. The loop halts when the core emits no calls, or when
    max_steps is reached (then the trace is truncated: its last step
    still has pending calls).
    """
    if max_steps < 1:
        raise ValidationError("max_steps must be >= 1")
    steps: list[StepRecord] = []
    transcript = frame(ROLE_INPUT, input.encode("utf-8"))
    for j in range(max_steps):
        if steps:
            transcript += b"".join(_step_frames(steps[-1]))
        output, calls = core(transcript)
        executed = []
        for tool_id, x in calls:
            if tool_id not in tools:
                raise UnknownToolError(tool_id)
            executed.append(ToolCall(tool_id, x, tools[tool_id](x)))
        steps.append(StepRecord(j, output, tuple(executed)))
        if not executed:
            break
    return ExecutionTrace(initial_input=input, steps=tuple(steps))
