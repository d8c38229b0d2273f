"""Multi-round chat orchestration with verifier feedback.

Round one sends the system role, the few-shot example pairs, and the queried
program. Every later round appends one feedback message built from exactly
one verifier failure plus optional category guidance. The loop stops on a
passing verdict or after the configured number of rounds; on exhaustion the
last successfully extracted clause set is handed to the mutation phase.
"""
from __future__ import annotations

import math
import os
import re
import time
from typing import Protocol, Sequence

from .clauses import AnnotatedProgram, AnnotationBlocks, place_annotations, program_anchors, split_annotations
from .errors import EndpointError, ExtractionError, InsufficientShots, ScriptExhausted
from .expr import FrozenRecord, Record
from .verifier import FailureCategory, Outcome, Verifier, VerifierVerdict

Message = dict[str, str]  # {"role": ..., "content": ...}


class EndpointConfig(FrozenRecord):
    _defaults = {
        "base_url": "http://localhost:8000/v1",
        "model": "local-model",
        "temperature": 0.4,
        "max_rounds": 10,
        "shot_count": 4,
        "api_key_env": "SPECSMITH_API_KEY",
        "request_timeout": 120.0,
        "retries": 2,
        "retry_backoff": 1.0,
        "history_token_budget": 64000,
    }
    __slots__ = tuple(_defaults)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0, 2]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.shot_count < 0:
            raise ValueError("shot_count cannot be negative")
        if not math.isfinite(self.request_timeout):
            raise ValueError("request_timeout must be finite")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")
        if not math.isfinite(self.retry_backoff):
            raise ValueError("retry_backoff must be finite")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff cannot be negative")


class ChatClient(Protocol):
    def complete(self, messages: Sequence[Message], cfg: EndpointConfig) -> str: ...


class HttpChatClient:
    """Minimal chat-completions HTTP client with retry and backoff.

    POSTs ``{"model", "temperature", "messages"}`` as JSON to
    ``{base_url}/chat/completions`` with a bearer token read from the
    environment variable named in the config; the key value is never logged
    or echoed into errors. Redirects are not followed, so the key goes to
    the configured host only, and no ``.netrc`` is read.
    """

    def __init__(self, sleep=time.sleep):
        self._sleep = sleep

    def complete(self, messages: Sequence[Message], cfg: EndpointConfig) -> str:
        import http.client
        import json
        import urllib.error
        import urllib.request

        class DeclineRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # the 3xx is raised as an HTTPError

        api_key = os.environ.get(cfg.api_key_env)
        if not api_key:
            raise EndpointError(
                f"environment variable {cfg.api_key_env} is not set; "
                "it must hold the endpoint API key"
            )
        if not (api_key.isascii() and api_key.isprintable()):
            # http.client would quote a header value it refuses in its error.
            raise EndpointError(
                f"environment variable {cfg.api_key_env} holds characters an HTTP header cannot carry"
            )
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        payload = {"model": cfg.model, "temperature": cfg.temperature, "messages": list(messages)}
        body = json.dumps(payload).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "User-Agent": "specsmith",
            "Authorization": f"Bearer {api_key}",
        }
        opener = urllib.request.build_opener(DeclineRedirects)
        last_error = "no attempts made"
        for attempt in range(cfg.retries + 1):
            if attempt:
                self._sleep(cfg.retry_backoff * 2 ** (attempt - 1))
            # ``timeout`` bounds each socket operation; the deadline bounds the
            # body, which an endpoint may trickle a byte at a time.
            deadline = time.monotonic() + cfg.request_timeout
            try:
                request = urllib.request.Request(url, data=body, headers=headers, method="POST")
                with opener.open(request, timeout=cfg.request_timeout) as response:
                    status, raw = response.status, _read_by(response, deadline)
            except urllib.error.HTTPError as exc:  # any status outside 2xx, 3xx included
                exc.close()
                status, raw = exc.code, b""
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = f"request failed: {exc}"
                continue
            if status != 200:
                last_error = f"endpoint returned HTTP {status}"
                continue
            try:
                content = json.loads(raw)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = f"malformed endpoint response: {exc}"
                continue
            if not isinstance(content, str):  # e.g. null for a refusal or a tool call
                last_error = f"malformed endpoint response: message content is {type(content).__name__}, not text"
                continue
            return content
        raise EndpointError(f"chat endpoint failed after {cfg.retries + 1} attempts: {last_error}")


def _read_by(response, deadline: float) -> bytes:
    """The body of ``response``, read a chunk at a time until the monotonic
    ``deadline``; a TimeoutError once it has passed."""
    chunks = []
    while chunk := response.read1(65536):
        if time.monotonic() > deadline:
            raise TimeoutError("the reply took longer than request_timeout")
        chunks.append(chunk)
    return b"".join(chunks)


class ScriptedChatClient:
    """Replays canned responses in order, whatever the request."""

    def __init__(self, responses: Sequence[str]):
        self.responses = list(responses)
        self._next = 0

    def complete(self, messages: Sequence[Message], cfg: EndpointConfig) -> str:
        if self._next >= len(self.responses):
            raise ScriptExhausted("scripted chat client has no responses left")
        response = self.responses[self._next]
        self._next += 1
        return response


DEFAULT_SYSTEM_ROLE = (
    "You are an assistant that writes JML specifications for Java programs. "
    "Given a program, return the same program with JML annotations added as "
    "//@ comment lines: requires and ensures clauses directly above each "
    "method header, maintaining and decreases clauses directly above each "
    "loop. Use only these clause kinds. Reply with the complete annotated "
    "program in one fenced code block."
)

_QUERY_TEMPLATE = "Add JML specifications to this Java program:\n```java\n{program}\n```"
_SHOT_ANSWER_TEMPLATE = "```java\n{annotated}\n```"


def _round_one(
    program: str, shots: Sequence[tuple[str, str]], shot_count: int
) -> list[Message]:
    """The system role, the first ``shot_count`` (program, annotated program)
    pairs as query and answer, then the query for ``program``."""
    if shot_count > len(shots):
        raise InsufficientShots(
            f"need {shot_count} few-shot examples but the corpus holds {len(shots)}"
        )
    messages: list[Message] = [{"role": "system", "content": DEFAULT_SYSTEM_ROLE}]
    for shot, annotated in shots[:shot_count]:
        messages.append({"role": "user", "content": _QUERY_TEMPLATE.format(program=shot)})
        messages.append(
            {"role": "assistant", "content": _SHOT_ANSWER_TEMPLATE.format(annotated=annotated)}
        )
    messages.append({"role": "user", "content": _QUERY_TEMPLATE.format(program=program)})
    return messages


class ExtractionFailure(FrozenRecord):
    """Extraction diagnostics (at least one), fed back to the model as a
    syntax failure."""

    __slots__ = ("diagnostics",)


# An opening fence, its info string and newline, then the body up to the next
# ```. The body is runs of non-backticks joined by backticks that do not start
# a ```, so the closing fence is tried at backticks only, not at every
# character as a lazy ``(.*?)``` would.
_FENCE_RE = re.compile(r"```[^\n`]*\n([^`]*(?:`(?!``)[^`]*)*)```")
_LOOP_CLAUSE_RE = re.compile(r"//@\s*(?:maintaining|decreases)\b")


def extract_specs(response: str, program: str) -> AnnotatedProgram | ExtractionFailure:
    """Pull the clause set out of a model response.

    A fenced block opens with ```` ``` ```` and an info string up to the end
    of that line (no backtick in it), and ends at the next ```` ``` ````.
    Blocks are found left to right, none inside another; the body of the
    last one is used, and the whole response when none is closed.

    A body whose every non-blank line is a ``//@`` line is a bare clause
    block. Its lines are placed on the queried program, after the program's
    own ``//@`` lines there, but only when that is unambiguous: one method,
    and at most one loop if loop clauses are present. Every diagnostic cites
    a line as the model's block numbers it; the program's own ``//@`` lines
    are numbered as in the program. All failures are returned as values.
    """
    blocks = _FENCE_RE.findall(response)
    stripped, annotations = split_annotations(blocks[-1] if blocks else response)
    if not annotations:
        return ExtractionFailure(("the response contains no //@ annotation lines",))
    if not stripped or stripped.isspace():
        placed = _place_bare_clauses([pair for _, block in annotations for pair in block], program)
        if isinstance(placed, ExtractionFailure):
            return placed
        stripped, annotations = placed
    try:
        return place_annotations(stripped, annotations)
    except ExtractionError as exc:
        return ExtractionFailure(
            tuple(f"line {line}: {message}" for line, message in exc.issues)
        )


def _place_bare_clauses(
    clause_lines: list[tuple[int, str]], program: str
) -> tuple[str, AnnotationBlocks] | ExtractionFailure:
    """``program``'s stripped text and its annotation blocks, with the
    (line number, line) pairs added to the block above its one method
    header, loop clauses to the block above its one loop."""
    stripped, blocks = split_annotations(program)
    anchors = program_anchors(stripped)[0]
    methods = [i for i, a in anchors.items() if a.loop is None]  # in line order
    loops = [i for i, a in anchors.items() if a.loop is not None]
    if len(methods) != 1:
        return ExtractionFailure(
            (
                "the response contains bare clauses but the queried program "
                f"has {len(methods)} methods; return the full annotated program",
            )
        )
    # Unrecognized keywords ride along with the method group so they reach
    # the parser and produce a proper diagnostic instead of vanishing.
    loop_clauses = [pair for pair in clause_lines if _LOOP_CLAUSE_RE.match(pair[1])]
    method_clauses = [pair for pair in clause_lines if not _LOOP_CLAUSE_RE.match(pair[1])]
    if loop_clauses and len(loops) != 1:
        return ExtractionFailure(
            (
                "the response contains bare loop clauses but the queried "
                f"program has {len(loops)} loops; return the full annotated program",
            )
        )
    by_line = dict(blocks)
    if method_clauses:
        by_line.setdefault(methods[0], []).extend(method_clauses)
    if loop_clauses:
        by_line.setdefault(loops[0], []).extend(loop_clauses)
    return stripped, sorted(by_line.items())


# Category -> guidance text inserted after the failure message. At most one
# rule per category; overridable via the guidance file.
DEFAULT_GUIDANCE: dict[FailureCategory, str] = {
    FailureCategory.SYNTAX_ERROR: (
        "Write each annotation on its own //@ line ending with a semicolon, "
        "using only requires, ensures, maintaining, and decreases clauses."
    ),
    FailureCategory.UNPROVABLE_POSTCONDITION: (
        "The ensures clause is not established by the method; weaken the "
        "claim or fix the relation so it matches what the code computes."
    ),
    FailureCategory.UNPROVABLE_INVARIANT: (
        "The maintaining clause must hold on loop entry and after every "
        "iteration; adjust its bounds so both ends are covered."
    ),
    FailureCategory.UNPROVABLE_PRECONDITION: (
        "The requires clause conflicts with how the method is used; only "
        "assume conditions the callers actually guarantee."
    ),
    FailureCategory.NONTERMINATION_DECREASES: (
        "The decreases expression must be non-negative and strictly smaller "
        "on every iteration; pick a measure the loop really shrinks."
    ),
    FailureCategory.TYPE_ERROR: (
        "Check operand types: comparisons need integers, logical operators "
        "need booleans, and array indices must stay in bounds."
    ),
}

_FEEDBACK_INSTRUCTION = (
    "Return the full corrected annotated program in one fenced code block."
)


def build_feedback_prompt(
    verdict: VerifierVerdict | ExtractionFailure,
    guidance: dict[FailureCategory, str] | None = None,
) -> str:
    """One failure message, optional guidance for its category, instruction."""
    guidance = DEFAULT_GUIDANCE if guidance is None else guidance
    if isinstance(verdict, ExtractionFailure):
        message = verdict.diagnostics[0]
        category = FailureCategory.SYNTAX_ERROR
        header = "The previous response could not be parsed."
    elif verdict.failures:
        first = verdict.failures[0]
        message = first.raw_message
        category = first.category
        header = "The verifier rejected the previous specifications."
    else:
        # Timeout or crash: no per-clause report to quote.
        message = verdict.detail or f"verification ended with {verdict.outcome.value}"
        category = FailureCategory.UNKNOWN
        header = "The verifier could not check the previous specifications."
    parts = [header, f"Failure: {message}"]
    if category in guidance:
        parts.append(f"Guidance: {guidance[category]}")
    parts.append(_FEEDBACK_INSTRUCTION)
    return "\n".join(parts)


class Round(Record):
    # prompt: round 1's full rendered initial prompt; later, the feedback text.
    __slots__ = ("prompt", "response", "extracted", "extraction_diagnostics", "verdict")

    def __init__(self, prompt: str, response: str, extracted, extraction_diagnostics=(), verdict=None):
        self.prompt = prompt
        self.response = response
        self.extracted = extracted
        self.extraction_diagnostics = extraction_diagnostics
        self.verdict = verdict


class ConversationTranscript(Record):
    __slots__ = ("rounds", "outcome", "error", "last_extracted", "verifier_calls")

    def __init__(self):
        self.rounds: list[Round] = []
        self.outcome = "aborted"  # "verified" | "exhausted" | "aborted"
        self.error = ""
        self.last_extracted: AnnotatedProgram | None = None
        self.verifier_calls = 0


def _trim_history(
    messages: list[Message], chars: int, budget: int, shot_pairs: int
) -> tuple[int, int]:
    """Drop oldest shot pairs while the estimate ``chars // 4`` is over
    ``budget`` tokens; round messages are kept.

    ``chars`` is the length of every message's content. Returns how many shot
    pairs remain and the length left. The pairs sit at messages[1:3], [3:5],
    ... directly after the system message.
    """
    while shot_pairs > 0 and chars // 4 > budget:
        chars -= len(messages[1]["content"]) + len(messages[2]["content"])
        del messages[1:3]
        shot_pairs -= 1
    return shot_pairs, chars


def run_conversation(
    program: str,
    cfg: EndpointConfig,
    verifier: Verifier,
    client: ChatClient,
    shots: Sequence[tuple[str, str]] = (),
    guidance: dict[FailureCategory, str] | None = None,
) -> ConversationTranscript:
    """Drive the chat until a pass or ``cfg.max_rounds`` rounds.

    The transcript's ``outcome`` says how the chat ended; its
    ``last_extracted`` is the verified program on ``"verified"``, and
    otherwise the clause set that seeds the mutation phase (or None).

    Each round re-sends the whole annotated program; a clause line repeated
    from an earlier round, or from another conversation, is not parsed
    again (see :func:`~specsmith.clauses.clause_line`).
    """
    messages = _round_one(program, shots, cfg.shot_count)
    shot_pairs = cfg.shot_count
    chars = sum(len(m["content"]) for m in messages)  # kept current as messages come and go
    transcript = ConversationTranscript()
    prompt_text = "\n\n".join(m["content"] for m in messages)

    for _ in range(cfg.max_rounds):
        try:
            response = client.complete(messages, cfg)
        except (EndpointError, ScriptExhausted) as exc:
            transcript.outcome = "aborted"
            transcript.error = str(exc)
            return transcript

        extraction = extract_specs(response, program)
        if isinstance(extraction, ExtractionFailure):
            transcript.rounds.append(
                Round(prompt_text, response, None, extraction_diagnostics=extraction.diagnostics)
            )
            feedback_source: VerifierVerdict | ExtractionFailure = extraction
        else:
            transcript.last_extracted = extraction
            verdict = verifier.verify(extraction)
            transcript.verifier_calls += 1
            transcript.rounds.append(Round(prompt_text, response, extraction, verdict=verdict))
            if verdict.outcome is Outcome.PASS:
                transcript.outcome = "verified"
                return transcript
            feedback_source = verdict

        prompt_text = build_feedback_prompt(feedback_source, guidance)
        messages.append({"role": "assistant", "content": response})
        messages.append({"role": "user", "content": prompt_text})
        chars += len(response) + len(prompt_text)
        shot_pairs, chars = _trim_history(messages, chars, cfg.history_token_budget, shot_pairs)

    transcript.outcome = "exhausted"
    return transcript
