"""Tests for prompt assembly, response extraction, and the chat loop."""
import json
import sys
import types

import pytest
from conftest import ScriptedVerifier

from specsmith.conversation import (
    DEFAULT_GUIDANCE,
    DEFAULT_SYSTEM_ROLE,
    ConversationTranscript,
    EndpointConfig,
    ExtractionFailure,
    HttpChatClient,
    PromptBundle,
    ScriptedChatClient,
    _trim_history,
    build_feedback_prompt,
    build_initial_prompt,
    extract_specs,
    run_conversation,
)
from specsmith.clauses import AnnotatedProgram, render_clause
from specsmith.errors import EndpointError, InsufficientShots, ScriptExhausted
from specsmith.verifier import (
    FailureCategory,
    FailureReport,
    Outcome,
    VerifierVerdict,
)

ABS_PROGRAM = """\
class Abs {
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

ABS_ANNOTATED = """\
class Abs {
    //@ requires x > -1000;
    //@ ensures \\result >= 0;
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

SUM_PROGRAM = """\
class Sum {
    static int sum(int n) {
        int total = 0;
        int i = 0;
        while (i < n) {
            total = total + i;
            i = i + 1;
        }
        return total;
    }
}
"""

SHOTS = [
    ("class A { static int f(int x) { return x; } }",
     "class A { //@ requires x >= 0;\n static int f(int x) { return x; } }"),
    ("class B { static int g(int x) { return x; } }",
     "class B { //@ ensures \\result == x;\n static int g(int x) { return x; } }"),
    ("class C { static int h(int x) { return x; } }",
     "class C { //@ requires x < 10;\n static int h(int x) { return x; } }"),
]


def fenced(annotated: str) -> str:
    return f"Here you go.\n\n```java\n{annotated}```\n"


def pass_verdict() -> VerifierVerdict:
    return VerifierVerdict(Outcome.PASS)


def fail_verdict(message: str, category=FailureCategory.UNPROVABLE_POSTCONDITION,
                 clause_id: str | None = None) -> VerifierVerdict:
    return VerifierVerdict(
        Outcome.FAIL,
        failures=(FailureReport(raw_message=message, category=category, clause_id=clause_id),),
    )


# ---------------------------------------------------------------------------
# Endpoint configuration
# ---------------------------------------------------------------------------


class TestEndpointConfig:
    def test_defaults(self):
        cfg = EndpointConfig()
        assert cfg.temperature == 0.4
        assert cfg.max_rounds == 10
        assert cfg.shot_count == 4

    def test_temperature_out_of_range(self):
        with pytest.raises(ValueError, match="temperature"):
            EndpointConfig(temperature=2.5)

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="max_rounds"):
            EndpointConfig(max_rounds=0)

    def test_shot_count_cannot_be_negative(self):
        with pytest.raises(ValueError, match="shot_count"):
            EndpointConfig(shot_count=-1)


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


class TestPromptAssembly:
    def test_message_layout(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=2)
        messages = bundle.render_messages()
        assert [m["role"] for m in messages] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        assert messages[0]["content"] == DEFAULT_SYSTEM_ROLE

    def test_query_message_embeds_program(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=1)
        query = bundle.render_messages()[-1]["content"]
        assert query == (
            "Add JML specifications to this Java program:\n"
            f"```java\n{ABS_PROGRAM}\n```"
        )

    def test_shot_pair_contents(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=2)
        messages = bundle.render_messages()
        assert SHOTS[0][0] in messages[1]["content"]
        assert messages[2]["content"] == f"```java\n{SHOTS[0][1]}\n```"
        assert SHOTS[1][0] in messages[3]["content"]

    def test_shot_count_takes_prefix(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=2)
        assert bundle.shots == tuple(SHOTS[:2])

    def test_shot_count_defaults_to_all(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS)
        assert bundle.shots == tuple(SHOTS)

    def test_zero_shots(self):
        bundle = build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=0)
        messages = bundle.render_messages()
        assert len(messages) == 2  # system + query only

    def test_insufficient_shots(self):
        with pytest.raises(InsufficientShots, match="4 few-shot examples"):
            build_initial_prompt(ABS_PROGRAM, SHOTS, shot_count=4)

    def test_custom_system_role(self):
        bundle = build_initial_prompt(ABS_PROGRAM, [], system_role="be terse")
        assert bundle.render_messages()[0]["content"] == "be terse"


# ---------------------------------------------------------------------------
# Response extraction
# ---------------------------------------------------------------------------


class TestExtractSpecs:
    def test_fenced_annotated_program(self):
        result = extract_specs(fenced(ABS_ANNOTATED), ABS_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        texts = [render_clause(c) for c in result.clauses]
        assert texts == [
            "//@ requires x > -1000;",
            "//@ ensures \\result >= 0;",
        ]

    def test_last_fence_wins(self):
        response = (
            "First attempt:\n```java\nclass Broken {\n```\n"
            "Corrected:\n" + fenced(ABS_ANNOTATED)
        )
        result = extract_specs(response, ABS_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        assert len(result.clauses) == 2

    def test_unfenced_fallback(self):
        result = extract_specs(ABS_ANNOTATED, ABS_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        assert len(result.clauses) == 2

    def test_no_annotations_anywhere(self):
        result = extract_specs("I cannot annotate that program.", ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert "no //@ annotation lines" in result.first_message

    def test_bare_clauses_anchored_onto_program(self):
        response = fenced(
            "//@ requires n >= 0;\n"
            "//@ maintaining i <= n;\n"
            "//@ decreases n - i;\n"
            "//@ ensures \\result >= 0;\n"
        )
        result = extract_specs(response, SUM_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        by_id = {c.id: render_clause(c) for c in result.clauses}
        assert by_id == {
            "method:sum/requires/0": "//@ requires n >= 0;",
            "method:sum/ensures/0": "//@ ensures \\result >= 0;",
            "loop:sum:0/maintaining/0": "//@ maintaining i <= n;",
            "loop:sum:0/decreases/0": "//@ decreases n - i;",
        }

    def test_bare_clauses_ambiguous_methods(self):
        program = (
            "class Two {\n"
            "    static int f(int x) { return x; }\n"
            "    static int g(int x) { return x; }\n"
            "}\n"
        )
        result = extract_specs(fenced("//@ requires x >= 0;\n"), program)
        assert isinstance(result, ExtractionFailure)
        assert "2 methods" in result.first_message

    def test_bare_loop_clauses_without_loop(self):
        result = extract_specs(fenced("//@ maintaining i <= n;\n"), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert "0 loops" in result.first_message

    def test_parse_error_becomes_diagnostics(self):
        bad = ABS_ANNOTATED.replace("x > -1000", "x > >")
        result = extract_specs(fenced(bad), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert result.diagnostics
        assert result.first_message.startswith("line ")

    def test_type_error_becomes_diagnostics(self):
        bad = ABS_ANNOTATED.replace("x > -1000", "x + 1")
        result = extract_specs(fenced(bad), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert "boolean" in result.first_message

    def test_empty_failure_has_fallback_message(self):
        assert ExtractionFailure(()).first_message == "no annotations found"


# ---------------------------------------------------------------------------
# Feedback prompts
# ---------------------------------------------------------------------------


class TestFeedbackPrompt:
    def test_single_failure_with_guidance(self):
        verdict = fail_verdict("postcondition not established for abs")
        text = build_feedback_prompt(verdict)
        assert text.count("Failure:") == 1
        assert "Failure: postcondition not established for abs" in text
        assert f"Guidance: {DEFAULT_GUIDANCE[FailureCategory.UNPROVABLE_POSTCONDITION]}" in text
        assert text.endswith("one fenced code block.")

    def test_only_first_failure_is_quoted(self):
        verdict = VerifierVerdict(
            Outcome.FAIL,
            failures=(
                FailureReport("first problem", FailureCategory.UNPROVABLE_INVARIANT),
                FailureReport("second problem", FailureCategory.TYPE_ERROR),
            ),
        )
        text = build_feedback_prompt(verdict)
        assert "first problem" in text
        assert "second problem" not in text
        assert text.count("Failure:") == 1

    def test_extraction_failure_uses_syntax_guidance(self):
        failure = ExtractionFailure(("line 3: expected expression",))
        text = build_feedback_prompt(failure)
        assert "could not be parsed" in text
        assert "Failure: line 3: expected expression" in text
        assert DEFAULT_GUIDANCE[FailureCategory.SYNTAX_ERROR] in text

    def test_timeout_quotes_detail_without_guidance(self):
        verdict = VerifierVerdict(Outcome.TIMEOUT, detail="no verdict after 1800s")
        text = build_feedback_prompt(verdict)
        assert "Failure: no verdict after 1800s" in text
        assert "Guidance:" not in text

    def test_crash_without_detail_names_outcome(self):
        verdict = VerifierVerdict(Outcome.CRASH)
        text = build_feedback_prompt(verdict)
        assert "Failure: verification ended with crash" in text

    def test_custom_guidance_table(self):
        verdict = fail_verdict("boom", category=FailureCategory.TYPE_ERROR)
        text = build_feedback_prompt(
            verdict, guidance={FailureCategory.TYPE_ERROR: "mind the types"}
        )
        assert "Guidance: mind the types" in text
        assert DEFAULT_GUIDANCE[FailureCategory.TYPE_ERROR] not in text

    def test_category_missing_from_guidance_gets_no_line(self):
        verdict = fail_verdict("boom", category=FailureCategory.TYPE_ERROR)
        text = build_feedback_prompt(verdict, guidance={})
        assert "Guidance:" not in text


# ---------------------------------------------------------------------------
# History trimming
# ---------------------------------------------------------------------------


class TestHistoryTrimming:
    @staticmethod
    def messages_with_shots() -> list[dict[str, str]]:
        return [
            {"role": "system", "content": "s" * 40},
            {"role": "user", "content": "shot-1-q" * 10},
            {"role": "assistant", "content": "shot-1-a" * 10},
            {"role": "user", "content": "shot-2-q" * 10},
            {"role": "assistant", "content": "shot-2-a" * 10},
            {"role": "user", "content": "the query" * 10},
        ]

    def test_under_budget_is_untouched(self):
        messages = self.messages_with_shots()
        remaining = _trim_history(messages, budget=10_000, shot_pairs=2)
        assert remaining == 2
        assert len(messages) == 6

    def test_drops_oldest_pair_first(self):
        messages = self.messages_with_shots()
        # Six messages at ~480 chars is ~120 estimated tokens; a budget of
        # 100 forces exactly one pair out.
        remaining = _trim_history(messages, budget=100, shot_pairs=2)
        assert remaining == 1
        assert "shot-1-q" not in json.dumps(messages)
        assert "shot-2-q" in json.dumps(messages)

    def test_never_drops_round_messages(self):
        messages = self.messages_with_shots()
        remaining = _trim_history(messages, budget=1, shot_pairs=2)
        assert remaining == 0
        assert [m["role"] for m in messages] == ["system", "user"]
        assert "the query" in messages[-1]["content"]


# ---------------------------------------------------------------------------
# Scripted client
# ---------------------------------------------------------------------------


class TestScriptedChatClient:
    def test_replays_in_order_and_records_calls(self):
        client = ScriptedChatClient(["one", "two"])
        cfg = EndpointConfig()
        assert client.complete([{"role": "user", "content": "a"}], cfg) == "one"
        assert client.complete([{"role": "user", "content": "b"}], cfg) == "two"
        assert [call[-1]["content"] for call in client.calls] == ["a", "b"]

    def test_records_copies_not_references(self):
        client = ScriptedChatClient(["one"])
        message = {"role": "user", "content": "original"}
        client.complete([message], EndpointConfig())
        message["content"] = "mutated"
        assert client.calls[0][0]["content"] == "original"

    def test_exhaustion_raises(self):
        client = ScriptedChatClient([])
        with pytest.raises(ScriptExhausted):
            client.complete([], EndpointConfig())



# ---------------------------------------------------------------------------
# HTTP client (network faked through a stub requests module)
# ---------------------------------------------------------------------------


class FakeRequestException(Exception):
    pass


class FakeResponse:
    def __init__(self, status_code=200, body=None, bad_json=False):
        self.status_code = status_code
        self._body = body
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("not json")
        return self._body


def install_fake_requests(monkeypatch, outcomes):
    """Stub the requests module; outcomes is a list of FakeResponse or
    exceptions consumed one per post() call."""
    recorded = []

    def post(url, json=None, headers=None, timeout=None):
        recorded.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    fake = types.SimpleNamespace(post=post, RequestException=FakeRequestException)
    monkeypatch.setitem(sys.modules, "requests", fake)
    return recorded


def good_response(content="annotated program here"):
    return FakeResponse(body={"choices": [{"message": {"content": content}}]})


class TestHttpChatClient:
    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("SPECSMITH_API_KEY", raising=False)
        client = HttpChatClient()
        with pytest.raises(EndpointError, match="SPECSMITH_API_KEY"):
            client.complete([], EndpointConfig())

    def test_successful_request_shape(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        recorded = install_fake_requests(monkeypatch, [good_response("hello")])
        cfg = EndpointConfig(base_url="http://example.test/v1/", model="m7",
                             temperature=0.4, request_timeout=9.0)
        messages = [{"role": "user", "content": "hi"}]
        assert HttpChatClient().complete(messages, cfg) == "hello"
        call = recorded[0]
        assert call["url"] == "http://example.test/v1/chat/completions"
        assert call["json"] == {"model": "m7", "temperature": 0.4, "messages": messages}
        assert call["headers"] == {"Authorization": "Bearer sk-test-123"}
        assert call["timeout"] == 9.0

    def test_retries_after_connection_error(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        recorded = install_fake_requests(
            monkeypatch, [FakeRequestException("refused"), good_response("ok")]
        )
        sleeps = []
        client = HttpChatClient(sleep=sleeps.append)
        cfg = EndpointConfig(retries=2, retry_backoff=0.5)
        assert client.complete([], cfg) == "ok"
        assert len(recorded) == 2
        assert sleeps == [0.5]

    def test_backoff_doubles(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        install_fake_requests(
            monkeypatch,
            [FakeResponse(status_code=500)] * 2 + [good_response("ok")],
        )
        sleeps = []
        client = HttpChatClient(sleep=sleeps.append)
        cfg = EndpointConfig(retries=2, retry_backoff=1.0)
        assert client.complete([], cfg) == "ok"
        assert sleeps == [1.0, 2.0]

    def test_persistent_http_error_raises(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-very-secret")
        recorded = install_fake_requests(
            monkeypatch, [FakeResponse(status_code=503)] * 3
        )
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError) as excinfo:
            client.complete([], EndpointConfig(retries=2))
        assert "HTTP 503" in str(excinfo.value)
        assert "3 attempts" in str(excinfo.value)
        assert len(recorded) == 3
        assert "sk-very-secret" not in str(excinfo.value)

    def test_malformed_body_raises(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        install_fake_requests(
            monkeypatch, [FakeResponse(body={"choices": []})] * 1
        )
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError, match="malformed endpoint response"):
            client.complete([], EndpointConfig(retries=0))

    def test_unparseable_json_raises(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        install_fake_requests(monkeypatch, [FakeResponse(bad_json=True)])
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError, match="malformed"):
            client.complete([], EndpointConfig(retries=0))


# ---------------------------------------------------------------------------
# Conversation loop
# ---------------------------------------------------------------------------


class TestRunConversation:
    def test_verified_on_first_round(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)])
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=2, max_rounds=5)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client, shots=SHOTS)
        assert isinstance(transcript, ConversationTranscript)
        assert transcript.outcome == "verified"
        # On a pass, the last extracted program is the verified one.
        assert len(transcript.last_extracted.clauses) == 2
        assert len(transcript.rounds) == 1
        assert transcript.verifier_calls == 1
        assert transcript.rounds[0].verdict.outcome is Outcome.PASS

    def test_first_call_carries_shots_and_query(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)])
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=2, max_rounds=5)
        run_conversation(ABS_PROGRAM, cfg, verifier, client, shots=SHOTS)
        first_call = client.calls[0]
        assert len(first_call) == 6  # system + 2 pairs + query
        assert first_call[0]["content"] == DEFAULT_SYSTEM_ROLE
        assert ABS_PROGRAM in first_call[-1]["content"]

    def test_verified_after_feedback(self):
        wrong = ABS_ANNOTATED.replace("\\result >= 0", "\\result > 0")
        client = ScriptedChatClient([fenced(wrong), fenced(ABS_ANNOTATED)])
        verifier = ScriptedVerifier(
            [fail_verdict("ensures clause fails when x == 0"), pass_verdict()]
        )
        cfg = EndpointConfig(shot_count=0, max_rounds=5)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "verified"
        assert len(transcript.rounds) == 2
        assert transcript.verifier_calls == 2
        # Round two saw the previous answer and the feedback message.
        second_call = client.calls[1]
        assert second_call[-2]["role"] == "assistant"
        assert second_call[-2]["content"] == fenced(wrong)
        assert second_call[-1]["role"] == "user"
        assert "Failure: ensures clause fails when x == 0" in second_call[-1]["content"]

    def test_exhaustion_after_max_rounds(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)] * 3)
        verifier = ScriptedVerifier(
            [fail_verdict(f"round {k} problem") for k in (1, 2, 3)]
        )
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "exhausted"
        assert len(transcript.rounds) == 3
        assert transcript.verifier_calls == 3

    def test_last_extracted_survives_later_garbage(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED), "no annotations, sorry"])
        verifier = ScriptedVerifier([fail_verdict("not provable")])
        cfg = EndpointConfig(shot_count=0, max_rounds=2)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "exhausted"
        assert transcript.last_extracted is not None
        assert len(transcript.last_extracted.clauses) == 2
        # The garbage round never reached the verifier.
        assert transcript.verifier_calls == 1
        assert transcript.rounds[1].extracted is None
        assert transcript.rounds[1].extraction_diagnostics

    def test_extraction_failure_feedback_mentions_parsing(self):
        client = ScriptedChatClient(["nothing useful", fenced(ABS_ANNOTATED)])
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "verified"
        feedback = client.calls[1][-1]["content"]
        assert "could not be parsed" in feedback
        assert "no //@ annotation lines" in feedback

    def test_script_exhaustion_aborts(self):
        client = ScriptedChatClient([])
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "aborted"
        assert "no responses left" in transcript.error
        assert transcript.rounds == []

    def test_endpoint_error_aborts(self):
        class FailingClient:
            def complete(self, messages, cfg):
                raise EndpointError("endpoint unreachable")

        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, FailingClient())
        assert transcript.outcome == "aborted"
        assert transcript.error == "endpoint unreachable"

    def test_round_prompts_recorded(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)] * 2)
        verifier = ScriptedVerifier([fail_verdict("first fault"), pass_verdict()])
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert DEFAULT_SYSTEM_ROLE in transcript.rounds[0].prompt
        assert ABS_PROGRAM in transcript.rounds[0].prompt
        assert "Failure: first fault" in transcript.rounds[1].prompt

    def test_tiny_budget_evicts_shots_between_rounds(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)] * 2)
        verifier = ScriptedVerifier([fail_verdict("nope"), pass_verdict()])
        cfg = EndpointConfig(shot_count=3, max_rounds=3, history_token_budget=1)
        transcript = run_conversation(
            ABS_PROGRAM, cfg, verifier, client, shots=SHOTS
        )
        first_call, second_call = client.calls
        assert len(first_call) == 8  # system + 3 pairs + query
        # All three pairs evicted: system, query, assistant reply, feedback.
        assert [m["role"] for m in second_call] == [
            "system", "user", "assistant", "user",
        ]
        assert ABS_PROGRAM in second_call[1]["content"]
        assert SHOTS[0][0] not in json.dumps(second_call)

    def test_generous_budget_keeps_shots(self):
        client = ScriptedChatClient([fenced(ABS_ANNOTATED)] * 2)
        verifier = ScriptedVerifier([fail_verdict("nope"), pass_verdict()])
        cfg = EndpointConfig(shot_count=3, max_rounds=3)
        run_conversation(ABS_PROGRAM, cfg, verifier, client, shots=SHOTS)
        assert len(client.calls[1]) == 10  # 8 + assistant reply + feedback

    def test_default_transcript_state(self):
        transcript = ConversationTranscript()
        assert transcript.outcome == "aborted"
        assert transcript.rounds == []
        assert transcript.last_extracted is None
