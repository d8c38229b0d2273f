"""Tests for prompt assembly, response extraction, and the chat loop."""
import json
import sys
import time

import pytest
from conftest import (
    ORACLE_FENCE_RE,
    RecordingChatClient,
    ScriptedVerifier,
    extraction_cases,
    extraction_fields,
    oracle_extract_specs,
    recount_trim_history,
    unused_port,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specsmith.conversation import (
    DEFAULT_GUIDANCE,
    DEFAULT_SYSTEM_ROLE,
    ConversationTranscript,
    EndpointConfig,
    ExtractionFailure,
    HttpChatClient,
    ScriptedChatClient,
    _FENCE_RE,
    _trim_history,
    build_feedback_prompt,
    extract_specs,
    run_conversation,
)
from specsmith.clauses import AnnotatedProgram
from specsmith.config import config_from_dict
from specsmith.errors import EndpointError, InsufficientShots, ScriptExhausted
from specsmith.pipeline import PipelineContext, build_verifier, run_pipeline
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


def round_one(shot_count: int, shots=SHOTS) -> tuple[list[dict[str, str]], str]:
    """The messages of the first chat request of a conversation on
    ABS_PROGRAM, and the prompt its transcript records for round one."""
    client = RecordingChatClient(ScriptedChatClient([fenced(ABS_ANNOTATED)]))
    cfg = EndpointConfig(shot_count=shot_count, max_rounds=1)
    transcript = run_conversation(
        ABS_PROGRAM, cfg, ScriptedVerifier([pass_verdict()]), client, shots=shots
    )
    return client.calls[0], transcript.rounds[0].prompt


class TestPromptAssembly:
    @pytest.mark.parametrize("shot_count", range(len(SHOTS) + 1))
    def test_round_one_messages_for_every_shot_count(self, shot_count):
        messages, prompt = round_one(shot_count)
        expected = [{"role": "system", "content": DEFAULT_SYSTEM_ROLE}]
        for program, annotated in SHOTS[:shot_count]:
            expected.append({
                "role": "user",
                "content": f"Add JML specifications to this Java program:\n```java\n{program}\n```",
            })
            expected.append({"role": "assistant", "content": f"```java\n{annotated}\n```"})
        expected.append({
            "role": "user",
            "content": f"Add JML specifications to this Java program:\n```java\n{ABS_PROGRAM}\n```",
        })
        assert messages == expected
        assert prompt == "\n\n".join(m["content"] for m in expected)

    def test_message_layout(self):
        messages, _ = round_one(2)
        assert [m["role"] for m in messages] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        assert messages[0]["content"] == DEFAULT_SYSTEM_ROLE

    def test_query_message_embeds_program(self):
        messages, _ = round_one(1)
        assert messages[-1]["content"] == (
            "Add JML specifications to this Java program:\n"
            f"```java\n{ABS_PROGRAM}\n```"
        )

    def test_shot_pair_contents(self):
        messages, _ = round_one(2)
        assert SHOTS[0][0] in messages[1]["content"]
        assert messages[2]["content"] == f"```java\n{SHOTS[0][1]}\n```"
        assert SHOTS[1][0] in messages[3]["content"]

    def test_shot_count_takes_prefix(self):
        messages, _ = round_one(2)
        assert SHOTS[1][1] in messages[4]["content"]
        assert SHOTS[2][0] not in json.dumps(messages)

    def test_zero_shots(self):
        messages, _ = round_one(0)
        assert len(messages) == 2  # system + query only

    def test_insufficient_shots(self):
        with pytest.raises(InsufficientShots, match="4 few-shot examples"):
            round_one(4)


# ---------------------------------------------------------------------------
# Response extraction
# ---------------------------------------------------------------------------


class TestExtractSpecs:
    def test_fenced_annotated_program(self):
        result = extract_specs(fenced(ABS_ANNOTATED), ABS_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        texts = [c.text for c in result.clauses]
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
        assert "no //@ annotation lines" in result.diagnostics[0]

    def test_bare_clauses_anchored_onto_program(self):
        response = fenced(
            "//@ requires n >= 0;\n"
            "//@ maintaining i <= n;\n"
            "//@ decreases n - i;\n"
            "//@ ensures \\result >= 0;\n"
        )
        result = extract_specs(response, SUM_PROGRAM)
        assert isinstance(result, AnnotatedProgram)
        by_id = {c.id: c.text for c in result.clauses}
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
        assert "2 methods" in result.diagnostics[0]

    def test_bare_clause_diagnostics_cite_the_lines_of_the_response(self):
        # Cited where the model wrote it, not where it lands in the program.
        response = "```\n//@ requires x >;\n//@ ensures \\result >= x;\n```"
        result = extract_specs(response, ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert [d.split(":")[0] for d in result.diagnostics] == ["line 1"]
        result = extract_specs(response.replace("```\n", "```\n\n\n", 1), ABS_PROGRAM)
        assert [d.split(":")[0] for d in result.diagnostics] == ["line 3"]

    def test_the_programs_own_lines_keep_their_line_numbers(self):
        program = ABS_PROGRAM.replace("    static", "    //@ ensures \\result ? 0;\n    static")
        result = extract_specs(fenced("\n\n\n//@ requires x >;\n"), program)
        assert isinstance(result, ExtractionFailure)
        assert [d.split(":")[0] for d in result.diagnostics] == ["line 2", "line 4"]

    def test_bare_loop_clauses_without_loop(self):
        result = extract_specs(fenced("//@ maintaining i <= n;\n"), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert "0 loops" in result.diagnostics[0]

    def test_parse_error_becomes_diagnostics(self):
        bad = ABS_ANNOTATED.replace("x > -1000", "x > >")
        result = extract_specs(fenced(bad), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert result.diagnostics
        assert result.diagnostics[0].startswith("line ")

    def test_type_error_becomes_diagnostics(self):
        bad = ABS_ANNOTATED.replace("x > -1000", "x + 1")
        result = extract_specs(fenced(bad), ABS_PROGRAM)
        assert isinstance(result, ExtractionFailure)
        assert "boolean" in result.diagnostics[0]


class TestExtractionMatchesTheOracle:
    """The linear fence scan and the one-pass extraction against the lazy
    pattern and the two-pass extraction they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(("`", "``", "```", "```java\n", "\n", "\r\n", "a", "b", " ")), max_size=24))
    def test_the_fence_scan_finds_what_the_lazy_pattern_finds(self, parts):
        text = "".join(parts)
        assert _FENCE_RE.findall(text) == ORACLE_FENCE_RE.findall(text)

    @settings(max_examples=300, deadline=None)
    @given(extraction_cases())
    def test_extraction_matches_the_two_pass_oracle(self, case):
        response, program = case
        assert extraction_fields(extract_specs(response, program)) == extraction_fields(
            oracle_extract_specs(response, program)
        )


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

    @staticmethod
    def trim(messages, budget, shot_pairs):
        """Trim from the true total, and check the total handed back."""
        remaining, chars = _trim_history(
            messages, sum(len(m["content"]) for m in messages), budget, shot_pairs
        )
        assert chars == sum(len(m["content"]) for m in messages)
        return remaining

    def test_under_budget_is_untouched(self):
        messages = self.messages_with_shots()
        remaining = self.trim(messages, budget=10_000, shot_pairs=2)
        assert remaining == 2
        assert len(messages) == 6

    def test_drops_oldest_pair_first(self):
        messages = self.messages_with_shots()
        # Six messages of 450 chars estimate 112 tokens; a budget of 100
        # forces exactly one pair out.
        remaining = self.trim(messages, budget=100, shot_pairs=2)
        assert remaining == 1
        assert "shot-1-q" not in json.dumps(messages)
        assert "shot-2-q" in json.dumps(messages)

    def test_never_drops_round_messages(self):
        messages = self.messages_with_shots()
        remaining = self.trim(messages, budget=1, shot_pairs=2)
        assert remaining == 0
        assert [m["role"] for m in messages] == ["system", "user"]
        assert "the query" in messages[-1]["content"]

    def test_a_history_at_the_exact_budget_is_kept(self):
        # 450 chars estimate 112 tokens: a budget of 112 keeps both pairs and
        # 111 drops one. The 290 chars left estimate 72: 72 keeps that pair.
        chars = sum(len(m["content"]) for m in self.messages_with_shots())
        assert chars == 450
        for budget, pairs in ((112, 2), (111, 1), (72, 1), (71, 0)):
            messages = self.messages_with_shots()
            assert self.trim(messages, budget=budget, shot_pairs=2) == pairs
            assert len(messages) == 2 + 2 * pairs

    def test_the_running_total_trims_as_a_recount_would(self):
        # Each round adds a reply and a feedback message. The loop keeps its
        # total as they come and go; every call must carry the messages that
        # re-summing the whole history each round would keep, at budgets on
        # and beside each round's boundary.
        shots = [(f"class S{i} {{}}" * (3 * i + 1), "//@ requires true;") for i in range(4)]
        responses = [fenced(ABS_ANNOTATED)] * 4
        verdicts = [fail_verdict("no " * 20 * i) for i in range(4)]

        def calls(budget):
            client = RecordingChatClient(ScriptedChatClient(responses))
            cfg = EndpointConfig(shot_count=4, max_rounds=4, history_token_budget=budget)
            run_conversation(ABS_PROGRAM, cfg, ScriptedVerifier(list(verdicts)), client, shots=shots)
            assert len(client.calls) == 4
            return client.calls

        totals = [sum(len(m["content"]) for m in call) for call in calls(10**9)[1:]]  # nothing trimmed
        budgets = {1, 10**9} | {t // 4 + d for t in totals for d in (-1, 0)}
        for budget in sorted(budgets):
            sent = calls(budget)
            expected, pairs = list(sent[0]), 4
            for call in sent[1:]:
                expected += call[-2:]  # this round's reply and feedback
                pairs = recount_trim_history(expected, budget, pairs)
                assert call == expected


# ---------------------------------------------------------------------------
# Scripted client
# ---------------------------------------------------------------------------


class TestScriptedChatClient:
    def test_replays_in_order_and_records_calls(self):
        client = RecordingChatClient(ScriptedChatClient(["one", "two"]))
        cfg = EndpointConfig()
        assert client.complete([{"role": "user", "content": "a"}], cfg) == "one"
        assert client.complete([{"role": "user", "content": "b"}], cfg) == "two"
        assert [call[-1]["content"] for call in client.calls] == ["a", "b"]

    def test_records_copies_not_references(self):
        client = RecordingChatClient(ScriptedChatClient(["one"]))
        message = {"role": "user", "content": "original"}
        client.complete([message], EndpointConfig())
        message["content"] = "mutated"
        assert client.calls[0][0]["content"] == "original"

    def test_exhaustion_raises(self):
        client = ScriptedChatClient([])
        with pytest.raises(ScriptExhausted):
            client.complete([], EndpointConfig())



# ---------------------------------------------------------------------------
# HTTP client, against a loopback chat server (``chat_server`` in conftest)


def chat_reply(content="annotated program here", status=200, delay=0.0):
    return (status, {"choices": [{"message": {"content": content}}]}, delay)


class TestHttpChatClient:
    @pytest.fixture(autouse=True)
    def no_requests(self, monkeypatch):
        # The client needs the standard library alone.
        monkeypatch.setitem(sys.modules, "requests", None)

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("SPECSMITH_API_KEY", raising=False)
        client = HttpChatClient()
        with pytest.raises(EndpointError, match="SPECSMITH_API_KEY"):
            client.complete([], EndpointConfig())

    def test_a_key_no_header_can_carry_is_refused_unsent_and_unechoed(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-very-secret\nX-Injected: 1")
        with pytest.raises(EndpointError, match="SPECSMITH_API_KEY holds characters") as excinfo:
            HttpChatClient(sleep=lambda _: None).complete([], EndpointConfig(base_url=chat_server.base_url))
        assert "sk-very-secret" not in str(excinfo.value)
        assert chat_server.requests == []

    def test_successful_request_shape(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply("hello")]
        cfg = EndpointConfig(base_url=chat_server.base_url + "/", model="m7",
                             temperature=0.4, request_timeout=9.0)
        messages = [{"role": "user", "content": "hi"}]
        assert HttpChatClient().complete(messages, cfg) == "hello"
        [call] = chat_server.requests
        assert (call["method"], call["path"]) == ("POST", "/v1/chat/completions")
        assert call["body"] == {"model": "m7", "temperature": 0.4, "messages": messages}
        headers = call["headers"]
        assert headers.get_all("Authorization") == ["Bearer sk-test-123"]
        assert headers.get_all("Content-Type") == ["application/json"]
        assert headers.get_all("User-Agent") == ["specsmith"]

    def test_netrc_never_replaces_the_bearer_key(self, monkeypatch, tmp_path, chat_server):
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login someone password hunter2\n", encoding="utf-8")
        netrc.chmod(0o600)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("NETRC", raising=False)
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply("ok")]
        assert HttpChatClient().complete([], EndpointConfig(base_url=chat_server.base_url)) == "ok"
        assert chat_server.requests[0]["headers"].get_all("Authorization") == ["Bearer sk-test-123"]

    def test_retries_after_connection_error(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [(None, "", 0.0), chat_reply("ok")]  # hang up, then answer
        sleeps = []
        client = HttpChatClient(sleep=sleeps.append)
        cfg = EndpointConfig(base_url=chat_server.base_url, retries=2, retry_backoff=0.5)
        assert client.complete([], cfg) == "ok"
        assert len(chat_server.requests) == 2
        assert sleeps == [0.5]

    def test_backoff_doubles(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [(500, "", 0.0)] * 2 + [chat_reply("ok")]
        sleeps = []
        client = HttpChatClient(sleep=sleeps.append)
        cfg = EndpointConfig(base_url=chat_server.base_url, retries=2, retry_backoff=1.0)
        assert client.complete([], cfg) == "ok"
        assert sleeps == [1.0, 2.0]

    def test_persistent_http_error_raises(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-very-secret")
        chat_server.outcomes = [(503, "", 0.0)] * 3
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError) as excinfo:
            client.complete([], EndpointConfig(base_url=chat_server.base_url, retries=2))
        assert "HTTP 503" in str(excinfo.value)
        assert "3 attempts" in str(excinfo.value)
        assert len(chat_server.requests) == 3
        assert "sk-very-secret" not in str(excinfo.value)

    def test_malformed_body_raises(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [(200, {"choices": []}, 0.0)]
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError, match="malformed endpoint response"):
            client.complete([], EndpointConfig(base_url=chat_server.base_url, retries=0))

    def test_unparseable_json_raises(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [(200, "not json", 0.0)]
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError, match="malformed"):
            client.complete([], EndpointConfig(base_url=chat_server.base_url, retries=0))

    def test_null_content_is_retried(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply(None), chat_reply("ok")]
        sleeps = []
        client = HttpChatClient(sleep=sleeps.append)
        cfg = EndpointConfig(base_url=chat_server.base_url, retries=2, retry_backoff=0.5)
        assert client.complete([], cfg) == "ok"
        assert len(chat_server.requests) == 2
        assert sleeps == [0.5]

    @pytest.mark.parametrize("content", [None, 7, ["text"], {"text": "x"}])
    def test_non_text_content_raises(self, monkeypatch, chat_server, content):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply(content)] * 3
        client = HttpChatClient(sleep=lambda _: None)
        with pytest.raises(EndpointError) as excinfo:
            client.complete([], EndpointConfig(base_url=chat_server.base_url, retries=2))
        assert len(chat_server.requests) == 3
        assert str(excinfo.value) == (
            "chat endpoint failed after 3 attempts: malformed endpoint response: "
            f"message content is {type(content).__name__}, not text"
        )

    def test_a_reply_slower_than_the_timeout_is_retried_then_raised(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply("late", delay=2.0)] * 2
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.base_url, request_timeout=0.2, retries=1, retry_backoff=0.5)
        with pytest.raises(EndpointError, match=r"^chat endpoint failed after 2 attempts: request failed: .*timed out"):
            HttpChatClient(sleep=sleeps.append).complete([], cfg)
        assert len(chat_server.requests) == 2
        assert sleeps == [0.5]

    def test_a_trickled_reply_is_cut_at_the_timeout_then_retried(self, monkeypatch, chat_server):
        # Each byte comes well within the timeout, so only a bound on the
        # whole reply ends an attempt: two attempts of 0.5 s.
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.trickle = 0.15
        chat_server.outcomes = [chat_reply("slow")] * 2
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.base_url, request_timeout=0.5, retries=1, retry_backoff=0.5)
        started = time.monotonic()
        with pytest.raises(EndpointError) as excinfo:
            HttpChatClient(sleep=sleeps.append).complete([], cfg)
        assert 0.9 < time.monotonic() - started < 1.6
        assert str(excinfo.value) == (
            "chat endpoint failed after 2 attempts: request failed: the reply took longer than request_timeout"
        )
        assert len(chat_server.requests) == 2
        assert sleeps == [0.5]

    def test_a_trickled_reply_within_the_timeout_is_read_whole(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.trickle = 0.001
        chat_server.outcomes = [chat_reply("quick")]
        cfg = EndpointConfig(base_url=chat_server.base_url, request_timeout=5.0, retries=0)
        assert HttpChatClient().complete([], cfg) == "quick"

    def test_a_refused_connection_is_retried_then_raised(self, monkeypatch):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        sleeps = []
        cfg = EndpointConfig(base_url=f"http://127.0.0.1:{unused_port()}/v1", retries=2, retry_backoff=0.5)
        with pytest.raises(EndpointError, match=r"^chat endpoint failed after 3 attempts: request failed: "):
            HttpChatClient(sleep=sleeps.append).complete([], cfg)
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_redirect_is_not_followed(self, monkeypatch, chat_server, status):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [(status, "", 0.0)] * 2
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.base_url, retries=1, retry_backoff=0.5)
        with pytest.raises(EndpointError) as excinfo:
            HttpChatClient(sleep=sleeps.append).complete([], cfg)
        assert str(excinfo.value) == f"chat endpoint failed after 2 attempts: endpoint returned HTTP {status}"
        assert [call["path"] for call in chat_server.requests] == ["/v1/chat/completions"] * 2
        assert sleeps == [0.5]

    @pytest.mark.parametrize(
        "base_url",
        ["localhost:8000/v1", "127.0.0.1/v1", "http://127.0.0.1:port/v1", "ftp://127.0.0.1/v1"],
    )
    def test_a_url_that_cannot_be_sent_is_retried_then_raised(self, monkeypatch, base_url):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        sleeps = []
        cfg = EndpointConfig(base_url=base_url, retries=1, retry_backoff=0.5)
        with pytest.raises(EndpointError, match=r"^chat endpoint failed after 2 attempts: request failed: "):
            HttpChatClient(sleep=sleeps.append).complete([], cfg)
        assert sleeps == [0.5]

    def test_null_content_is_an_aborted_entry(self, monkeypatch, chat_server):
        monkeypatch.setenv("SPECSMITH_API_KEY", "sk-test-123")
        chat_server.outcomes = [chat_reply(None)] * 2
        config = config_from_dict({
            "endpoint": {"base_url": chat_server.base_url, "shot_count": 0, "retries": 1},
            "verifier": {"adapter": "mock", "mock_truth": []},
        })
        context = PipelineContext(config=config, verifier=build_verifier(config), shots=[])
        client = HttpChatClient(sleep=lambda _: None)
        entry = run_pipeline("Abs", ABS_PROGRAM, context, client)
        assert len(chat_server.requests) == 2
        assert entry["outcome"] == "aborted"
        assert entry["rounds_used"] == 0
        assert entry["verifier_calls_conversation"] == 0
        assert "malformed endpoint response: message content is NoneType" in entry["error"]


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
        client = RecordingChatClient(ScriptedChatClient([fenced(ABS_ANNOTATED)]))
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=2, max_rounds=5)
        run_conversation(ABS_PROGRAM, cfg, verifier, client, shots=SHOTS)
        first_call = client.calls[0]
        assert len(first_call) == 6  # system + 2 pairs + query
        assert first_call[0]["content"] == DEFAULT_SYSTEM_ROLE
        assert ABS_PROGRAM in first_call[-1]["content"]

    def test_verified_after_feedback(self):
        wrong = ABS_ANNOTATED.replace("\\result >= 0", "\\result > 0")
        client = RecordingChatClient(ScriptedChatClient([fenced(wrong), fenced(ABS_ANNOTATED)]))
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
        client = RecordingChatClient(ScriptedChatClient(["nothing useful", fenced(ABS_ANNOTATED)]))
        verifier = ScriptedVerifier([pass_verdict()])
        cfg = EndpointConfig(shot_count=0, max_rounds=3)
        transcript = run_conversation(ABS_PROGRAM, cfg, verifier, client)
        assert transcript.outcome == "verified"
        feedback = client.calls[1][-1]["content"]
        assert "could not be parsed" in feedback
        assert "no //@ annotation lines" in feedback

    def test_misplaced_clause_is_fed_back_as_a_syntax_failure(self):
        misplaced = SUM_PROGRAM.replace(
            "        while", "        //@ requires n >= 0;\n        while"
        )
        client = RecordingChatClient(ScriptedChatClient([fenced(misplaced)] * 2))
        cfg = EndpointConfig(shot_count=0, max_rounds=2)
        transcript = run_conversation(SUM_PROGRAM, cfg, ScriptedVerifier([]), client)
        assert transcript.outcome == "exhausted"
        assert transcript.verifier_calls == 0
        diagnostic = "line 5: requires clauses belong above a method header, not a loop"
        assert transcript.rounds[0].extraction_diagnostics == (diagnostic,)
        assert client.calls[1][-1]["content"] == (
            "The previous response could not be parsed.\n"
            f"Failure: {diagnostic}\n"
            f"Guidance: {DEFAULT_GUIDANCE[FailureCategory.SYNTAX_ERROR]}\n"
            "Return the full corrected annotated program in one fenced code block."
        )

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
        client = RecordingChatClient(ScriptedChatClient([fenced(ABS_ANNOTATED)] * 2))
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
        client = RecordingChatClient(ScriptedChatClient([fenced(ABS_ANNOTATED)] * 2))
        verifier = ScriptedVerifier([fail_verdict("nope"), pass_verdict()])
        cfg = EndpointConfig(shot_count=3, max_rounds=3)
        run_conversation(ABS_PROGRAM, cfg, verifier, client, shots=SHOTS)
        assert len(client.calls[1]) == 10  # 8 + assistant reply + feedback

    def test_default_transcript_state(self):
        transcript = ConversationTranscript()
        assert transcript.outcome == "aborted"
        assert transcript.rounds == []
        assert transcript.last_extracted is None
