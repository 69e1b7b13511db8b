"""REP004: phase/label vocabulary pinned to ``machine/metrics.py``."""

from tests.lint.conftest import codes, run_lint

PATH = "src/repro/analysis/fake.py"
HEAD = "from repro.machine.metrics import SuperstepRecord\n"


class TestTriggers:
    def test_unknown_record_phase_literal(self):
        r = run_lint(
            PATH, HEAD + 'SuperstepRecord(label="forward", work=[], phase="sideways")\n'
        )
        assert codes(r) == ["REP004"]
        assert "'sideways'" in r.findings[0].message

    def test_pr3_regression_unknown_label_without_phase(self):
        # The exact bug shape PR 3 fixed at runtime: a record whose label
        # matches no known prefix and that sets no explicit phase used to
        # be silently priced as forward work by the cost model.
        r = run_lint(
            PATH, HEAD + 'rec = SuperstepRecord(label="mystery-step", work=[1.0])\n'
        )
        assert codes(r) == ["REP004"]
        assert "silently priced" in r.findings[0].message

    def test_unknown_positional_label(self):
        r = run_lint(PATH, HEAD + 'rec = SuperstepRecord("mystery", [1.0])\n')
        assert codes(r) == ["REP004"]

    def test_unknown_phase_attribute_assignment(self):
        r = run_lint(PATH, HEAD + 'rec.phase = "weird"\n')
        assert codes(r) == ["REP004"]

    def test_unknown_tracer_span_phase(self):
        r = run_lint(PATH, 'tracer.span("superstep", phase="cooldown")\n')
        assert codes(r) == ["REP004"]
        assert "'cooldown'" in r.findings[0].message

    def test_unknown_tracer_span_name(self):
        r = run_lint(PATH, 'tracer.span("warmup")\n')
        assert codes(r) == ["REP004"]
        assert "'warmup'" in r.findings[0].message
        assert "TRACE_SPAN_NAMES" in r.findings[0].message

    def test_unknown_add_span_name(self):
        r = run_lint(PATH, 'tracer.add_span("mystery", 0.0, 1.0)\n')
        assert codes(r) == ["REP004"]


class TestNearMisses:
    def test_canonical_phases_accepted(self):
        src = HEAD + (
            'SuperstepRecord(label="forward", work=[], phase="forward")\n'
            'SuperstepRecord(label="bwd-fixup[1]", work=[], phase="backward")\n'
        )
        assert codes(run_lint(PATH, src)) == []

    def test_known_label_prefix_needs_no_phase(self):
        src = HEAD + (
            'SuperstepRecord(label="fixup[3]", work=[1.0])\n'
            'SuperstepRecord(label="backward", work=[1.0])\n'
        )
        assert codes(run_lint(PATH, src)) == []

    def test_fstring_label_with_known_prefix(self):
        src = HEAD + 'SuperstepRecord(label=f"fixup[{k}]", work=[1.0])\n'
        assert codes(run_lint(PATH, src)) == []

    def test_dynamic_phase_expression_is_not_checked(self):
        src = HEAD + 'SuperstepRecord(label="x", work=[], phase=phase_var)\n'
        assert codes(run_lint(PATH, src)) == []

    def test_canonical_span_names_accepted(self):
        src = (
            'tracer.span("superstep", superstep=1)\n'
            'tracer.span("compute", proc=3)\n'
            'tracer.span("dispatch")\n'
        )
        assert codes(run_lint(PATH, src)) == []
        # Names outside TRACE_SPAN_NAMES are findings.
        assert codes(run_lint(PATH, 'tracer.span("runner.pull", runner=1)\n')) == [
            "REP004"
        ]

    def test_dynamic_span_name_is_not_checked(self):
        assert codes(run_lint(PATH, "tracer.span(name_var)\n")) == []

    def test_objective_is_legal_for_tracer_spans_only(self):
        # 'objective' is in TRACE_PHASES but not RECORD_PHASES.
        assert codes(run_lint(PATH, 'tracer.span("phase", phase="objective")\n')) == []
        r = run_lint(
            PATH, HEAD + 'SuperstepRecord(label="x", work=[], phase="objective")\n'
        )
        assert codes(r) == ["REP004"]

    def test_unrelated_phase_free_assignment(self):
        assert codes(run_lint(PATH, 'rec.label = "anything"\n')) == []
