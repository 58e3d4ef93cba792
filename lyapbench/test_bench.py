"""Tests of the benchmark's own helpers: the tail percentile rule, self
time with nested children, and the fail-closed checks.

    python3 -m pytest lyapbench
"""

import math

import numpy as np
import pytest

import stats
import tracing
import workloads


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (20, 50.0), (39, 50.0), (40, 75.0), (45, 75.0), (99, 75.0),
        (100, 90.0), (114, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
        (10_000, 99.9),
    ])
    def test_highest_ladder_percentile_with_ten_beyond(self, n, expected):
        assert stats.tail_percentile(n) == expected
        assert round(n * (100.0 - expected) / 100.0, 9) >= stats.MIN_BEYOND

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(19)

    def test_percentile_matches_numpy(self):
        values = list(np.random.default_rng(0).exponential(size=37))
        for p in (0.0, 50.0, 75.0, 90.0, 100.0):
            assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))

    def test_exact_rank_returns_sample(self):
        assert stats.median([3, 1, 2]) == 2
        assert isinstance(stats.median([7, 7, 7]), int)
        assert isinstance(stats.median([7, 7]), int)

    def test_pass_of_op_medians_sums_each_ops_median(self):
        # per op over three passes: medians 2, 1 and 4 (op 2's slow pass
        # is pass 0, op 0's is pass 2)
        op_seconds = [[2.0, 1.0, 9.0], [1.0, 1.0, 4.0], [8.0, 3.0, 4.0]]
        assert stats.pass_of_op_medians(op_seconds) == 7.0
        assert stats.pass_of_op_medians([[0.5, 0.25]]) == 0.75

    def test_quartile_spread(self):
        assert stats.quartile_spread([10.0] * 10) == 0.0
        assert stats.quartile_spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)


class TestSelfTime:
    def test_nested_children(self):
        # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]; 0 -> 3 [5, 9]
        parent = [-1, 0, 1, 0]
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        own = tracing.self_times(parent, end - start)
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])

    def test_tracer_records_parents_and_ops(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap("problems.grad_h", lambda x: x + 1)
        mid = tracer.wrap("solvers.step_gd", lambda x: leaf(leaf(x)))
        top = tracer.wrap("solvers.run", lambda x: mid(x) + leaf(x))
        tracer.op_id = 7
        assert top(1) == 5
        spans = tracer.spans()
        assert [tracer.names[i] for i in spans["name"]] == [
            "solvers.run", "solvers.step_gd", "problems.grad_h", "problems.grad_h",
            "problems.grad_h"]
        assert spans["parent"].tolist() == [-1, 0, 1, 1, 0]
        assert spans["op"].tolist() == [7] * 5
        own = tracing.self_times(spans["parent"], spans["end"] - spans["start"])
        assert (own >= 0).all()
        assert own.sum() == pytest.approx(spans["end"][0] - spans["start"][0])

    def test_span_closed_when_call_raises(self):
        tracer = tracing.Tracer()

        def boom():
            raise ZeroDivisionError

        outer = tracer.wrap("harness.cmd_run", lambda: tracer.wrap("solvers.run", boom)())
        with pytest.raises(ZeroDivisionError):
            outer()
        spans = tracer.spans()
        assert spans["parent"].tolist() == [-1, 0]
        assert (spans["end"] >= spans["start"]).all()

    def test_loop_oracle_calls_per_iteration(self):
        # one op: two calls before the first step (set-up), then 3 steps
        # with one grad inside and one grad after each step
        tracer = tracing.Tracer()
        grad = tracer.wrap("problems.grad_h", lambda: None)
        step = tracer.wrap("solvers.step_nag", grad)

        def run():
            grad()
            grad()
            for _ in range(3):
                step()
                grad()

        tracer.op_id = 0
        tracer.wrap("solvers.run", run)()
        layers = tracing.per_layer(tracer.spans(), tracer.names, {}, ["nag"], set(),
                                   ("nag", "gd"))
        assert layers["solvers.iters"] == 3
        assert layers["solvers.grad_per_iter.nag"] == 2.0
        assert layers["solvers.grad_per_iter.gd"] == 0.0
        assert layers["problems.grad_calls"] == 8


class TestFailClosed:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_report_rejects_nonfinite(self, value):
        assert workloads.nonfinite_reason({"pass": True, "min_slack": value}) is not None
        assert workloads.nonfinite_reason({"rows": [[0.0, value]]}) is not None

    def test_report_rejects_numpy_bool(self):
        assert workloads.nonfinite_reason({"pass": np.True_}) is not None

    def test_finite_report_accepted(self):
        assert workloads.nonfinite_reason({"pass": True, "x": [1.0, None, "", 2]}) is None

    @pytest.mark.parametrize("cell", ["", "nan", "NaN", "inf", "-inf", "Infinity"])
    def test_trace_rejects_nonfinite_cells(self, cell):
        rows = [{"k": "0", "f_gap": "1.0", "slack": ""},
                {"k": "1", "f_gap": cell, "slack": "0.5"}]
        reason = workloads.first_nonfinite(rows, ("f_gap", "slack"), skip_first=("slack",))
        assert reason is not None and "k=1" in reason

    def test_trace_allows_missing_first_slack_only(self):
        rows = [{"k": "0", "f_gap": "1.0", "slack": ""},
                {"k": "1", "f_gap": "0.5", "slack": "2e-3"}]
        assert workloads.first_nonfinite(rows, ("f_gap", "slack"), skip_first=("slack",)) is None
        rows[1]["slack"] = ""
        assert workloads.first_nonfinite(rows, ("f_gap", "slack"), skip_first=("slack",))

    def test_iters_to_tol(self):
        assert workloads.iters_to_tol([1.0, 1e-3, 1e-6, 1e-9]) == 2
        assert workloads.iters_to_tol([1.0, 0.5, math.nan]) == 2
