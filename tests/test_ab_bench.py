"""The A/B summary of tools/ab_bench.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


class TestSummarize:
    def test_quartiles_and_iqr(self):
        s = ab_bench.summarize(PARENT, [v + 1 for v in PARENT], "higher")
        assert s["parent"] == {"q1": 12.25, "median": 14.5, "q3": 16.75}
        assert s["change"]["median"] == 15.5
        assert s["parent_iqr"] == 4.5
        assert s["pairs"] == 10
        assert s["change_vs_parent"] == pytest.approx(1 / 14.5)

    def test_wins_everywhere_but_gap_inside_parent_spread(self):
        s = ab_bench.summarize(PARENT, [v + 1 for v in PARENT], "higher")
        assert s["wins"] == 10
        assert s["passes"] is False  # 1.0 gap against a 4.5 IQR

    def test_large_gap_with_nine_wins_passes(self):
        change = [v - 6 for v in PARENT]
        change[3] = PARENT[3] + 1  # the change loses one pair
        s = ab_bench.summarize(PARENT, change, "lower")
        assert s["wins"] == 9
        assert s["passes"] is True

    def test_eight_wins_fail(self):
        change = [v - 6 for v in PARENT]
        change[0], change[1] = PARENT[0], PARENT[1] + 2  # a tie and a loss
        s = ab_bench.summarize(PARENT, change, "lower")
        assert s["wins"] == 8
        assert s["passes"] is False

    def test_gain_in_the_wrong_direction_fails(self):
        s = ab_bench.summarize(PARENT, [v + 10 for v in PARENT], "lower")
        assert s["wins"] == 0
        assert s["passes"] is False

    def test_unknown_direction_has_no_verdict(self):
        s = ab_bench.summarize(PARENT, PARENT, None)
        assert s["wins"] is None and s["passes"] is None

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            ab_bench.summarize(PARENT, PARENT[:-1], "lower")


# Quartiles 102.25 and 106.75 around a median of 104.5: IQR/median 0.043.
TIGHT = [100.0 + i for i in range(10)]


class TestNoRegression:
    def test_worse_beyond_bound(self):
        s = ab_bench.summarize(TIGHT, [v * 1.3 for v in TIGHT], "lower", 0.25)
        assert s["regression"] == "worse"

    def test_worse_within_bound_is_ok(self):
        s = ab_bench.summarize(TIGHT, [v * 1.2 for v in TIGHT], "lower", 0.25)
        assert s["regression"] == "ok"

    def test_worse_is_judged_by_direction(self):
        s = ab_bench.summarize(TIGHT, [v * 0.7 for v in TIGHT], "higher", 0.25)
        assert s["regression"] == "worse"
        assert ab_bench.summarize(TIGHT, [v * 0.7 for v in TIGHT], "lower", 0.25)[
            "regression"
        ] == "ok"

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        # PARENT: IQR 4.5 against a median of 14.5, 0.31 of it.
        s = ab_bench.summarize(PARENT, PARENT, "lower", 0.25)
        assert s["regression"] == "unresolved"
        assert ab_bench.summarize(PARENT, PARENT, "lower", 0.35)["regression"] == "ok"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        s = ab_bench.summarize(PARENT, [v - 10 for v in PARENT], "lower", 0.25)
        assert s["regression"] == "ok"
        s = ab_bench.summarize(PARENT, [v - 9 for v in PARENT], "lower", 0.25)
        assert s["regression"] == "unresolved"  # change 10.0 ties parent 10.0

    def test_no_bound_no_verdict(self):
        assert ab_bench.summarize(TIGHT, TIGHT, "lower")["regression"] is None
        assert ab_bench.summarize(TIGHT, TIGHT, None, 0.25)["regression"] is None

    def test_bounds_come_from_end_to_end_metrics(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "a", "better": "higher", "bound": 0.1}],'
            ' "per_layer": [{"name": "b", "better": "lower"}]}'
        )
        better, bounds = ab_bench.benchmark_rules(tmp_path)
        assert better == {"a": "higher", "b": "lower"}
        assert bounds == {"a": 0.1}
