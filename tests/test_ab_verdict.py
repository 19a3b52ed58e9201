"""``tools/ab.py``'s verdict: the choosing-metrics §8 rule as a pure
function of two lists of paired runs."""

from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "ab.py",
)
_spec = importlib.util.spec_from_file_location("tools_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

#: Ten parent runs with quartiles 6.375 / 6.625 (IQR 0.25), median 6.5.
PARENT = [6.3, 6.4, 6.5, 6.6, 6.7, 6.3, 6.4, 6.5, 6.6, 6.7]


class TestVerdict:
    def test_clear_gain_on_a_higher_is_better_metric(self):
        v = ab.verdict(PARENT, [p * 2.4 for p in PARENT], better="higher")
        assert (v["won"], v["lost"], v["tied"]) == (10, 0, 0)
        assert v["gain"] and v["claimable"]
        assert v["median_parent"] == pytest.approx(6.5)
        assert v["median_change"] == pytest.approx(15.6)
        assert v["worse_by"] == pytest.approx(-1.4)
        assert not v["beyond_bound"]

    def test_lower_is_better_flips_the_direction(self):
        v = ab.verdict(PARENT, [p * 2.4 for p in PARENT], better="lower")
        assert (v["won"], v["lost"]) == (0, 10)
        assert not v["gain"]
        assert v["worse_by"] == pytest.approx(1.4)
        assert ab.verdict(
            PARENT, [p * 2.4 for p in PARENT], "lower", bound=0.25
        )["beyond_bound"]

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [p - 1.0 for p in PARENT]
        change[0] = PARENT[0] + 1.0
        assert ab.verdict(PARENT, change)["gain"]
        change[1] = PARENT[1] + 1.0
        v = ab.verdict(PARENT, change)
        assert (v["won"], v["lost"]) == (8, 2)
        assert not v["gain"]

    def test_a_tie_counts_for_neither_side_but_stays_in_the_total(self):
        change = [p - 1.0 for p in PARENT]
        change[0], change[1] = PARENT[0], PARENT[1]
        v = ab.verdict(PARENT, change)
        assert (v["won"], v["lost"], v["tied"]) == (8, 0, 2)
        assert not v["gain"]

    def test_gap_must_exceed_the_parents_own_spread(self):
        # Wins every pair, but by less than the parent's IQR (0.25).
        v = ab.verdict(PARENT, [p - 0.2 for p in PARENT])
        assert v["won"] == 10
        assert v["q3_parent"] - v["q1_parent"] == pytest.approx(0.25)
        assert not v["gain"]
        assert ab.verdict(PARENT, [p - 0.3 for p in PARENT])["gain"]

    def test_fewer_than_ten_pairs_is_never_claimable(self):
        v = ab.verdict(PARENT[:5], [p - 1.0 for p in PARENT[:5]])
        assert v["gain"] and not v["claimable"]

    def test_one_pair_is_plumbing_not_a_measurement(self):
        v = ab.verdict([2.0], [2.0])
        assert (v["won"], v["lost"], v["tied"]) == (0, 0, 1)
        assert v["q1_parent"] == v["q3_parent"] == 2.0
        assert not v["gain"] and not v["beyond_bound"]

    def test_bound_is_on_the_medians_and_signed(self):
        slower = [p * 1.3 for p in PARENT]
        assert ab.verdict(PARENT, slower, "lower", bound=0.25)["beyond_bound"]
        assert not ab.verdict(PARENT, slower, "lower", bound=0.35)[
            "beyond_bound"
        ]
        # Better by any margin is never beyond a bound.
        assert not ab.verdict(PARENT, slower, "higher", bound=0.0)[
            "beyond_bound"
        ]

    def test_mismatched_or_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            ab.verdict([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            ab.verdict([], [])
        with pytest.raises(ValueError):
            ab.verdict([1.0], [1.0], better="bigger")


class TestParentWorktree:
    """The checkout's git calls, recorded instead of run."""

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        recorded = []

        def fake_git(*args):
            recorded.append(args[:2])
            return type("Done", (), {"returncode": 0, "stdout": ""})()

        monkeypatch.setattr(ab, "_git", fake_git)
        monkeypatch.setattr(ab, "ROOT", str(tmp_path))
        return recorded

    def test_a_fresh_run_asks_git_to_remove_nothing(self, calls):
        path = ab.add_parent_worktree("0123456789abcdef")
        assert path.endswith("ab-parent-0123456789ab")
        assert calls == [("worktree", "prune"), ("worktree", "add")]

    def test_a_leftover_is_removed_first(self, calls, tmp_path):
        os.makedirs(tmp_path / ".bench_work" / "ab-parent-0123456789ab")
        ab.add_parent_worktree("0123456789abcdef")
        assert calls == [
            ("worktree", "remove"),
            ("worktree", "prune"),
            ("worktree", "add"),
        ]

    def test_a_failed_add_stays_loud(self, monkeypatch, tmp_path):
        def failing_git(*args):
            return type("Done", (), {"returncode": 128, "stdout": ""})()

        monkeypatch.setattr(ab, "_git", failing_git)
        monkeypatch.setattr(ab, "ROOT", str(tmp_path))
        with pytest.raises(SystemExit, match="worktree add failed"):
            ab.add_parent_worktree("0123456789abcdef")
