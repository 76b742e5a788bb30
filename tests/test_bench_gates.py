"""Tests for the speed-ratio gate runner (repro.bench.gates).

Gate logic is tested on pinned ratios: no assertion here depends on a
measured time, so machine load cannot change which rule fires.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import gates
from repro.bench.gates import CELLS, TOLERANCE, check, main

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_gates.json"


def pinned_row(cell, ratio=None, agree=True, counts=None):
    """A measured row for ``cell`` with a pinned ratio and its contracts met."""
    ratio = 100.0 if ratio is None else ratio
    return {
        "cell": cell.name,
        "baseline": cell.labels[0],
        "fast": cell.labels[1],
        "baseline_seconds": ratio,
        "fast_seconds": 1.0,
        "ratio": ratio,
        "agree": agree,
        "counts": dict(cell.contracts) if counts is None else counts,
    }


def pinned_doc(ratio=None):
    return {"cells": [pinned_row(cell, ratio) for cell in CELLS]}


def cell_named(name):
    return next(cell for cell in CELLS if cell.name == name)


def one_cell_check(row, reference):
    return check({"cells": [row]}, {"cells": [{"cell": row["cell"], "ratio": reference}]})


class TestCommittedGates:
    def test_baseline_carries_the_committed_reference_ratios(self):
        refs = {c["cell"]: c["ratio"] for c in json.loads(BASELINE.read_text())["cells"]}
        assert {name: round(r, 3) for name, r in refs.items()} == {
            "kernel/line3/3k": 1.863,
            "kernel/star3/3k": 2.024,
            "prepared/fleet/3k": 2.564,
            "allen/overlaps/10k": 1.410,
            "allen/during/1k": 9.268,
            "planner/table1": 140.729,
        }
        # The lazy sweep's default-strategy flip rests on >= 1.3x here.
        assert refs["allen/overlaps/10k"] >= 1.3

    def test_cells_keep_their_floors_contracts_and_repeats(self):
        assert TOLERANCE == 0.15
        assert {c.name: (c.floor, c.contracts, c.repeat) for c in CELLS} == {
            "kernel/line3/3k": (1.0, {}, 3),
            "kernel/star3/3k": (1.0, {}, 3),
            "prepared/fleet/3k": (1.0, {"kernel.sort_calls": 1}, 3),
            "allen/overlaps/10k": (1.0, {}, 5),
            "allen/during/1k": (1.0, {}, 5),
            "planner/table1": (
                2.0, {"planner.search_nodes": 0, "planner.cache_hits": 11}, 3
            ),
        }

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.name)
    def test_arms_agree_and_meet_contracts(self, cell):
        # One untimed run of each arm on the cell's real workload.
        with cell.setup() as arms:
            arms.reset()
            base = arms.baseline()
            arms.reset()
            fast = arms.fast()
            assert arms.same(base, fast)
            stats = arms.counters() if arms.counters else None
        for counter, want in cell.contracts.items():
            assert stats.get(counter) == want, counter

    def test_grid_workload_makes_during_fire(self):
        left, right = gates.allen_workload(1_000, grid=True)
        assert gates.naive_predicate_join(left, right, "during")


class TestCheck:
    def test_passes_at_the_reference(self):
        doc = pinned_doc()
        assert check(doc, copy.deepcopy(doc)) == []

    def test_passes_within_tolerance(self):
        row = pinned_row(cell_named("kernel/star3/3k"), ratio=1.75)
        assert one_cell_check(row, reference=2.0241028848437006) == []

    def test_flags_disagreeing_outputs(self):
        row = pinned_row(cell_named("allen/during/1k"), agree=False)
        assert one_cell_check(row, reference=100.0) == [
            "allen/during/1k: naive and lazy-sweep outputs differ"
        ]

    def test_flags_broken_count_contract(self):
        row = pinned_row(
            cell_named("prepared/fleet/3k"), counts={"kernel.sort_calls": 3}
        )
        assert one_cell_check(row, reference=100.0) == [
            "prepared/fleet/3k: kernel.sort_calls = 3, contract is exactly 1"
        ]

    def test_flags_warm_search_work_and_missed_hits(self):
        cell = cell_named("planner/table1")
        dirty = pinned_row(
            cell, counts={"planner.search_nodes": 7, "planner.cache_hits": 11}
        )
        missed = pinned_row(
            cell, counts={"planner.search_nodes": 0, "planner.cache_hits": 10}
        )
        assert one_cell_check(dirty, 100.0) == [
            "planner/table1: planner.search_nodes = 7, contract is exactly 0"
        ]
        assert one_cell_check(missed, 100.0) == [
            "planner/table1: planner.cache_hits = 10, contract is exactly 11"
        ]

    def test_flags_ratio_below_floor(self):
        row = pinned_row(cell_named("planner/table1"), ratio=1.5)
        assert one_cell_check(row, reference=1.5) == [
            "planner/table1: warm-cache speedup 1.50x is below the 2.00x floor"
        ]

    def test_flags_fast_arm_slower_than_baseline(self):
        row = pinned_row(cell_named("kernel/line3/3k"), ratio=0.5)
        assert one_cell_check(row, reference=0.5) == [
            "kernel/line3/3k: kernel speedup 0.50x is below the 1.00x floor"
        ]

    def test_flags_regression_beyond_tolerance(self):
        row = pinned_row(cell_named("kernel/star3/3k"), ratio=1.65)
        assert one_cell_check(row, reference=2.0241028848437006) == [
            "kernel/star3/3k: speedup 1.65x regressed below 1.72x "
            "(reference 2.02x - 15% tolerance)"
        ]

    def test_flags_missing_reference(self):
        row = pinned_row(cell_named("allen/overlaps/10k"))
        assert check({"cells": [row]}, {"cells": []}) == [
            "allen/overlaps/10k: no reference ratio in the baseline"
        ]

    def test_reports_only_the_first_failing_rule(self):
        # Disagreeing outputs, a broken contract and a sub-floor ratio at
        # once: the agreement rule wins, then contracts, then the floor.
        cell = cell_named("planner/table1")
        bad_counts = {"planner.search_nodes": 1, "planner.cache_hits": 0}
        everything = pinned_row(cell, ratio=0.1, agree=False, counts=bad_counts)
        agreeing = pinned_row(cell, ratio=0.1, counts=bad_counts)
        assert one_cell_check(everything, 100.0) == [
            "planner/table1: cold-search and warm-cache outputs differ"
        ]
        assert one_cell_check(agreeing, 100.0) == [
            "planner/table1: planner.search_nodes = 1, contract is exactly 0"
        ]


class TestMain:
    @pytest.fixture
    def pinned_measure(self, monkeypatch):
        """Replace timing with pinned rows at the committed references."""
        refs = {c["cell"]: c["ratio"] for c in json.loads(BASELINE.read_text())["cells"]}
        monkeypatch.setattr(
            gates, "measure", lambda cell: pinned_row(cell, refs[cell.name])
        )

    def test_writes_json_and_round_trips_through_check(
        self, tmp_path, capsys, pinned_measure
    ):
        out = tmp_path / "gates.json"
        assert main(["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "gates"
        assert [r["cell"] for r in doc["cells"]] == [c.name for c in CELLS]
        assert main(["--check", "--baseline", str(out)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_committed_baseline_passes_at_its_own_ratios(self, capsys, pinned_measure):
        assert main(["--check", "--baseline", str(BASELINE)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_check_fails_against_a_higher_baseline(
        self, tmp_path, capsys, pinned_measure
    ):
        inflated = json.loads(BASELINE.read_text())
        for cell in inflated["cells"]:
            cell["ratio"] *= 10
        path = tmp_path / "inflated.json"
        path.write_text(json.dumps(inflated))
        assert main(["--check", "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "gate FAILED" in out
        assert out.count("regressed below") == len(CELLS)

    def test_missing_baseline_exits_2_before_measuring(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(cell):
            raise AssertionError("measured despite a missing baseline")

        monkeypatch.setattr(gates, "measure", never)
        assert main(["--check", "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "cannot read baseline" in capsys.readouterr().out
