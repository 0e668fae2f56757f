"""Tests for the summary that tools/pairs.py writes, on made-up runs (no benchmark runs)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def result(ms, failed=0, **report):
    """A result file of bench/run.py reduced to the fields the summary reads."""
    return {"end_to_end": {"call_ms_p50": ms, "work_per_s": 1 / ms}, "failed": failed,
            "attempted": 10, "exit_code": 1 if failed else 0, "report": report}


def test_summary_counts_pairs_won_quartiles_and_failures():
    # four pairs of call_ms_p50, parent then change; the tie in pair 2
    # counts for neither side
    runs = []
    for i, (pa, ch) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 0.9), (1.1, 1.3)]):
        runs.append({
            "seed": i, "first": pairs.SIDES[i % 2],
            "parent": result(pa, slices={"k3": {"ms_p50": pa}}, sweep_csv_sha256="p"),
            "change": result(ch, failed=int(i == 3), slices={"k3": {"ms_p50": ch}},
                             sweep_csv_sha256="c"),
        })
    entry = pairs.summarise(runs, {"call_ms_p50": "lower", "work_per_s": "higher"})
    m = entry["metrics"]["call_ms_p50"]
    assert (m["parent_median"], m["change_median"]) == (1.05, 0.9)
    assert m["parent_q1_q3"] == [0.975, 1.125]
    assert m["change_better_in"] == entry["metrics"]["work_per_s"]["change_better_in"] == 2
    assert entry["slice_ms_p50"]["k3"] == {"parent_median": 1.05, "change_median": 0.9}
    assert entry["sweep_csv_sha256_by_seed"]["change"] == {"0": "c", "1": "c", "2": "c", "3": "c"}
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 40, "change": 40}
    assert entry["correct"] == {"parent": True, "change": False}
    assert [r["first"] for r in entry["runs"]] == ["parent", "change"] * 2
    row = pairs.table({"plan_deep": entry}).splitlines()[1].split()
    # metric, parent median, change median, delta, pairs won, parent IQR
    assert row == ["plan_deep", "call_ms_p50", "1.05", "0.9", "-14.3%", "2", "of", "4", "14.3%"]
