"""scripts/bench_record.py's verdict per metric, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}

# median 1.0, quartiles 0.9925 and 1.0075: an IQR of 1.5 % of the median
TIGHT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]
# median 1.0, quartiles 0.7 and 1.3: an IQR of 60 % of the median
WIDE = [0.5, 0.6, 0.7, 0.7, 1.0, 1.0, 1.3, 1.3, 1.4, 1.5]


def scaled(runs, factor):
    return [r * factor for r in runs]


@pytest.mark.parametrize("spec, factor, want", [
    (LOWER, 1.2, "ok"),
    (LOWER, 1.3, "worse"),
    (LOWER, 0.5, "ok"),
    (HIGHER, 0.8, "ok"),
    (HIGHER, 0.7, "worse"),
    (HIGHER, 1.5, "ok"),
])
def test_a_tight_parent_is_worse_only_beyond_the_bound(spec, factor, want):
    rec = bench_record.metric_record(spec, TIGHT, scaled(TIGHT, factor))
    assert rec["verdict"] == want


@pytest.mark.parametrize("spec", [LOWER, HIGHER])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(spec):
    assert bench_record.metric_record(spec, WIDE, list(WIDE))["verdict"] == "unresolved"
    # a median that moved within the bound does not resolve it
    assert bench_record.metric_record(spec, WIDE, scaled(WIDE, 1.1))["verdict"] == "unresolved"


def test_a_change_that_beats_every_parent_run_resolves_a_wide_parent():
    lower = [r * 0.2 for r in WIDE]  # at most 0.3, below the parent's 0.5
    assert bench_record.metric_record(LOWER, WIDE, lower)["verdict"] == "ok"
    higher = [r + 1.0 for r in WIDE]  # at least 1.5, at the parent's best: not above it
    assert bench_record.metric_record(HIGHER, WIDE, higher)["verdict"] == "unresolved"
    higher = [r + 1.1 for r in WIDE]
    assert bench_record.metric_record(HIGHER, WIDE, higher)["verdict"] == "ok"


def test_worse_wins_over_unresolved():
    assert bench_record.metric_record(LOWER, WIDE, scaled(WIDE, 1.3))["verdict"] == "worse"
    assert bench_record.metric_record(HIGHER, WIDE, scaled(WIDE, 0.7))["verdict"] == "worse"


def test_the_record_keeps_its_figures():
    rec = bench_record.metric_record(LOWER, TIGHT, scaled(TIGHT, 0.5))
    assert rec["change_better_pairs"] == rec["pairs"] == 10
    assert rec["parent"]["median"] == 1.0 and rec["change"]["median"] == 0.5
    assert rec["median_change_frac"] == -0.5
    assert rec["parent_iqr"] == pytest.approx(0.015)
