import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"round_ref_s": {"value": v}}} for v in values]


@pytest.mark.parametrize("better, won", [("lower", 2), ("higher", 1)])
def test_bench_pairs_compares_medians_and_counts_pairs_won(better, won):
    metric = {"name": "round_ref_s", "unit": "s", "better": better, "bound": 0.25}
    # pairs by seed: (1.0, 0.5), (2.0, 2.5), (3.0, 3.0) a tie, (4.0, 2.0)
    out = bench_pairs.compare(_runs([1.0, 2.0, 3.0, 4.0]), _runs([0.5, 2.5, 3.0, 2.0]), metric)
    assert out["pairs_won"] == won
    assert out["base"]["median"] == 2.5 and out["change"]["median"] == 2.25
    assert out["base"]["runs"] == [1.0, 2.0, 3.0, 4.0]
    assert out["median_change"] == pytest.approx(-0.1)
