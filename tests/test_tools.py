import importlib.util
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
tier1 = _load("tier1")


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


@pytest.mark.parametrize(
    "better, base, change, verdict",
    [
        # the median 30 % slower, against a bound of 25 %
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
        ("higher", [1.0, 1.0, 1.0, 1.0], [0.7, 0.7, 0.7, 0.7], "worse"),
        # 10 % better in the median, but the base's quartiles lie a whole median apart
        ("lower", [1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 3.0, 2.0], "unresolved"),
        # as wide, yet every change run beats every base run
        ("lower", [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4], "within bound"),
        # 20 % slower with a steady spread stays within a 25 % bound
        ("lower", [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "within bound"),
    ],
)
def test_bench_pairs_verdict_against_the_bound(better, base, change, verdict):
    metric = {"name": "round_ref_s", "unit": "s", "better": better, "bound": 0.25}
    assert bench_pairs.compare(_runs(base), _runs(change), metric)["verdict"] == verdict


@pytest.mark.parametrize(
    "classname, name, node",
    [
        ("tests.test_acceptance", "test_criterion_2_rational_cubed_deviation_range",
         "tests/test_acceptance.py::test_criterion_2_rational_cubed_deviation_range"),
        ("tests.test_cli", "test_x[1.5-a.b]", "tests/test_cli.py::test_x[1.5-a.b]"),
        ("tests.test_expr.TestK", "test_y", "tests/test_expr.py::TestK::test_y"),
        # a module that failed to collect: no class, the dotted module as the name
        ("", "tests.test_models", "tests/test_models.py"),
    ],
)
def test_tier1_maps_junit_cases_to_node_ids(classname, name, node):
    assert tier1.node_id(classname, name) == node
