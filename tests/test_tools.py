import importlib.util
import json
import sys
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # so that one tool can import another loaded before it
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
tier1 = _load("tier1")
same_outputs = _load("same_outputs")
large_fits = _load("large_fits")


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


def test_bench_pairs_reads_the_host_kernel_median_from_a_run_record(tmp_path):
    records = tmp_path / "perfbench" / "out" / "records"
    records.mkdir(parents=True)
    # kernels of 30, 10 and 50 ms in the first round, 20 ms in the second: median 25 ms
    rounds = [{"kernels": [[1.0, 1.03], [2.0, 2.01], [3.0, 3.05]]}, {"kernels": [[4.0, 4.02]]}]
    (records / "coarse-to-fine-seed3-trace0.json").write_text(json.dumps({"rounds": rounds, "traced_rounds": []}))
    assert bench_pairs.host_kernel_ms(tmp_path, "coarse-to-fine", 3) == pytest.approx(25.0)
    with pytest.raises(FileNotFoundError):
        bench_pairs.host_kernel_ms(tmp_path, "coarse-to-fine", 4)


def test_bench_pairs_sees_whether_runs_wrote_bytecode(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("")
    assert not bench_pairs.wrote_bytecode(tmp_path)
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    assert not bench_pairs.wrote_bytecode(tmp_path)  # an empty cache directory holds no bytecode
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
    assert bench_pairs.wrote_bytecode(tmp_path)


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


@pytest.mark.parametrize(
    "argv, workloads",
    [
        ([], ["a", "b", "c"]),
        (["--workload", "c"], ["c"]),
        # a repeated flag accumulates, and the runs keep the benchmark's order
        (["--workload", "c", "--workload", "a"], ["a", "c"]),
        (["--workload", "b", "a", "--workload", "b"], ["a", "b"]),
    ],
)
def test_bench_pairs_workload_flags_accumulate(argv, workloads):
    assert bench_pairs.parse_args(["--base", "HEAD", *argv], ["a", "b", "c"]).workload == workloads


def test_same_outputs_names_each_file_that_differs(tmp_path):
    base, change = tmp_path / "base", tmp_path / "work"
    for side in (base, change):
        (side / "fit").mkdir(parents=True)
        (side / "fit" / "result.json").write_text('{"iterations": 27}\n')
        (side / "surface.csv").write_text("x1,g\n0.0,1.0\n")
    assert same_outputs.file_differences(base, change) == []
    (change / "surface.csv").write_text("x1,g\n0.0,1.0000000000000002\n")
    (base / "fit" / "result.json").unlink()
    (change / "extra.csv").write_text("")
    assert same_outputs.file_differences(base, change) == [
        "extra.csv: only in change", "fit/result.json: only in change", "surface.csv: differs"]


def test_same_outputs_compares_report_outputs():
    base = {"rounds": [{"errors": []}], "outputs": {"fine_deviation": {"affine": 1.5}, "verify": {"ok": True}}}
    assert same_outputs.output_differences("w", base, base) == []
    change = {"rounds": [{"errors": ["fit affine: OperationFailed: exited with 4"]}],
              "outputs": {"fine_deviation": {"affine": 1.25}, "verify": {"ok": True}}}
    assert same_outputs.output_differences("w", base, change) == [
        "w change: fit affine: OperationFailed: exited with 4",
        """w outputs['fine_deviation']: {"affine": 1.5} against {"affine": 1.25}""",
    ]


def test_same_outputs_runs_every_benchmark_workload():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["workloads"]
    assert list(same_outputs.WORKLOADS) == [w["name"] for w in declared]


def test_same_outputs_compares_traced_counts():
    def report(layers):
        return {"traced_rounds": [{"layers": layers}]}

    base = report({"simplex.pivots": 188, "simplex.solve_calls": 74, "simplex.solve_s": 0.0125,
                   "simplex.tableau_mb": 0.5, "grid.sample_calls": 3})
    assert same_outputs.count_differences("w", base, base) == []
    # times and sizes may differ; every count must not
    change = report({"simplex.pivots": 190, "simplex.solve_calls": 74, "simplex.solve_s": 0.0113,
                     "simplex.tableau_mb": 0.25, "bisection.levels": 74})
    assert same_outputs.count_differences("w", base, change) == [
        "w traced counts['bisection.levels']: None against 74",
        "w traced counts['grid.sample_calls']: 3 against None",
        "w traced counts['simplex.pivots']: 188 against 190",
    ]


def test_large_fits_prints_one_line_per_config_and_step(capfd):
    assert large_fits.main(["--step", "0.5"]) == 0
    lines = [json.loads(line) for line in capfd.readouterr().out.splitlines()]
    assert [(r["config"], r["step"], r["points"], r["levels"]) for r in lines] == [
        ("benchmark_affine_cubed", 0.5, 25, 27), ("benchmark_rational_cubed", 0.5, 25, 27)]
    assert all(r["pivots"] > 0 and r["fit_s"] > 0 and r["max_rss_mb"] > 0 for r in lines)
