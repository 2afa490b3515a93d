"""The perf-regression harness: schema, gate semantics, CLI contract."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from conftest import file_size_limit
from repro.bench.baseline import (
    SCHEMA,
    compare,
    load_baseline,
    results_to_payload,
    save_baseline,
    validate_payload,
)
from repro.bench.harness import KernelResult, bench_kernel
from repro.bench.kernels import KERNELS, kernel_names
from repro.cli import main
from repro.io import FormatError

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BASELINE = REPO_ROOT / "BENCH_pr10.json"


def _payload(**kernel_overrides):
    """A minimal valid payload with one half-second kernel."""
    entry = {
        "size": 1000,
        "repeats": 5,
        "min_s": 0.5,
        "median_s": 0.55,
        "p90_s": 0.6,
        "instrumented_s": 1.0,
        "work": 12345.0,
        "depth": 67.0,
    }
    entry.update(kernel_overrides)
    return {
        "schema": SCHEMA,
        "calibration_s": 0.05,
        "quick": False,
        "kernels": {"k": entry},
    }


class TestSchema:
    def test_results_roundtrip(self, tmp_path):
        results = [
            KernelResult(
                kernel="sequf",
                size=2048,
                repeats=3,
                min_s=0.001,
                median_s=0.0012,
                p90_s=0.0013,
                instrumented_s=0.008,
                work=100.0,
                depth=10.0,
            )
        ]
        payload = results_to_payload(results, calibration_s=0.05, quick=True)
        path = tmp_path / "BENCH_test.json"
        save_baseline(path, payload)
        assert load_baseline(path) == payload
        assert payload["schema"] == SCHEMA
        assert payload["kernels"]["sequf"]["min_s"] == 0.001

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("schema"),
            lambda p: p.__setitem__("schema", "repro-bench/999"),
            lambda p: p.__setitem__("calibration_s", 0.0),
            lambda p: p.__setitem__("calibration_s", "fast"),
            lambda p: p.__setitem__("kernels", {}),
            lambda p: p["kernels"]["k"].pop("min_s"),
            lambda p: p["kernels"]["k"].pop("work"),
            lambda p: p["kernels"]["k"].__setitem__("median_s", "slow"),
            lambda p: p["kernels"]["k"].__setitem__("size", 12.5),
            lambda p: p["kernels"]["k"].__setitem__("depth", float("nan")),
        ],
    )
    def test_invalid_payloads_rejected(self, mutate):
        payload = _payload()
        mutate(payload)
        with pytest.raises(FormatError):
            validate_payload(payload)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_baseline(path)

    def test_failed_save_keeps_previous_baseline(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        save_baseline(path, _payload())
        before = path.read_bytes()
        bigger = _payload()
        bigger["kernels"].update({f"k{i}": dict(bigger["kernels"]["k"]) for i in range(20)})
        with file_size_limit(len(before)), pytest.raises(OSError):
            save_baseline(path, bigger)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file
        assert path.read_bytes() == before


class TestCompareGate:
    def test_identical_payload_passes(self):
        payload = _payload()
        ok, lines = compare(payload, payload)
        assert ok and lines[-1] == "gate: PASS"

    def test_twenty_percent_regression_fails(self):
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["kernels"]["k"]["min_s"] *= 1.20
        ok, lines = compare(current, baseline, tolerance=0.15)
        assert not ok
        assert any("FAIL wall regression" in line for line in lines)

    def test_within_tolerance_passes(self):
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["kernels"]["k"]["min_s"] *= 1.10
        ok, _ = compare(current, baseline, tolerance=0.15)
        assert ok

    def test_calibration_normalization(self):
        """A uniformly 2x-slower machine is not a regression."""
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["calibration_s"] *= 2.0
        for key in ("min_s", "median_s", "p90_s", "instrumented_s"):
            current["kernels"]["k"][key] *= 2.0
        ok, _ = compare(current, baseline)
        assert ok

    def test_accounting_drift_fails(self):
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["kernels"]["k"]["work"] += 1.0
        ok, lines = compare(current, baseline)
        assert not ok
        assert any("accounting drift" in line for line in lines)

    def test_sub_millisecond_not_gated(self):
        baseline = _payload(min_s=0.0002, median_s=0.0002, p90_s=0.0002)
        current = copy.deepcopy(baseline)
        current["kernels"]["k"]["min_s"] = 0.0009  # 4.5x, still sub-ms
        ok, lines = compare(current, baseline)
        assert ok
        assert any("sub-millisecond" in line for line in lines)

    def test_new_and_missing_kernels_do_not_gate(self):
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["kernels"]["extra"] = dict(baseline["kernels"]["k"])
        del current["kernels"]["k"]
        ok, lines = compare(current, baseline)
        assert ok
        assert any("NEW" in line for line in lines)
        assert any("MISSING" in line for line in lines)

    def test_size_change_skips_wall_gate(self):
        baseline = _payload()
        current = copy.deepcopy(baseline)
        current["kernels"]["k"]["size"] = 2000
        current["kernels"]["k"]["min_s"] *= 10
        ok, lines = compare(current, baseline)
        assert ok
        assert any("size changed" in line for line in lines)


class TestCommittedBaseline:
    def test_committed_baseline_is_schema_valid(self):
        payload = load_baseline(COMMITTED_BASELINE)
        assert payload["quick"] is True
        assert set(payload["kernels"]) == set(kernel_names())

    def test_committed_baseline_records_fast_path_speedups(self):
        """The acceptance criterion: >= 1.3x on at least two kernels."""
        payload = load_baseline(COMMITTED_BASELINE)
        speedups = {
            name: entry["instrumented_s"] / entry["min_s"]
            for name, entry in payload["kernels"].items()
        }
        winners = [name for name, s in speedups.items() if s >= 1.3]
        assert len(winners) >= 2, speedups


class TestCommittedScaleSection:
    """The ISSUE's end-to-end acceptance numbers, pinned in the baseline.

    ``repro bench scale --merge`` records them; these tests gate that
    the committed file actually shows (1) >= 2x array-vs-reference at
    m >= 10**6 with bit-identical output, and (2) a completed m = 10**7
    out-of-core run whose peak RSS stayed under the chunk budget -- and
    far under what materializing the edge list would cost.
    """

    def test_scale_section_present_and_typed(self):
        scale = load_baseline(COMMITTED_BASELINE)["scale"]
        for leg, fields in (
            ("speedup", ("m", "n", "reference_s", "array_s", "speedup")),
            ("streaming", ("m", "chunk", "wall_s", "peak_rss_mb", "rss_budget_mb")),
        ):
            for field in fields:
                assert isinstance(scale[leg][field], (int, float)), (leg, field)

    def test_end_to_end_speedup_at_a_million_edges(self):
        leg = load_baseline(COMMITTED_BASELINE)["scale"]["speedup"]
        assert leg["m"] >= 1_000_000
        assert leg["bit_identical"] is True
        assert leg["speedup"] >= 2.0, leg

    def test_out_of_core_run_completed_within_budget(self):
        leg = load_baseline(COMMITTED_BASELINE)["scale"]["streaming"]
        assert leg["m"] >= 10_000_000
        assert leg["completed"] is True
        assert leg["chosen"] == leg["n"] - 1
        assert leg["peak_rss_mb"] <= leg["rss_budget_mb"], leg
        # Against the measured in-memory twin (same file, same machine):
        # streaming must use at most half the memory it did.
        assert leg["peak_rss_mb"] <= leg["in_memory_peak_rss_mb"] / 2, leg


class TestKernels:
    def test_registry_names_unique_and_nonempty(self):
        names = kernel_names()
        assert names and len(names) == len(set(names))

    def test_bench_kernel_smoke(self):
        sequf = next(k for k in KERNELS if k.name == "sequf")
        result = bench_kernel(sequf, repeats=2, quick=True)
        assert result.kernel == "sequf"
        assert result.size == sequf.quick_size
        assert 0 < result.min_s <= result.median_s <= result.p90_s
        assert result.work > 0 and result.depth > 0


class TestCLI:
    def test_bench_cli_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--kernels", "sequf", "--out", str(out)]
        )
        assert rc == 0
        payload = load_baseline(out)
        assert list(payload["kernels"]) == ["sequf"]
        assert "perf kernels" in capsys.readouterr().out

    def test_bench_cli_compare_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_run.json"
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--kernels", "sequf", "--out", str(out)]
        )
        assert rc == 0
        fresh = json.loads(out.read_text())

        # Self-comparison passes...
        good = tmp_path / "BENCH_base.json"
        good.write_text(json.dumps(fresh))
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--kernels", "sequf",
             "--compare", str(good), "--out", str(out)]
        )
        assert rc == 0

        # ... and a baseline claiming different accounting fails the gate.
        broken = copy.deepcopy(fresh)
        broken["kernels"]["sequf"]["work"] += 1.0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(broken))
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--kernels", "sequf",
             "--compare", str(bad), "--out", str(out)]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_cli_unknown_kernel(self, tmp_path, capsys):
        rc = main(["bench", "--kernels", "nope", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro bench: unknown kernels ['nope']")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text", ["not json {", '{"schema": "nope"}'], ids=["invalid-json", "wrong-schema"]
    )
    def test_bench_cli_malformed_baseline_is_a_usage_error(self, text, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(text)
        out = tmp_path / "out.json"
        rc = main(
            ["bench", "--quick", "--kernels", "sequf", "--compare", str(bad), "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro bench: {bad}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bench_cli_default_out_leaves_the_baseline_alone(self, tmp_path, monkeypatch, capsys):
        """The documented gate command must not rewrite the file it gates on."""
        baseline = tmp_path / COMMITTED_BASELINE.name
        baseline.write_bytes(COMMITTED_BASELINE.read_bytes())
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--kernels", "sequf",
             "--compare", baseline.name]
        )
        assert rc in (0, 1)  # the wall gate may trip on a loaded host
        assert baseline.read_bytes() == COMMITTED_BASELINE.read_bytes()
        assert list(load_baseline(tmp_path / "results" / "BENCH_latest.json")["kernels"]) == [
            "sequf"
        ]
        capsys.readouterr()
