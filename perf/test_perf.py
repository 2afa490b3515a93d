"""Tests of the benchmark itself: ``pytest perf -q`` (under a minute).

They run the runner in ``--smoke`` mode (tiny inputs) and drive the
workload bodies, the checks and the tracer in-process.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perf import run  # noqa: E402
from perf.trace import SEAMS, NullTracer, Seam, SeamError, Tracer, resolve  # noqa: E402
from perf.workloads import WORKLOADS, Record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, dict]:
    """One traced smoke run of every workload: (result file, last stdout line)."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(smoke: tuple[dict, dict], workload: str) -> None:
    result, line = smoke
    summary = result["workloads"][workload]
    assert summary["correct"] and summary["failed"] == 0
    for kind, group in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        for metric in SPEC[kind]:
            emitted = summary[group][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            assert line["metrics"][f"{workload}.{metric['name']}"] == {
                "value": emitted["value"],
                "unit": metric["unit"],
            }
    assert set(line) == RESULT_KEYS and line["correct"] is True


def test_result_records_the_environment(smoke: tuple[dict, dict]) -> None:
    env = smoke[0]["env"]
    assert set(env["blas_threads"].values()) == {"1"}
    assert env["nproc"] >= 1 and env["python"] and env["numpy"] and env["commit"]
    assert env["probe_s"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_workload_line_has_exactly_the_spec_metrics(trace: str) -> None:
    proc = _run("--smoke", "--workload", "serve-mixed", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == RESULT_KEYS
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }


def _run_body(name: str, tmp_path: Path) -> tuple[dict, dict, object]:
    workload = WORKLOADS[name]
    workload.make_inputs(workload.smoke, 0, tmp_path)
    with np.load(tmp_path / "inputs.npz") as data:
        inputs = {key: data[key] for key in data.files}
    rec = Record()
    state = workload.setup(workload.smoke, inputs, rec) if workload.setup else None
    output = workload.run(workload.smoke, tmp_path, inputs, NullTracer(), rec, True, state)
    return inputs, output, rec


@pytest.mark.parametrize("name", ["graph-1m", "points-blobs"])
def test_verifier_rejects_one_flipped_parent(name: str, tmp_path: Path) -> None:
    workload = WORKLOADS[name]
    inputs, output, rec = _run_body(name, tmp_path)
    workload.verify(workload.smoke, tmp_path, inputs, output, rec)
    assert rec.failed == 0, rec.errors

    # Re-hang one node directly under the root: still a tree, but wrong.
    parents = output[0].dendrogram.parents
    root = int(np.flatnonzero(parents == np.arange(parents.size))[0])
    node = next(j for j in range(parents.size) if j != root and parents[j] != root)
    parents[node] = root
    rec = Record()
    workload.verify(workload.smoke, tmp_path, inputs, output, rec)
    assert rec.failed >= 1
    assert any("parents" in e for e in rec.errors)


def _is_original(fn: object) -> bool:
    """The attribute is the program's own definition, not a wrapper."""
    if hasattr(fn, "__wrapped__") or getattr(fn, "__traced__", False):
        return False
    obj: object = importlib.import_module(fn.__module__)  # type: ignore[attr-defined]
    for part in fn.__qualname__.split("."):  # type: ignore[attr-defined]
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj is fn


def test_with_tracing_off_every_seam_is_the_original(tmp_path: Path) -> None:
    before = {seam.target: resolve(seam.target)[2] for seam in SEAMS}
    assert all(_is_original(fn) for fn in before.values())
    for name in WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        _run_body(name, workdir)
        for seam in SEAMS:
            assert resolve(seam.target)[2] is before[seam.target], seam.target

    with Tracer() as tracer:
        assert all(getattr(resolve(s.target)[2], "__traced__", False) for s in SEAMS)
        assert tracer.spans == []
    for seam in SEAMS:
        assert resolve(seam.target)[2] is before[seam.target], seam.target


@pytest.mark.parametrize(
    "target", ["repro.core.api:no_such_function", "repro.dendrogram.query:QueryEngine.no_such"]
)
def test_a_missing_seam_raises_and_installs_nothing(target: str) -> None:
    before = {seam.target: resolve(seam.target)[2] for seam in SEAMS}
    tracer = Tracer((*SEAMS, Seam("missing", target)))
    with pytest.raises(SeamError, match="no"):
        tracer.__enter__()
    for seam in SEAMS:
        assert resolve(seam.target)[2] is before[seam.target], seam.target


def test_spans_nest_and_self_time_excludes_children() -> None:
    tracer = Tracer(())
    with tracer.span("pipeline"):
        with tracer.span("mst"):
            with tracer.span("mst.boruvka"):
                pass
        with tracer.span("sld"):
            pass
    summary = tracer.summary()
    names = [s[0] for s in tracer.spans]
    parents = [tracer.spans[s[3]][0] if s[3] >= 0 else None for s in tracer.spans]
    assert names == ["pipeline", "mst", "mst.boruvka", "sld"]
    assert parents == [None, "pipeline", "mst", "pipeline"]
    total = sum(summary["self_s"].values())
    assert total == pytest.approx(summary["root_s"])
    assert 0.0 <= summary["coverage"] <= 1.0


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "ok"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 12.2, 11.9], "lower", "regressed"),
        ([10.0, 14.0, 7.0, 10.0], [12.0, 12.1, 12.2, 11.9], "lower", "unresolved"),
        ([10.0, 14.0, 7.0, 10.0], [5.0, 5.1, 5.2, 4.9], "lower", "ok"),
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "higher", "regressed"),
    ],
)
def test_compare_verdicts(a: list[float], b: list[float], better: str, expected: str) -> None:
    assert run.verdict(a, b, 0.1, better)[0] == expected


def test_compare_flags_a_regression_and_differing_counters(
    smoke: tuple[dict, dict], tmp_path: Path
) -> None:
    result = smoke[0]
    same, worse = tmp_path / "same.json", tmp_path / "worse.json"
    same.write_text(json.dumps(result))
    assert run.compare(str(same), str(same)) == 0

    changed = json.loads(json.dumps(result))
    graph = changed["workloads"]["graph-1m"]
    graph["metrics"]["refresh_p90_ms"]["samples"] = [
        2 * s for s in graph["metrics"]["refresh_p90_ms"]["samples"]
    ]
    worse.write_text(json.dumps(changed))
    assert run.compare(str(same), str(worse)) == 1

    changed = json.loads(json.dumps(result))
    changed["workloads"]["redg-2m"]["per_layer"]["io.runs"]["value"] += 1
    worse.write_text(json.dumps(changed))
    assert run.compare(str(same), str(worse)) == 1


def test_a_changed_seed0_input_exits_2(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"graph-1m": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    assert run.main(["--workload", "graph-1m", "--seed", "0"]) == 2
