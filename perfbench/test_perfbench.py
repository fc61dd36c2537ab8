"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, check, load_digests  # noqa: E402

CONE = ["cone", "--family", "qn", "--n", "7", "--cone", "mov", "--format", "json",
        "--threads", "1"]
FAN = ["chambers", "--family", "qn", "--n", "3", "--sbl", "--format", "json"]
VERIFY = ["verify", "--suite", "formulas", "--threads", "1"]
BENCH = ["bench", "--family", "qn", "--n", "3..4", "--threads", "1"]


def _pass(commands, trace=False):
    return run.run_pass(run.worker_env(), commands, trace,
                        time.perf_counter() + 120, load_digests())


@pytest.fixture(scope="module")
def outputs():
    p = _pass([CONE, FAN, VERIFY, BENCH])
    assert p["failed"] == 0, p["errors"]
    return dict(zip(("cone", "fan", "verify", "bench"), p["outputs"]))


def test_genuine_outputs_pass_their_checks(outputs):
    digests = load_digests()
    for argv, out in ((CONE, outputs["cone"]), (FAN, outputs["fan"]),
                      (VERIFY, outputs["verify"]), (BENCH, outputs["bench"])):
        assert check(tuple(argv), 0, out, digests) == ""


def test_tampered_outputs_count_as_failures(outputs):
    digests = load_digests()
    cone = outputs["cone"]
    assert check(tuple(CONE), 0, cone.replace('"1"', '"2"', 1), digests)
    assert check(tuple(CONE), 1, cone, digests)
    assert check(tuple(FAN), 0, outputs["fan"] + " ", digests)
    verify = outputs["verify"]
    assert check(tuple(VERIFY), 0, verify.replace("ok  ", "FAIL", 1), digests)
    assert check(tuple(VERIFY), 0, verify.split("\n", 1)[1], digests)
    bench = outputs["bench"]
    assert check(tuple(BENCH), 0, bench.replace(" 8 ", " 9 "), digests)
    assert check(tuple(BENCH), 0, bench.replace(" ok", " FAIL"), digests)
    assert check(tuple(BENCH), 0, bench.rsplit("\n", 2)[0], digests)


def test_failed_pass_counts_every_tampered_command(monkeypatch):
    monkeypatch.setattr(run, "check", lambda argv, rc, out, digests: "tampered")
    p = _pass([CONE, FAN])
    assert p["failed"] == 2


def test_traced_pass_matches_untraced_and_records_each_layer():
    commands = [CONE, FAN, VERIFY]
    plain = _pass(commands)
    traced = _pass(commands, trace=True)
    assert plain["failed"] == traced["failed"] == 0
    assert traced["outputs"] == plain["outputs"]
    names = {span[0] for span in traced["spans"]}
    assert {"cli", "spaces.movable_cone", "cones.rays", "cones.facets",
            "reports.serialise", "chambers.gkz_fan", "chambers.sbl_merge",
            "refdata.load", "verify.formulas"} <= names
    plain["scale"] = traced["scale"] = 1.0  # run_workload sets it from the gauge
    metrics, _ = run.layer_metrics([traced], [plain])
    assert [name for name, _ in run.PER_LAYER] == list(metrics)
    assert metrics["cones.facets_out"]["value"] > 0
    assert metrics["verify.checks"]["value"] == len(plain["outputs"][2].splitlines()) - 1


def test_workload_with_more_threads_than_cpus_is_refused(monkeypatch):
    monkeypatch.setattr(run, "nproc", lambda: 1)
    with pytest.raises(run.BenchError):
        run.run_workload("fans-verify", 1, 1.0, False)


def test_benchmark_json_declares_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in run.PER_LAYER]
