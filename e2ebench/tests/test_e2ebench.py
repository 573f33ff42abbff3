"""The benchmark's own checks, each workload at tiny scale.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run as bench
import workloads
from repro.cluster.architectures import Architecture
from repro.epc import fastpath
from repro.epc.gateway import EpcGateway
from oracle import GATEWAY_IP

NAMES = ("forward", "churn", "wire")


def tiny(name):
    return dataclasses.replace(
        workloads.SCALES[name], bearers=512, batch=64, setups=1, warmup_s=0.1
    )


def run_tiny(name, trace):
    return workloads.run(name, seed=5, seconds=1.0, trace=trace,
                         scale=tiny(name))


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_with_units(name):
    report = run_tiny(name, trace=False)
    units = bench.result_units(trace=False)
    line = bench.result_line(report, units)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert report["metrics"]["failed_frac"] == 0.0
    assert report["metrics"]["batch_p99_ms"] >= report["metrics"]["batch_p50_ms"]
    assert report["metrics"]["update_p99_ms"] >= report["metrics"]["update_p50_ms"]
    assert [(n, e["unit"]) for n, e in line["metrics"].items()] == units
    for name_, entry in line["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name_


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_accounts_for_wall_time_and_restores(name):
    gateway = EpcGateway(Architecture.SCALEBRICKS, 2, GATEWAY_IP)
    gateway.start()
    targets = (layers.gateway_tracer(gateway).targets
               + layers.wire_tracer().targets)
    before = [vars(owner)[attr] if isinstance(owner, type)
              else getattr(owner, attr) for owner, attr in targets]

    report = run_tiny(name, trace=True)

    after = [vars(owner)[attr] if isinstance(owner, type)
             else getattr(owner, attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))
    assert report["oracle"]["failed"] == 0
    units = bench.result_units(trace=True)
    line = bench.result_line(report, units)
    assert line["correct"]
    assert [(n, e["unit"]) for n, e in line["metrics"].items()] == units
    accounting = report["accounting"]
    assert accounting["restored"]
    assert accounting["roots_traced"] == accounting["calls_traced"] > 0
    # The identity holds by construction: this guards the bookkeeping.
    assert accounting["wall_s"] > 0 and accounting["error"] < 1e-6
    covered = (accounting["self_s"] + accounting["bookkeeping_s"]
               + accounting["unattributed_s"])
    assert covered == pytest.approx(accounting["wall_s"], rel=1e-6)
    metrics = report["metrics"]
    if name == "wire":
        assert metrics["wire.rpc_us"] > 0 and metrics["wire.encode_us"] > 0
        assert 0 < metrics["wire.forward_frac"] < 1
    else:
        assert metrics["gpt.lookup_ns"] > 0 and metrics["fib.lookup_ns"] > 0
        assert metrics["update.self_us"] > 0
        # the stale-key frames miss in the owner's FIB
        assert 0 < metrics["fib.miss_frac"] < 0.1
        # one fabric crossing for the (N-1)/N frames landing off-owner
        assert metrics["route.remote_frac"] == pytest.approx(0.75, abs=0.1)


def test_injected_wrong_gtpu_byte_is_counted(monkeypatch):
    original = fastpath.encapsulate_batch

    def corrupt(*args, **kwargs):
        out = list(original(*args, **kwargs))
        if out:
            first = bytearray(out[0])
            first[-1] ^= 0xFF
            out[0] = bytes(first)
        return out

    monkeypatch.setattr(fastpath, "encapsulate_batch", corrupt)
    report = run_tiny("forward", trace=False)
    assert report["oracle"]["failures"].get("wrong_bytes", 0) > 0
    assert report["metrics"]["failed_frac"] > 0


def test_restored_is_false_while_a_wrapper_is_in_place():
    tracer = layers.wire_tracer()
    tracer.install()
    try:
        assert not tracer.restored()
    finally:
        tracer.restore()
    assert tracer.restored()


def test_benchmark_json_lists_known_workloads():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(NAMES)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "forward",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
