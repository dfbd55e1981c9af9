"""The benchmark's outside-in tracer, checked against ``--telemetry``.

Small campaigns of each workload kind run traced with the simulator's
telemetry sink installed; the tracer's counts must match the counters
the simulator keeps itself.  Run with ``python3 -m pytest perfbench``
(``src`` on ``PYTHONPATH``).
"""

import json
import time
from pathlib import Path

import pytest

import repro.attacksynth.campaign as synth_campaign
import repro.transform.transformer as transformer
from repro.attacksynth import run_attacksynth
from repro.eval.overhead import OverheadPoint, measure_many
from repro.fuzz import run_fuzz
from repro.obs import MetricsRegistry, hook
from repro.runner import clear_build_cache

from layers import Tracer, crosscheck, layer_metrics, wrapped_bindings
from run import WORKLOAD_NAMES

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _synth():
    report = run_attacksynth(3, seed=1, key_seed=7)
    assert report.ok
    return len(report.programs)


def _fuzz():
    report = run_fuzz(8, seed=1, key_seed=7)
    assert report.ok
    return report.specimens


def _overhead():
    clear_build_cache()   # a cached build would skip transform
    return len(measure_many([OverheadPoint("crc32", scale="tiny",
                                           key_seed=7)]))


CAMPAIGNS = {"attacksynth": _synth, "fuzz": _fuzz, "overhead": _overhead}


def _traced(campaign, sabotage=None):
    """Run ``campaign`` traced; returns (tracer, counters, builds, wall)."""
    registry = MetricsRegistry()
    tracer = Tracer()
    hook.install(registry)
    tracer.install()
    try:
        if sabotage is not None:
            sabotage()
        started = time.perf_counter()
        builds = campaign()
        wall = time.perf_counter() - started
    finally:
        tracer.restore()
        hook.uninstall()
    return tracer, registry.counters, builds, wall


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_counts_match_telemetry(name):
    tracer, counters, builds, wall = _traced(CAMPAIGNS[name])
    assert builds > 0 and tracer.runs > 0
    assert crosscheck(tracer, counters, builds) == []
    metrics = layer_metrics(tracer, wall, wall)
    value = {key: pair[0] for key, pair in metrics.items()}
    assert value["crypto.encrypts"] == (value["crypto.encrypts.protect"]
                                        + value["crypto.encrypts.frontend"])
    assert value["crypto.encrypts.frontend"] > 0
    assert 0 < value["crypto.unique_frac"] <= 1
    # layer self times plus the campaign's own time make up the wall
    assert sum(tracer.self_times().values()) == pytest.approx(
        tracer.root_time(), rel=1e-9, abs=1e-9)
    assert value["campaign.busy_s"] >= 0
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (key, unit) for key, (_, unit) in metrics.items()]


def test_benchmark_names_the_driver_workloads():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOAD_NAMES


def test_missed_by_name_binding_fails_crosscheck():
    def unwrap_campaign_transform():
        synth_campaign.transform = synth_campaign.transform.__wrapped__

    tracer, counters, builds, _ = _traced(_synth, unwrap_campaign_transform)
    assert crosscheck(tracer, counters, builds) == [
        f"transform.calls: traced 0 != expected {builds}"]


def test_restore_leaves_code_unwrapped():
    tracer, _, _, _ = _traced(_overhead)
    spans = len(tracer.span_start)
    assert wrapped_bindings() == []
    assert synth_campaign.transform is transformer.transform
    _synth()
    assert len(tracer.span_start) == spans
