"""Determinism contract of lockstep fault campaigns: byte-identical
everywhere.

The group partition (:func:`repro.runner.make_batches`) depends only on
submission order and width, and the campaign's width
(:func:`repro.runner.group_width`) only on the specimen count and the
``batch_width`` cap, so a fault campaign must be byte-identical

* to per-specimen :func:`~repro.faults.campaign.run_fault` calls (the
  W=1 degenerate case *and* any other W),
* at any ``--jobs`` value (serial vs process pool),
* across group widths (W=5 groups vs W=3 groups),

and the E18 export helpers must emit byte-for-byte pinned artifacts for
a fixed record — the goldens here are what the CI smoke re-derives.
"""

import json
import os

import pytest

from repro.crypto import DeviceKeys
from repro.eval.export import batch_csv, batch_json
from repro.faults.campaign import run_campaign, run_fault, sample_faults
from repro.obs import Telemetry
from repro.runner import group_width, make_batches
from repro.sim import SofiaMachine
from repro.transform import transform
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)

_VICTIM = {}


def victim():
    if not _VICTIM:
        workload = make_workload("sort", "tiny")
        _VICTIM["workload"] = workload
        _VICTIM["program"] = workload.compile().program
    return _VICTIM["program"], _VICTIM["workload"].expected_output


def _rows(results):
    return [(r.model, r.outcome, r.description, r.status, r.detail)
            for r in results]


def classify(**kwargs):
    program, golden = victim()
    results, summary = run_campaign(
        program, KEYS, golden, per_model=3, seed=41,
        max_instructions=200_000, **kwargs)
    return _rows(results), summary.counts


def per_specimen():
    """The campaign's population, one fresh machine per specimen."""
    program, golden = victim()
    image = transform(program, KEYS, nonce=0xFA17)
    baseline = SofiaMachine(image, KEYS).run(200_000)
    faults = sample_faults(image, baseline.instructions, per_model=3,
                           seed=41)
    return _rows(run_fault(image, KEYS, fault, golden, 200_000)
                 for fault in faults)


class TestMakeBatches:
    def test_partition_depends_only_on_width(self):
        items = list(range(10))
        assert make_batches(items, 4) == [[0, 1, 2, 3], [4, 5, 6, 7],
                                          [8, 9]]
        assert make_batches(items, 1) == [[i] for i in items]
        assert make_batches([], 4) == []

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            make_batches([1], 0)

    def test_group_width_splits_small_campaigns(self):
        # at least MIN_GROUPS (4) groups when there are that many items,
        # never wider than the cap, never narrower than one
        assert group_width(12, 64) == 3
        assert group_width(18, 64) == 5
        assert group_width(150, 64) == 38
        assert group_width(1000, 64) == 64
        assert group_width(18, 2) == 2
        assert group_width(2, 64) == 1
        assert group_width(0, 64) == 1


class TestCampaignDeterminism:
    def test_lockstep_equals_per_specimen(self):
        assert classify()[0] == per_specimen()

    def test_width_one_equals_per_specimen(self):
        assert classify(batch_width=1)[0] == per_specimen()

    def test_any_width_is_byte_identical(self):
        assert classify(batch_width=64) == classify(batch_width=3)

    def test_any_jobs_is_byte_identical(self):
        serial = classify()
        telemetry = Telemetry()
        pooled = classify(parallel=True, jobs=4, telemetry=telemetry)
        assert serial == pooled
        # 18 specimens form 4 groups, so the groups really ran in workers
        workers = {worker for _index, worker, _start, _end
                   in telemetry.spans}
        assert len(workers) > 1 and os.getpid() not in workers

    def test_export_is_jobs_and_width_free(self, tmp_path):
        program, golden = victim()

        def export(**kwargs):
            path = tmp_path / "campaign.json"
            run_campaign(program, KEYS, golden, per_model=3, seed=41,
                         max_instructions=200_000, export_path=path,
                         **kwargs)
            record = json.loads(path.read_text())
            # jobs and wall-clock are the only legitimately volatile keys
            record.pop("jobs"), record.pop("elapsed_seconds")
            return json.dumps(record, sort_keys=True)

        default = export()
        assert export(batch_width=1) == default
        assert export(batch_width=2) == default
        assert export(parallel=True, jobs=4) == default


# --- pinned E18 export goldens ---------------------------------------------

_E18_RECORD = {
    "experiment": "E18",
    "campaign": "batch-lockstep",
    "parameters": {"seed": 77, "per_model": 8, "width": 64,
                   "models": ["CodeBitFlip", "PCGlitch"]},
    "workloads": ["crc32", "sort"],
    "identical": True,
}

_E18_JSON_GOLDEN = """\
{
  "campaign": "batch-lockstep",
  "experiment": "E18",
  "identical": true,
  "parameters": {
    "models": [
      "CodeBitFlip",
      "PCGlitch"
    ],
    "per_model": 8,
    "seed": 77,
    "width": 64
  },
  "workloads": [
    "crc32",
    "sort"
  ]
}
"""

_E18_CSV_GOLDEN = """\
workload,specimens,scalar_specimens_per_s,batch_specimens_per_s,speedup,\
identical
crc32,16,10.0,50.0,5.0,1
sort,16,20.0,100.0,5.0,1
"""


class TestE18ExportGoldens:
    def test_json_golden(self, tmp_path):
        path = tmp_path / "e18.json"
        text = batch_json(_E18_RECORD, path)
        assert text == _E18_JSON_GOLDEN
        assert path.read_text() == _E18_JSON_GOLDEN

    def test_csv_golden(self, tmp_path):
        rows = [
            {"workload": "crc32", "specimens": 16,
             "scalar_specimens_per_s": 10.0,
             "batch_specimens_per_s": 50.0, "speedup": 5.0,
             "identical": 1},
            {"workload": "sort", "specimens": 16,
             "scalar_specimens_per_s": 20.0,
             "batch_specimens_per_s": 100.0, "speedup": 5.0,
             "identical": 1},
        ]
        path = tmp_path / "e18.csv"
        text = batch_csv(rows, path)
        assert text == _E18_CSV_GOLDEN
        assert path.read_text() == _E18_CSV_GOLDEN
