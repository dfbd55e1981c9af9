"""Campaign benchmark driver.

    python3 perfbench/run.py --workload attacksynth|fuzz|overhead \
        [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``) it repeats the workload's campaign call until
``--seconds`` have passed (at least once) and reports the end-to-end
metrics: the median campaign wall time, the median set-up time of nine
fresh interpreters, the process's peak RSS, the share of work items that
passed the correctness check, and the simulated SOFIA cycle overhead.
Traced (``--trace 1``) it alternates an untraced and a traced call and
reports the per-layer metrics of :mod:`layers`.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with
its unit and the environment block.  Outputs land in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("attacksynth", "fuzz", "overhead")
SETUP_SAMPLES = 9


def _seed(text: str) -> int:
    """A decimal seed, or a hexadecimal one written with ``0x``."""
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload: str, seed, workdir: Path):
    """Import ``repro`` and build the workload's inputs."""
    from campaigns import WORKLOADS
    factory = WORKLOADS[workload]
    bench = factory(factory.default_seed if seed is None else seed, workdir)
    bench.setup()
    return bench


def _setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters (imports are cold)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--setup-probe"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(command, capture_output=True, text=True,
                               check=True, timeout=120)
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def environment(bench) -> dict:
    """The ``bench_environment`` fields of ``benchmarks/conftest.py``,
    plus what identifies the code and the seeds."""
    from repro.runner import available_cpus
    from repro.sim import DEFAULT_ENGINE
    revision = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        revision = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": available_cpus(),
        "nproc": os.cpu_count(),
        "engine": DEFAULT_ENGINE,
        "jobs": 1,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "workload": bench.name,
        "seed": bench.seed,
        "default_seed": bench.default_seed,
        "key_seed": bench.key_seed,
    }


def _timed_call(bench, tracer=None):
    """One prepared, timed, verified campaign call.

    A traced call also installs a telemetry sink, so the tracer's counts
    are checked against the simulator's own counters.
    """
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, hook
    from campaigns import Outcome
    from layers import crosscheck
    bench.prepare()
    registry = MetricsRegistry()
    if tracer is not None:
        hook.install(registry)
        tracer.install()
    started = time.perf_counter()
    try:
        report = bench.call()
    except ReproError as exc:
        report = None
        outcome = Outcome(False, 1, 1, None,
                          detail=f"{type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
            hook.uninstall()
    if report is not None:
        outcome = bench.verify(report)
    if tracer is not None and outcome.ok:
        mismatches = crosscheck(tracer, registry.counters, outcome.builds)
        if mismatches:
            outcome.ok = False
            outcome.failed = outcome.attempted
            outcome.detail = "; ".join(mismatches)
    if not outcome.ok:
        print(f"# check failed: {outcome.detail}", file=sys.stderr)
    return wall, report, outcome


def _untraced(bench, seconds: float):
    started = time.perf_counter()
    walls, outcomes = [], []
    report = None
    while not walls or time.perf_counter() - started < seconds:
        wall, report, outcome = _timed_call(bench)
        walls.append(wall)
        outcomes.append(outcome)
    return walls, outcomes, report


def _traced(bench, seconds: float):
    from layers import Tracer, layer_metrics
    started = time.perf_counter()
    samples, outcomes = [], []
    while not samples or time.perf_counter() - started < seconds:
        untraced_wall, _, outcome = _timed_call(bench)
        outcomes.append(outcome)
        tracer = Tracer()
        traced_wall, _, outcome = _timed_call(bench, tracer)
        root = tracer.root_time()
        busy = sum(tracer.self_times().values())
        if root > traced_wall or abs(busy - root) > 1e-6 * max(1.0, root):
            outcome.ok = False
            outcome.failed = outcome.attempted
            print(f"# layer accounting failed: spans {root:.6f} s, self "
                  f"{busy:.6f} s, wall {traced_wall:.6f} s",
                  file=sys.stderr)
        outcomes.append(outcome)
        samples.append(layer_metrics(tracer, traced_wall, untraced_wall))
        tracer.write(OUT / f"spans-{bench.name}.json")
    metrics = {name: (statistics.median(sample[name][0]
                                        for sample in samples),
                      unit) for name, (_, unit) in samples[0].items()}
    return metrics, outcomes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = OUT / args.workload
    if args.setup_probe:
        started = time.perf_counter()
        _setup(args.workload, args.seed, workdir)
        print(time.perf_counter() - started)
        return 0

    OUT.mkdir(exist_ok=True)
    setup_s = _setup_seconds(args) if not args.trace else None
    bench = _setup(args.workload, args.seed, workdir)
    env = environment(bench)
    if args.trace:
        metrics, outcomes = _traced(bench, args.seconds)
    else:
        walls, outcomes, report = _untraced(bench, args.seconds)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    correct = all(outcome.ok for outcome in outcomes)
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "cycle_overhead": (bench.cycle_overhead(report) if correct
                               else 0.0, "fraction"),
        }
        env["calls"] = len(walls)
        env["wall_s_samples"] = walls
    print(f"# {bench.name} seed {bench.seed:#x}: {len(outcomes)} checked "
          f"call(s), correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28s} {value:>16.6f} {unit}")
    if not args.trace:
        from campaigns import PAPER_ADPCM_OVERHEAD
        print(f"{'(paper ADPCM overhead)':<28s} "
              f"{PAPER_ADPCM_OVERHEAD:>16.6f} fraction  "
              f"(synthetic inputs: unvalidated model, no error figure)")
    print("# environment " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{bench.name}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, environment=env), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
