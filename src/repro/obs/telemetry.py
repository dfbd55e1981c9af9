"""The campaign telemetry context.

A :class:`Telemetry` object is created by the CLI (from ``--telemetry
DIR`` / ``--progress``) and threaded — always optionally, default
``None`` — through a campaign driver into
:func:`repro.runner.pool.run_tasks` and
:func:`repro.runner.store.run_tasks_stored`.  It owns:

- the **event log** (``DIR/events.jsonl``, schema in
  :mod:`repro.obs.events`),
- the campaign **metrics registry** (``DIR/metrics.json``), into which
  worker counter deltas and task-duration observations are merged
  deterministically,
- the collected **task spans** and **phase spans**, exported as a
  chrome ``trace_event`` timeline (``DIR/trace.json``),
- the optional stderr **progress heartbeat**.

Everything here is observational: a campaign driver behaves — and its
exported artifacts are byte-identical — whether ``telemetry`` is a
live object or ``None``.  Timestamps in the event log are *parent
observation times*; the precise per-task timings measured inside the
workers live in the trace spans and the ``task.seconds`` histogram.

While a campaign is open, a parent-side
:class:`~repro.obs.metrics.MetricsRegistry` is installed into
:data:`repro.obs.hook.SIM` so simulation done outside the pool (golden
runs, failure triage/minimization) is counted too; it is merged into
the campaign metrics at :meth:`finish` under the same names.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import hook
from .events import EventLog
from .metrics import MetricsRegistry
from .progress import ProgressMeter
from .trace import write_chrome_trace
from .worker import Span


class Telemetry:
    """Event log + metrics + timeline + progress for one campaign run."""

    def __init__(self, directory=None, progress: bool = False,
                 stream=None) -> None:
        self.directory: Optional[Path] = \
            Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        self.events = EventLog(
            self.directory / "events.jsonl"
            if self.directory is not None else None)
        self.progress: Optional[ProgressMeter] = \
            ProgressMeter(stream=stream) if progress else None
        self.spans: List[Tuple[int, int, float, float]] = []
        self.phases: List[Tuple[str, float, float]] = []
        self.campaign: Optional[str] = None
        self._origin = time.perf_counter()
        self._workers: Dict[int, bool] = {}
        self._pending: deque = deque()
        self._fallback_index = 0
        self._sim: Optional[MetricsRegistry] = None
        self._previous_sink = None
        self._finished = False

    # -- lifecycle ----------------------------------------------------

    def begin(self, campaign: str, parameters: Optional[dict] = None) -> None:
        self.campaign = campaign
        if self.progress is not None:
            self.progress.label = campaign
        fields = {}
        for key, value in (parameters or {}).items():
            fields[f"x_{key}" if key in ("ts", "event", "campaign")
                   else key] = value
        self.events.emit("campaign-start", campaign=campaign, **fields)
        self._sim = MetricsRegistry()
        self._previous_sink = hook.SIM
        hook.install(self._sim)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        hook.SIM = self._previous_sink
        if self._sim is not None:
            self.metrics.merge_counters(self._sim.counters)
        for worker in sorted(self._workers):
            self.events.emit("worker-exit", worker=worker)
        seconds = time.perf_counter() - self._origin
        self.events.emit("campaign-end", seconds=round(seconds, 6))
        self.metrics.observe("campaign.seconds", seconds)
        if self.progress is not None:
            self.progress.finish()
        if self.directory is not None:
            from ..runner.export import atomic_write_text
            atomic_write_text(self.directory / "metrics.json",
                              self.metrics.render_json())
            write_chrome_trace(self.directory / "trace.json",
                               self.spans, self.phases,
                               origin=self._origin)
        self.events.close()

    @contextmanager
    def phase(self, name: str):
        """Time one campaign phase (plan/execute/triage/export/...)."""
        self.events.emit("phase-start", phase=name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.phases.append((name, start, end))
            self.events.emit("phase-end", phase=name,
                             seconds=round(end - start, 6))
            self.metrics.observe(f"phase.{name}.seconds", end - start)

    # -- dispatch accounting (runner-facing) --------------------------

    def plan(self, total: int, cached: int = 0, skipped: int = 0) -> None:
        """Account one dispatch of ``total`` tasks (store hits counted
        as ``cached``, other shards' indices as ``skipped``)."""
        self.events.emit("tasks-planned", total=total,
                         cached=cached, skipped=skipped)
        if self.progress is not None:
            self.progress.plan(total, cached=cached, skipped=skipped)

    def expect_tasks(self, indices) -> None:
        """Queue the campaign-global indices about to be executed, in
        dispatch order, so pool-side completions can be labelled."""
        for index in indices:
            index = int(index)
            self._pending.append(index)
            self.events.emit("task-scheduled", index=index)

    def store_hit(self, index: int) -> None:
        self.events.emit("store-hit", index=int(index))
        self.metrics.count("store.hits")

    def shard_decision(self, shard: str, owned: int, skipped: int) -> None:
        self.events.emit("shard-decision", shard=shard,
                         owned=owned, skipped=skipped)

    def resume(self, store: str, hits: int, missing: int) -> None:
        self.events.emit("resume", store=str(store),
                         hits=hits, missing=missing)

    def claim_indices(self, n: int) -> List[int]:
        """Labels for the ``n`` tasks one dispatch is about to run.

        When the pending queue (from :meth:`expect_tasks`) holds exactly
        ``n`` entries they are consumed — completions then carry their
        campaign-global indices.  Any mismatch (e.g. a driver that
        dispatches a different task list than it planned) falls back to
        a fresh local sequence and clears the queue, so labels never
        silently shift between dispatches.
        """
        if len(self._pending) == n:
            indices = list(self._pending)
        else:
            indices = list(range(self._fallback_index,
                                 self._fallback_index + n))
        self._pending.clear()
        if indices:
            self._fallback_index = indices[-1] + 1
        return indices

    def task_completed(self, span: Span,
                       index: Optional[int] = None) -> None:
        """Fold one finished task's span into events/metrics/trace."""
        worker, start, end, deltas = span
        if index is None:
            if self._pending:
                index = self._pending.popleft()
            else:
                index = self._fallback_index
            self._fallback_index = index + 1
        if worker not in self._workers:
            self._workers[worker] = True
            self.events.emit("worker-start", worker=worker)
        seconds = max(0.0, end - start)
        self.events.emit("task-started", index=index, worker=worker)
        self.events.emit("task-completed", index=index, worker=worker,
                         seconds=round(seconds, 6))
        self.metrics.count("tasks.completed")
        self.metrics.observe("task.seconds", seconds)
        self.metrics.merge_counters(deltas)
        self.spans.append((index, worker, start, end))
        if self.progress is not None:
            self.progress.tick()

    # -- convenience passthroughs ------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def note(self, text: str) -> None:
        self.events.emit("note", text=text)


@contextmanager
def campaign(telemetry: Optional[Telemetry], name: str,
             parameters: Optional[dict] = None):
    """Open/close a campaign on ``telemetry``; no-op when it is None."""
    if telemetry is None:
        yield None
        return
    telemetry.begin(name, parameters)
    try:
        yield telemetry
    finally:
        telemetry.finish()


@contextmanager
def phase(telemetry: Optional[Telemetry], name: str):
    """Time a phase on ``telemetry``; no-op when it is None."""
    if telemetry is None:
        yield
        return
    with telemetry.phase(name):
        yield


def load_metrics(directory) -> dict:
    """Read ``metrics.json`` from a telemetry directory."""
    with open(Path(directory) / "metrics.json", encoding="utf-8") as handle:
        return json.load(handle)
