"""Outside-in layer tracing for the campaign benchmark.

The tracer wraps the public entry point of each layer of ``repro`` from
the outside: every module attribute bound to the entry function (so
by-name imports such as ``repro.attacksynth.campaign.transform`` are
covered) and every class attribute of a wrapped method.  Each call opens
a span (layer, parent span, start, end) kept in flat in-memory arrays;
a layer's self time is its spans' durations minus the part covered by
their child spans.  Nothing inside ``repro`` is edited, and
:meth:`Tracer.restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

#: (layer, module, attribute path) of every wrapped entry point.  Layers
#: named ``sim.exec.*`` are the two cores' ``run()``; ``crypto`` spans
#: are attributed to the layer of the span that encloses them.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("cc", "repro.cc", "compile_source"),
    ("isa", "repro.isa.assembler", "parse"),
    ("isa", "repro.isa.assembler", "assemble"),
    ("transform", "repro.transform.transformer", "transform"),
    ("crypto", "repro.crypto.rectangle", "Rectangle80.encrypt"),
    ("crypto", "repro.crypto.present", "Present80.encrypt"),
    ("crypto.bitslice", "repro.crypto.bitslice", "encrypt_batch"),
    ("crypto.bitslice", "repro.crypto.bitslice", "batch_mac_stream"),
    ("sim.frontend", "repro.sim.sofia", "SofiaMachine.decrypt_and_verify"),
    ("sim.machines.sofia", "repro.sim.sofia", "SofiaMachine.__init__"),
    ("sim.machines.vanilla", "repro.sim.vanilla", "VanillaMachine.__init__"),
    ("sim.exec.sofia", "repro.sim.sofia", "SofiaMachine.run"),
    ("sim.exec.vanilla", "repro.sim.vanilla", "VanillaMachine.run"),
    ("eval.export", "repro.eval.export", "overhead_csv"),
    ("eval.export", "repro.eval.export", "attacksynth_csv"),
    ("eval.export", "repro.eval.export", "attacksynth_json"),
    ("eval.export", "repro.runner.export", "write_campaign"),
    ("eval.export", "repro.fuzz.corpus", "Corpus.save"),
    ("eval.export", "repro.fuzz.coverage", "CoverageMap.save"),
)

#: the block-memo miss path under ``decrypt_and_verify``: counted, not
#: spanned (one miss is one ``sim.frontend.decrypts`` telemetry event)
MISS_PATH = ("repro.sim.sofia", "SofiaMachine._decrypt_and_verify_uncached")

_MARK = "__perfbench_layer__"


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _import_all_repro() -> None:
    """Import every ``repro`` module, so no binding appears mid-trace."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":   # runs the CLI on import
            importlib.import_module(info.name)


def _bound_modules():
    """The ``repro`` modules, and this benchmark's, that may bind an
    entry point by name."""
    here = str(Path(__file__).resolve().parent)
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or str(Path(getattr(module, "__file__", None) or "/")
                        .resolve().parent) == here)]


class Tracer:
    """Spans and counts for one traced campaign call."""

    def __init__(self) -> None:
        self.layer_names: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[object, str, object]] = []
        self.misses = 0
        self.bitslice_lanes = 0
        self.runs = 0
        self.instructions = 0
        self.cycles = 0
        self.encrypt_inputs = set()
        self.encrypts_by_parent: Counter = Counter()

    # -- spans ------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return self._layer_ids[layer]

    def _spanned(self, fn, layer: str, after=None):
        layer_id = self._layer_id(layer)
        stack = self._stack
        span_layer = self.span_layer
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(span_start)
            span_layer.append(layer_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    def _encrypt(self, fn):
        """A crypto span that also records its input and its caller."""
        wrapper = self._spanned(fn, "crypto")
        inputs = self.encrypt_inputs
        by_parent = self.encrypts_by_parent
        span_layer = self.span_layer
        stack = self._stack
        span_parent = self.span_parent
        crypto_ids = {self._layer_id("crypto"),
                      self._layer_id("crypto.bitslice")}

        @functools.wraps(fn)
        def encrypt(cipher, block):
            # charge the encrypt to the nearest enclosing non-crypto span
            parent = stack[-1]
            while parent >= 0 and span_layer[parent] in crypto_ids:
                parent = span_parent[parent]
            by_parent[span_layer[parent] if parent >= 0 else -1] += 1
            inputs.add((type(cipher).__name__, cipher.key, block))
            return wrapper(cipher, block)

        setattr(encrypt, _MARK, "crypto")
        return encrypt

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.misses += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, "count")
        return wrapper

    def _after_run(self, _args, result) -> None:
        self.runs += 1
        self.instructions += result.instructions
        self.cycles += result.cycles

    def _after_bitslice(self, args, _result) -> None:
        self.bitslice_lanes += len(args[1])

    def _wrapper_for(self, layer: str, fn):
        if layer == "crypto":
            return self._encrypt(fn)
        if layer.startswith("sim.exec."):
            return self._spanned(fn, layer, after=self._after_run)
        if layer == "crypto.bitslice":
            return self._spanned(fn, layer, after=self._after_bitslice)
        return self._spanned(fn, layer)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every binding of every entry point in :data:`LAYERS`."""
        _import_all_repro()
        modules = _bound_modules()
        targets = [(layer,) + _resolve(module, path)
                   for layer, module, path in LAYERS]
        targets.append(("count",) + _resolve(*MISS_PATH))
        for layer, owner, name in targets:
            original = owner.__dict__[name]
            wrapper = (self._counted(original) if layer == "count"
                       else self._wrapper_for(layer, original))
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back; fail if any wrapper survives."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        leftover = wrapped_bindings()
        if leftover:
            raise RuntimeError(f"wrappers still bound after restore: "
                               f"{leftover}")

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per layer: span durations minus child coverage."""
        child = [0.0] * len(self.span_start)
        durations = [end - start for start, end
                     in zip(self.span_start, self.span_end)]
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[span]
        totals = {name: 0.0 for name in self.layer_names}
        for span, layer in enumerate(self.span_layer):
            totals[self.layer_names[layer]] += durations[span] - child[span]
        return totals

    def root_time(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for start, end, parent
                   in zip(self.span_start, self.span_end, self.span_parent)
                   if parent < 0)

    def calls(self) -> Counter:
        counts = Counter(self.span_layer)
        return Counter({self.layer_names[layer]: n
                        for layer, n in counts.items()})

    def write(self, path) -> None:
        """Write every span (columnar JSON, times relative to the first)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as handle:
            json.dump({"layers": self.layer_names,
                       "layer": list(self.span_layer),
                       "parent": list(self.span_parent),
                       "start": [t - origin for t in self.span_start],
                       "end": [t - origin for t in self.span_end]},
                      handle)


def wrapped_bindings() -> List[str]:
    """Every module or class attribute that is still a tracer wrapper."""
    found = []
    for module in _bound_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{attr}.{name}"
                             for name, member in vars(value).items()
                             if hasattr(member, _MARK))
    return found


def crosscheck(tracer: Tracer, counters: Dict[str, int],
               builds: int) -> List[str]:
    """Disagreements between the tracer's counts, the simulator's own
    telemetry ``counters`` and the number of images the call ``builds``.

    A wrapper that misses a binding of its entry point undercounts here.
    """
    def total(prefix: str) -> int:
        return sum(n for name, n in counters.items()
                   if name.startswith(prefix))

    pairs = (
        ("sim.frontend.misses", tracer.misses,
         counters.get("sim.frontend.decrypts", 0)),
        ("sim.exec.instructions", tracer.instructions,
         total("sim.instructions.") + total("sim.vanilla.instructions.")),
        ("sim.exec.runs", tracer.runs,
         total("sim.runs.") + total("sim.vanilla.runs.")),
        ("transform.calls", tracer.calls()["transform"], builds),
    )
    return [f"{name}: traced {traced} != expected {expected}"
            for name, traced, expected in pairs if traced != expected]


def layer_metrics(tracer: Tracer, traced_wall: float,
                  untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced call, as name -> (value, unit)."""
    busy = tracer.self_times()
    calls = tracer.calls()
    sim_layers = {tracer._layer_ids[name] for name in tracer.layer_names
                  if name.startswith("sim.")}
    encrypts = sum(tracer.encrypts_by_parent.values())
    frontend = sum(n for parent, n in tracer.encrypts_by_parent.items()
                   if parent in sim_layers)
    exec_busy = (busy.get("sim.exec.sofia", 0.0)
                 + busy.get("sim.exec.vanilla", 0.0))
    crypto_busy = busy.get("crypto", 0.0)
    metrics = {
        "cc.busy_s": (busy.get("cc", 0.0), "s"),
        "cc.calls": (calls["cc"], "count"),
        "isa.busy_s": (busy.get("isa", 0.0), "s"),
        "isa.calls": (calls["isa"], "count"),
        "transform.busy_s": (busy.get("transform", 0.0), "s"),
        "transform.calls": (calls["transform"], "count"),
        "crypto.encrypts": (encrypts, "count"),
        "crypto.encrypts.protect": (encrypts - frontend, "count"),
        "crypto.encrypts.frontend": (frontend, "count"),
        "crypto.unique_frac": (len(tracer.encrypt_inputs) / encrypts
                               if encrypts else 0.0, "fraction"),
        "crypto.busy_s": (crypto_busy, "s"),
        "crypto.us_per_encrypt": (1e6 * crypto_busy / encrypts
                                  if encrypts else 0.0, "us"),
        "crypto.bitslice.lanes": (tracer.bitslice_lanes, "count"),
        "crypto.bitslice.busy_s": (busy.get("crypto.bitslice", 0.0), "s"),
        "sim.frontend.busy_s": (busy.get("sim.frontend", 0.0), "s"),
        "sim.frontend.misses": (tracer.misses, "count"),
        "sim.machines.sofia": (calls["sim.machines.sofia"], "count"),
        "sim.machines.vanilla": (calls["sim.machines.vanilla"], "count"),
        "sim.machines.busy_s": (busy.get("sim.machines.sofia", 0.0)
                                + busy.get("sim.machines.vanilla", 0.0),
                                "s"),
        "sim.exec.sofia.busy_s": (busy.get("sim.exec.sofia", 0.0), "s"),
        "sim.exec.vanilla.busy_s": (busy.get("sim.exec.vanilla", 0.0), "s"),
        "sim.exec.runs": (tracer.runs, "count"),
        "sim.exec.instructions": (tracer.instructions, "count"),
        "sim.exec.minstr_per_s": (tracer.instructions / exec_busy / 1e6
                                  if exec_busy else 0.0, "Minstr/s"),
        "sim.exec.cpi": (tracer.cycles / tracer.instructions
                         if tracer.instructions else 0.0, "cycle/instr"),
        "eval.export.busy_s": (busy.get("eval.export", 0.0), "s"),
        "campaign.busy_s": (traced_wall - sum(busy.values()), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0,
                                "fraction"),
    }
    return metrics
