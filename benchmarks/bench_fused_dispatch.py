"""E21 — fused-superblock dispatch throughput (instructions/sec).

Acceptance gate for the fused execution engine (:mod:`repro.sim.fused`):
in steady state — handlers compiled, every straight-line run dispatched
as ONE specialized Python call — the SOFIA core must deliver >= 1.8x
instructions/sec over the engine's own warm-up interpreter (step
handlers, every traversal interpreted), aggregated across the medium
workload sweep, while every :class:`ExecutionResult` stays bit-identical
(status, cycles, instructions, I-cache stats, MAC fetch cycles,
outputs).  The baseline is the same engine with
:data:`repro.sim.fused.COMPILE_THRESHOLD` raised out of reach, patched
inside this bench only.

The economics: the interpreter pays ~15 interpreter dispatches per
instruction slot (operand decode dict lookups, cycle-table indexing,
per-run tag probes); a fused handler pays one dict hit on the
``(prev_pc, pc)`` edge and runs straight-line specialized bytecode with
constant-folded cycle tables.  Compilation is amortized by the hotness
threshold: cold edges are interpreted, so one-shot code never pays
compile latency.  Cold-start ratios are printed for honesty but not
gated — the paper's campaign workloads (fuzz/attacksynth/DSE victims,
fault populations) re-enter the same blocks thousands of times, which is
the regime the gate models.

The second test re-runs E18's mixed-model regime: MASKED fault
specimens "peel off" the lockstep batch and run their whole suffix on a
scalar engine.  That suffix now runs fused (:func:`fork_machine` forks
onto its leader's engine, the default ``"fused"``), so the suffix cost
drops and the mixed-model speedup — E18's weak regime — improves;
results stay field-for-field identical to per-specimen scalar runs.

``test_fused_dispatch_smoke`` is the cheap CI guard: identity only, no
timing.
"""

import json
import time
from contextlib import contextmanager

import pytest

from repro.crypto import DeviceKeys
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.isa import assemble
from repro.sim import SofiaMachine, VanillaMachine, fused
from repro.transform import transform
from repro.workloads import make_workload, workload_names

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016
BUDGET = 50_000_000
GATE = 1.8
#: a compile threshold no run reaches: every traversal is interpreted
NEVER = 1 << 62


def _build(name, scale):
    workload = make_workload(name, scale)
    program = workload.compile().program
    return program, transform(program, KEYS, nonce=NONCE)


def _fields(result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason)


@contextmanager
def _interpreted(compile_runs):
    """Keep every traversal interpreted unless ``compile_runs`` (then
    the default threshold stands)."""
    with pytest.MonkeyPatch.context() as mp:
        if not compile_runs:
            mp.setattr(fused, "COMPILE_THRESHOLD", NEVER)
        yield


def _steady(image, compile_runs, repeats=2):
    """Best-of-N steady-state run: warm one machine to populate the
    front-end memos, transplant them onto fresh machines, time those.

    The transplanted memos (block cache with its compiled handlers and
    heat, the edge -> handler map) are pure functions of the untampered
    image + keys, so sharing them between machines of the same image is
    value-identical — the same argument
    :func:`repro.sim.batch.fork_machine` makes for forks.
    """
    with _interpreted(compile_runs):
        warm = SofiaMachine(image, KEYS)
        warm_result = warm.run(BUDGET)
        best = None
        for _ in range(repeats):
            machine = SofiaMachine(image, KEYS)
            machine._block_cache = warm._block_cache
            machine._block_edges = warm._block_edges
            machine._fused_edges = warm._fused_edges
            started = time.perf_counter()
            result = machine.run(BUDGET)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None or elapsed < best else best
            assert _fields(result) == _fields(warm_result)
    return warm_result, best


def _cold(image, compile_runs):
    with _interpreted(compile_runs):
        machine = SofiaMachine(image, KEYS)
        started = time.perf_counter()
        result = machine.run(BUDGET)
    return result, time.perf_counter() - started


def test_fused_dispatch_smoke():
    """CI smoke: fused results bit-identical to the reference oracle and
    to the never-compiling interpreter on both machines, tiny scale, no
    timing."""
    for name in ("sort", "crc32", "controller"):
        program, image = _build(name, "tiny")
        exe = assemble(program)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            ref = make("reference").run(BUDGET)
            with _interpreted(False):
                interp = make("fused").run(BUDGET)
            fast = make("fused").run(BUDGET)
            assert _fields(fast) == _fields(ref) == _fields(interp), name


def test_fused_dispatch_speedup(tmp_path, bench_environment):
    """E21 gate: >= 1.8x SOFIA instructions/sec over the warm-up
    interpreter in steady state, aggregated over the medium workload
    sweep; results bit-identical; cold-start ratios printed unguarded."""
    rows = []
    total = {"instructions": 0, "interpreted": 0.0, "fused": 0.0}
    for name in workload_names():
        _, image = _build(name, "medium")
        interp_result, t_interp = _steady(image, False)
        fused_result, t_fused = _steady(image, True)
        assert _fields(fused_result) == _fields(interp_result), name
        _, t_interp_cold = _cold(image, False)
        _, t_fused_cold = _cold(image, True)
        n = interp_result.instructions
        total["instructions"] += n
        total["interpreted"] += t_interp
        total["fused"] += t_fused
        rows.append({
            "workload": name, "instructions": n,
            "interpreted_mips": round(n / t_interp / 1e6, 2),
            "fused_mips": round(n / t_fused / 1e6, 2),
            "steady_speedup": round(t_interp / t_fused, 2),
            "cold_speedup": round(t_interp_cold / t_fused_cold, 2),
            "identical": 1,
        })

    aggregate = total["interpreted"] / total["fused"]
    header = (f"{'workload':<12s} {'instrs':>10s} {'interp Mi/s':>11s} "
              f"{'fused Mi/s':>10s} {'steady':>7s} {'cold':>6s}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:<12s} {row['instructions']:>10d} "
              f"{row['interpreted_mips']:>11.2f} {row['fused_mips']:>10.2f} "
              f"{row['steady_speedup']:>6.2f}x {row['cold_speedup']:>5.2f}x")
    print(f"{'AGGREGATE':<12s} {total['instructions']:>10d} "
          f"{total['instructions'] / total['interpreted'] / 1e6:>11.2f} "
          f"{total['instructions'] / total['fused'] / 1e6:>10.2f} "
          f"{aggregate:>6.2f}x")

    record = {"experiment": "E21", "gate": GATE,
              "aggregate_steady_speedup": round(aggregate, 2),
              "rows": rows, "environment": bench_environment("fused")}
    (tmp_path / "e21_fused_dispatch.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert aggregate >= GATE, (
        f"fused steady-state aggregate {aggregate:.2f}x < {GATE}x gate")


def test_peel_off_suffix_rerun(bench_environment):
    """E18 re-run, mixed-model regime: MASKED specimens' scalar suffixes
    now run on the fused engine, dropping the peel-off cost.  Identity
    is the gate; the speedup is printed as evidence."""
    program, image = _build("crc32", "small")
    golden = SofiaMachine(image, KEYS).run(BUDGET)
    assert golden.ok, golden.summary()
    faults = sample_faults(image, golden.instructions, per_model=8, seed=77)

    started = time.perf_counter()
    scalar = [run_fault(image, KEYS, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    t_scalar = time.perf_counter() - started
    started = time.perf_counter()
    batch = run_fault_batch(image, KEYS, faults, golden.output_ints,
                            max_instructions=BUDGET)
    t_batch = time.perf_counter() - started

    fields = lambda r: (r.fault, r.model, r.outcome, r.description,
                        r.status, r.detail)  # noqa: E731
    assert [fields(r) for r in scalar] == [fields(r) for r in batch], \
        "fused-suffix batch campaign diverged from scalar runs"
    n = len(faults)
    print(f"\nE18 rerun (mixed models, fused peel-off): {n} specimens, "
          f"scalar {n / t_scalar:.1f}/s, batch {n / t_batch:.1f}/s, "
          f"speedup {t_scalar / t_batch:.2f}x")
