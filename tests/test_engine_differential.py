"""Lockstep differential suite: fused engine vs the reference oracle.

The fused engine (:mod:`repro.sim.engine` step handlers while a run is
cold, :mod:`repro.sim.fused` compiled runs once it is hot) must be
observationally indistinguishable from ``core.execute`` stepped by the
reference loops — not just in final results but at *every committed
instruction*.  These tests pin that contract:

* lockstep traces via the ``on_commit`` hook — registers, PC and data
  memory after every commit — for every workload on both machines (a
  hook keeps every run interpreted, so each engine also runs unhooked,
  with hot runs compiled, and must end in the same state);
* bit-identical ``ExecutionResult`` fields (status, cycles, instructions,
  exit code, I-cache stats) under both overhead-sweep timing configs, so
  Table 1 / Fig. 2 reproductions cannot silently drift with the engine;
* Hypothesis property tests over random valid instruction sequences
  (word-level, reusing the decode-fuzz strategy idea) and random
  structured assembly programs (reusing ``test_equivalence`` strategies);
* cache-invalidation parity for self-modifying code, the ISR baselines'
  overridden fetch path, and the fault campaign's ``engine`` plumbing;
* renonce rotation-epoch images held to the same lockstep contract;
* the warm-up gate: one-shot code never compiles, runs that cross
  ``COMPILE_THRESHOLD`` compile and stay bit-identical, including at a
  budget boundary and for a trap on the compile-crossing traversal, and
  every workload stays bit-identical when every run compiles on entry.

``assert_lockstep`` and the shared ``engine`` fixture (tests/conftest.py)
range over every registered engine.  SOFIA machines whose front end a
campaign warmed first (:func:`repro.sim.batch.warm_front_end`) are held
to the same cycle-accounting contract as cold ones.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.isa import assemble, parse
from repro.isa.encoding import encode, is_valid_word
from repro.isa.program import CODE_BASE, Executable
from repro.obs import hook as obs_hook
from repro.sim import (DEFAULT_TIMING, LEON3_MINIMAL_TIMING, SofiaMachine,
                       Status, VanillaMachine, fused, run_executable,
                       run_image)
from repro.sim.batch import warm_front_end
from repro.sim.engine import DEFAULT_ENGINE, ENGINES, resolve_engine
from repro.transform import profile_grid, transform
from repro.workloads import make_workload, workload_names

from test_equivalence import assembly_programs

KEYS = DeviceKeys.from_seed(1)
NONCE = 0x2016

_STORE_SIZES = {"sw": 4, "sh": 2, "sb": 1}

#: per-module build cache: workload name -> (workload, exe, image)
_BUILDS = {}


def build(name):
    if name not in _BUILDS:
        workload = make_workload(name, "tiny")
        program = workload.compile().program
        _BUILDS[name] = (workload, assemble(program),
                         transform(program, KEYS, nonce=NONCE))
    return _BUILDS[name]


def machines(name, timing=DEFAULT_TIMING):
    """Vanilla and SOFIA machine factories for one workload."""
    _, exe, image = build(name)
    return {"vanilla": lambda e: VanillaMachine(exe, timing, engine=e),
            "sofia": lambda e: SofiaMachine(image, KEYS, timing, engine=e)}


#: (workload, timing) -> machine kind -> (result fields, final state) of
#: the reference oracle, the slow side of every comparison
_REFERENCE = {}


def reference_run(name, timing=DEFAULT_TIMING):
    key = (name, timing)
    if key not in _REFERENCE:
        runs = {}
        for kind, make in machines(name, timing).items():
            machine = make("reference")
            runs[kind] = (result_fields(machine.run()), final_state(machine))
        _REFERENCE[key] = runs
    return _REFERENCE[key]


def result_fields(result):
    """Everything the acceptance criteria require to be bit-identical."""
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason,
            str(result.violation) if result.violation else None)


def lockstep_trace(machine, max_instructions=2_000_000):
    """Run a machine recording (pc, registers, store-window) per commit.

    Data memory can only change through stores, so recording the written
    window after each store commit (plus the full-RAM comparison the
    caller performs at the end) is equivalent to comparing all of data
    memory after every committed instruction.
    """
    events = []
    regs = machine.state.regs
    ram = machine.memory.ram
    data_base = machine.memory.data_base

    def hook(pc, instr):
        size = _STORE_SIZES.get(instr.mnemonic)
        window = None
        if size is not None:
            offset = ((regs[instr.rs1] + instr.imm) & 0xFFFFFFFF) - data_base
            if 0 <= offset <= len(ram) - size:
                window = (offset, bytes(ram[offset:offset + size]))
        events.append((pc, tuple(regs), window))

    machine.on_commit = hook
    try:
        result = machine.run(max_instructions=max_instructions)
    finally:
        machine.on_commit = None
    return result, events


def final_state(machine):
    """Registers, PC (and prevPC on SOFIA) and data RAM after a run."""
    return (list(machine.state.regs), machine.state.pc,
            getattr(machine, "prev_pc", None), bytes(machine.memory.ram))


def assert_lockstep(make_machine):
    """Build a machine per registered engine; every engine's lockstep
    trace must match the reference oracle's commit for commit, and every
    engine run without a hook (hot runs compiled) must end in the same
    state with the same result."""
    ref = make_machine("reference")
    ref_result, ref_events = lockstep_trace(ref)
    for engine in ENGINES:
        if engine == "reference":
            continue
        other = make_machine(engine)
        other_result, other_events = lockstep_trace(other)
        for i, (a, b) in enumerate(zip(other_events, ref_events)):
            assert a == b, (f"first divergence at commit {i}: "
                            f"{engine}={a!r} reference={b!r}")
        assert len(other_events) == len(ref_events)
        assert final_state(other) == final_state(ref)
        assert result_fields(other_result) == result_fields(ref_result)
        unhooked = make_machine(engine)
        assert (result_fields(unhooked.run(2_000_000))
                == result_fields(ref_result)), engine
        assert final_state(unhooked) == final_state(ref), engine


class TestLockstepWorkloads:
    @pytest.mark.parametrize("name", workload_names())
    def test_vanilla_lockstep(self, name):
        _, exe, _ = build(name)
        assert_lockstep(lambda engine: VanillaMachine(exe, engine=engine))

    @pytest.mark.parametrize("name", workload_names())
    def test_sofia_lockstep(self, name):
        workload, _, image = build(name)
        assert_lockstep(
            lambda engine: SofiaMachine(image, KEYS, engine=engine))
        # the golden output is produced under the default engine too
        result = SofiaMachine(image, KEYS).run()
        assert result.output_ints == workload.expected_output


class TestCycleAccountingParity:
    """Overhead-sweep configs must yield bit-identical cycles and stats
    under every registered engine (the shared ``engine`` fixture)."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("timing", [DEFAULT_TIMING,
                                        LEON3_MINIMAL_TIMING],
                             ids=["default", "leon3-minimal"])
    def test_both_machines(self, name, timing, engine):
        reference = reference_run(name, timing)
        for kind, make in machines(name, timing).items():
            assert result_fields(make(engine).run()) == reference[kind][0]

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("timing", [DEFAULT_TIMING,
                                        LEON3_MINIMAL_TIMING],
                             ids=["default", "leon3-minimal"])
    def test_warmed_sofia_machine(self, name, timing, engine):
        """A front end pre-filled the way every campaign fills it (batch
        keystream and seal memos) changes no cycle, stat or final state."""
        machine = machines(name, timing)["sofia"](engine)
        assert warm_front_end(machine) > 0
        result = machine.run()
        assert (result_fields(result), final_state(machine)) == \
            reference_run(name, timing)["sofia"]


class TestEngineSelection:
    def test_default_is_fused(self):
        _, exe, image = build("sort")
        assert DEFAULT_ENGINE == "fused"
        assert VanillaMachine(exe).engine == "fused"
        assert SofiaMachine(image, KEYS).engine == "fused"

    def test_every_engine_selectable(self, engine):
        _, exe, image = build("sort")
        assert VanillaMachine(exe, engine=engine).engine == engine
        assert run_executable(exe, engine=engine).ok
        assert run_image(image, KEYS, engine=engine).ok

    def test_unknown_engine_rejected(self):
        _, exe, _ = build("sort")
        with pytest.raises(ValueError):
            VanillaMachine(exe, engine="jit")
        with pytest.raises(ValueError):
            resolve_engine("turbo")
        with pytest.raises(ValueError):
            resolve_engine("predecoded")
        with pytest.raises(ValueError):
            resolve_engine("batch")
        assert resolve_engine(None) == "fused"
        assert ENGINES == ("reference", "fused")

    def test_facade_engine_kwarg(self):
        from repro import core
        prog = core.build_assembly("main: li a0, 2\n add a0, a0, a0\n halt\n")
        exe = core.link_vanilla(prog)
        ref = core.run_vanilla(exe, engine="reference")
        fast = core.run_vanilla(exe, engine="fused")
        assert result_fields(ref) == result_fields(fast)


# --- Hypothesis property tests -------------------------------------------

def _word_program(words):
    """Wrap raw instruction words into an Executable at CODE_BASE."""
    return Executable(code_words=list(words), data=b"", symbols={},
                      entry=CODE_BASE)


class TestRandomWordDifferential:
    """Random *valid* instruction words: both engines agree on everything,
    including traps, infinite loops (LIMIT) and wild control flow."""

    @given(raw=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                        min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_word_sequences(self, raw):
        words = [w for w in raw if is_valid_word(w)]
        words.append(encode(parse("main: halt\n").instructions[0]))
        exe = _word_program(words)
        ref = VanillaMachine(exe, engine="reference")
        ref_result = ref.run(max_instructions=3_000)
        other = VanillaMachine(exe, engine="fused")
        other_result = other.run(max_instructions=3_000)
        assert result_fields(ref_result) == result_fields(other_result)
        assert final_state(ref) == final_state(other)


class TestRandomProgramDifferential:
    """Structured random programs (test_equivalence strategies): both
    engines agree on both machines, trap behaviour and cycles included."""

    @given(source=assembly_programs())
    @settings(max_examples=20, deadline=None)
    def test_vanilla_engines_agree(self, source):
        program = parse(source)
        exe = assemble(program)
        ref = VanillaMachine(exe, engine="reference")
        ref_fields = result_fields(ref.run(200_000))
        other = VanillaMachine(exe, engine="fused")
        assert ref_fields == result_fields(other.run(200_000))
        assert final_state(ref) == final_state(other)

    @given(source=assembly_programs(), nonce=st.integers(0, 0xFFFF))
    @settings(max_examples=10, deadline=None)
    def test_sofia_engines_agree(self, source, nonce):
        program = parse(source)
        image = transform(program, KEYS, nonce=nonce)
        ref = SofiaMachine(image, KEYS, engine="reference")
        ref_fields = result_fields(ref.run(400_000))
        other = SofiaMachine(image, KEYS, engine="fused")
        assert ref_fields == result_fields(other.run(400_000))
        assert final_state(ref) == final_state(other)


# --- cache-invalidation and plumbing parity -------------------------------

SELF_MODIFYING = """
main:
    li a0, 0
    li t3, 0
loop:
patch:
    nop
    bne t3, zero, done
    li t3, 1
    la t0, src
    lw t1, 0(t0)
    la t2, patch
    sw t1, 0(t2)
    jmp loop
done:
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
src:
    addi a0, a0, 7
"""


@functools.lru_cache(maxsize=None)
def classify_faults(engine):
    """Per-specimen (model, outcome, status) of a small fault campaign."""
    from repro.faults import run_campaign
    workload, _, _ = build("sort")
    results, _ = run_campaign(
        workload.compile().program, KEYS, workload.expected_output,
        per_model=2, seed=99, max_instructions=100_000, engine=engine)
    return [(r.model, r.outcome, r.status) for r in results]


class TestInvalidationParity:
    def test_self_modifying_code(self):
        """A stale step handler or compiled run would replay the
        pre-patch nop."""
        exe = assemble(parse(SELF_MODIFYING))
        assert_lockstep(lambda engine: VanillaMachine(exe, engine=engine))
        result = VanillaMachine(exe).run()
        assert result.output_ints == [7]

    def test_sofia_code_writes_match_the_unmemoized_oracle(self):
        """The bend instance of the default ``run_attacksynth(20)``
        campaign that runs to its budget while storing into code (victim
        nonce 43545, sealed edge 0x404 -> 0x408), replayed for 5,000
        instructions.  Memoized machines keep every verdict the writes
        leave valid; unmemoized ones re-verify every traversal; all four
        runs must agree.  (Which verdicts a write drops is pinned by
        ``test_sim_machines``' drops-only test.)"""
        from repro.attacksynth.campaign import DEFAULT_SEED, _campaign_genomes
        from repro.fuzz.generators import generate
        from repro.fuzz.oracle import build_program
        from repro.runner.cache import DEFAULT_KEY_SEED
        from repro.transform.profile import DEFAULT_PROFILE
        genome = _campaign_genomes(20, DEFAULT_SEED, None)[1][1]
        assert genome.nonce == 43545
        keys = DeviceKeys.from_seed(DEFAULT_KEY_SEED).for_profile(
            DEFAULT_PROFILE)
        image = transform(
            build_program(generate(genome)), keys, nonce=genome.nonce,
            profile=DEFAULT_PROFILE.with_block_words(genome.block_words))
        runs = []
        for engine in ("reference", "fused"):
            for memoize in (True, False):
                machine = SofiaMachine(image, keys, engine=engine,
                                       memoize=memoize)
                machine.prev_pc, machine.state.pc = 0x404, 0x408
                writes = []
                machine.memory.add_code_listener(writes.append)
                result = machine.run(max_instructions=5_000)
                assert writes, "the replay must store into code"
                runs.append((result_fields(result), final_state(machine),
                             machine.memory.code, writes))
        assert all(run == runs[0] for run in runs)
        assert runs[0][0][0] is Status.LIMIT

    def test_isr_baselines_both_engines(self):
        from repro.baselines import EcbIsrMachine, XorIsrMachine
        _, exe, _ = build("sort")
        assert_lockstep(
            lambda engine: XorIsrMachine(exe, 0xA5A5F00D, engine=engine))
        assert_lockstep(
            lambda engine: EcbIsrMachine(exe, 0xBEEF2016CAFE, engine=engine))

    def test_fault_campaign_engine_parity(self, engine):
        assert classify_faults(engine) == classify_faults("reference")


class TestRenonceRotationLockstep:
    """A rotated-epoch image (the update path) must hold the same
    engine-lockstep contract as the freshly sealed one — this pins the
    renonce path into the differential suite, which previously only
    exercised first-epoch images."""

    def test_rotated_epoch_lockstep(self):
        from repro.transform.renonce import rotate_nonce
        workload, _, image = build("sort")
        rotated = rotate_nonce(image, KEYS)
        assert rotated.nonce != image.nonce
        assert_lockstep(
            lambda engine: SofiaMachine(rotated, KEYS, engine=engine))
        result = SofiaMachine(rotated, KEYS).run()
        assert result.ok
        assert result.output_ints == workload.expected_output

    def test_double_rotation_lockstep(self):
        from repro.transform.renonce import rotate_nonce
        _, _, image = build("rle")
        twice = rotate_nonce(rotate_nonce(image, KEYS), KEYS)
        assert_lockstep(
            lambda engine: SofiaMachine(twice, KEYS, engine=engine))


class TestProfileGridLockstep:
    """Every E17 design point (2 ciphers x 3 seal widths x both renonce
    policies) holds the fused engine to the same per-commit lockstep
    contract as the reference oracle — the fused cycle constants are
    specialized per profile (seal geometry changes fetch slots and block
    layout), so one point passing says nothing about the others."""

    @pytest.mark.parametrize(
        "profile", profile_grid(),
        ids=lambda p: f"{p.cipher}-{32 * p.mac_words}b-{p.renonce}")
    def test_grid_point_lockstep(self, profile):
        workload, _, _ = build("rle")
        program = workload.compile().program
        image = transform(program, KEYS, nonce=NONCE, profile=profile)
        keys = KEYS.for_profile(profile)
        ref = SofiaMachine(image, keys, engine="reference")
        ref_result, ref_events = lockstep_trace(ref)
        other = SofiaMachine(image, keys, engine="fused")
        other_result, other_events = lockstep_trace(other)
        assert other_events == ref_events
        assert result_fields(other_result) == result_fields(ref_result)
        assert final_state(other) == final_state(ref)
        unhooked = SofiaMachine(image, keys, engine="fused")
        assert result_fields(unhooked.run()) == result_fields(ref_result)
        assert final_state(unhooked) == final_state(ref)


MID_BLOCK_TRAP = """
main:
    li a1, 1
    li a2, 2
    li a3, 3
    li t0, 0x000F0000
    lw t1, {offset}(t0)
    addi a3, a3, 40
    halt
"""


class TestMidRunTrapEquivalence:
    """A bus error / misaligned access in the middle of a fused run must
    leave registers, memory, cycles and the I-cache exactly as k stepped
    iterations would: the committed prefix (a1..a3 writes) stands, the
    instruction after the faulting load never executes.  A threshold of
    1 compiles every run on entry, so the trap is raised inside a
    compiled run; the default threshold keeps this one-shot code
    interpreted."""

    @pytest.mark.parametrize("threshold", [1, fused.COMPILE_THRESHOLD])
    @pytest.mark.parametrize("offset,reason", [
        (0, "bus error"),            # below data RAM, past code
        (2, "misaligned load"),      # rejects the fused fast-path guard
    ])
    def test_vanilla_and_sofia_trap_prefix(self, offset, reason, threshold,
                                           monkeypatch):
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", threshold)
        source = MID_BLOCK_TRAP.format(offset=offset)
        program = parse(source)
        exe = assemble(program)
        image = transform(program, KEYS, nonce=NONCE)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            ref = make("reference")
            ref_result = ref.run(10_000)
            assert ref_result.status.name == "TRAP"
            assert reason in ref_result.trap_reason
            assert ref.state.regs[5:8] == [1, 2, 3]  # a1, a2, a3 (r5-r7)
            other = make("fused")
            other_result = other.run(10_000)
            assert result_fields(other_result) == result_fields(ref_result)
            assert final_state(other) == final_state(ref)


class TestCompileOnFirstEntry:
    """A threshold of 1 compiles every run on its first entry, so every
    block and straight-line run of every workload executes compiled;
    results and final state must still equal the reference oracle's."""

    @pytest.mark.parametrize("name", workload_names())
    def test_workloads(self, name, monkeypatch):
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        reference = reference_run(name)
        for kind, make in machines(name).items():
            other = make("fused")
            assert (result_fields(other.run()), final_state(other)) \
                == reference[kind]

    def test_self_modifying_code_and_isr_baselines(self, monkeypatch):
        from repro.baselines import EcbIsrMachine, XorIsrMachine
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        smc = assemble(parse(SELF_MODIFYING))
        _, exe, _ = build("sort")
        for make in (lambda e: VanillaMachine(smc, engine=e),
                     lambda e: XorIsrMachine(exe, 0xA5A5F00D, engine=e),
                     lambda e: EcbIsrMachine(exe, 0xBEEF2016CAFE,
                                             engine=e)):
            ref, other = make("reference"), make("fused")
            assert result_fields(other.run()) == result_fields(ref.run())
            assert final_state(other) == final_state(ref)


class _Counts(dict):
    """Minimal telemetry sink: counter name -> total."""

    def count(self, name, n=1):
        self[name] = self.get(name, 0) + n


@pytest.fixture
def sim_counts():
    """A counting telemetry sink seen by machines built in the test."""
    previous = obs_hook.SIM
    counts = _Counts()
    obs_hook.install(counts)
    try:
        yield counts
    finally:
        obs_hook.install(previous)


#: the body run at ``loop`` is entered ``iterations - 1`` times: the
#: first iteration is part of the run that starts at ``main``
WARM_LOOP = """
main:
    li t0, 0
    li t1, {iterations}
loop:
    addi t0, t0, 1
    add a0, a0, t0
    bne t0, t1, loop
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
"""

#: loads walk down from DATA_BASE + 4 * (k - 1): iteration k + 1 loads
#: below data RAM and traps with a bus error
TRAP_LOOP = """
main:
    li t0, 0
    li t2, {start}
loop:
    addi t0, t0, 1
    lw t1, 0(t2)
    addi t2, t2, -4
    bne t0, zero, loop
    halt
"""


def _both_cores(source):
    program = parse(source)
    exe = assemble(program)
    image = transform(program, KEYS, nonce=NONCE)
    return (lambda e: VanillaMachine(exe, engine=e),
            lambda e: SofiaMachine(image, KEYS, engine=e))


class TestWarmUpGate:
    """Runs stay interpreted until entered ``COMPILE_THRESHOLD`` times
    (the vanilla core gained this gate with the single fast loop), and
    the compile-crossing entry is bit-identical to stepping it."""

    def test_one_shot_program_never_compiles(self, sim_counts):
        for make in _both_cores(MID_BLOCK_TRAP.format(offset=4) + "\n"):
            other = make("fused")
            ref_result = make("reference").run(10_000)
            assert result_fields(other.run(10_000)) == \
                result_fields(ref_result)
        assert sim_counts.get("sim.fused_compile", 0) == 0

    def test_vanilla_threshold_is_exact(self, sim_counts):
        threshold = fused.COMPILE_THRESHOLD
        below, _ = _both_cores(WARM_LOOP.format(iterations=threshold))
        assert below("fused").run().ok
        assert sim_counts.get("sim.fused_compile", 0) == 0
        at, _ = _both_cores(WARM_LOOP.format(iterations=threshold + 1))
        assert at("fused").run().ok
        assert sim_counts["sim.fused_compile"] == 1

    def test_hot_loop_compiles_and_matches_reference(self, sim_counts):
        for make in _both_cores(WARM_LOOP.format(iterations=200)):
            compiles = sim_counts.get("sim.fused_compile", 0)
            ref, other = make("reference"), make("fused")
            ref_result = ref.run()
            assert ref_result.ok
            assert result_fields(other.run()) == result_fields(ref_result)
            assert final_state(other) == final_state(ref)
            assert sim_counts["sim.fused_compile"] > compiles

    def test_budget_boundary_across_the_compile(self):
        # the vanilla loop run compiles after ~5 + 15 * 3 instructions;
        # every budget in the window stops before, on and after it,
        # including inside a compiled run, and a resumed run finishes
        for make in _both_cores(WARM_LOOP.format(iterations=40)):
            for budget in range(40, 75):
                ref, other = make("reference"), make("fused")
                assert (result_fields(other.run(budget))
                        == result_fields(ref.run(budget))), budget
                assert final_state(other) == final_state(ref), budget
                assert (result_fields(other.run())
                        == result_fields(ref.run())), budget
                assert final_state(other) == final_state(ref), budget

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_trap_on_compile_crossing_traversal(self, delta, sim_counts):
        from repro.isa.program import DATA_BASE
        k = fused.COMPILE_THRESHOLD + delta
        source = TRAP_LOOP.format(start=DATA_BASE + 4 * (k - 1))
        vanilla, sofia = _both_cores(source)
        for make in (vanilla, sofia):
            ref, other = make("reference"), make("fused")
            ref_result = ref.run(10_000)
            assert ref_result.status.name == "TRAP"
            assert "bus error" in ref_result.trap_reason
            assert result_fields(other.run(10_000)) == \
                result_fields(ref_result)
            assert final_state(other) == final_state(ref)
        # vanilla: the loop run traps on entry k; entry THRESHOLD compiles
        # it (delta 0 is the compile-crossing entry itself)
        assert sim_counts.get("sim.fused_compile", 0) >= (delta >= 0)
