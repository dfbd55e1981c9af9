"""Machine-level tests: vanilla and SOFIA run loops, traps, violations.

Behavioural tests take the shared ``engine`` fixture (tests/conftest.py)
so every registered execution engine — reference, fused — satisfies the
same machine-level contract.  The SOFIA contract is checked twice: on a
cold machine, and on one whose front end was warmed first the way every
campaign warms it (:func:`repro.sim.batch.warm_front_end`).
"""

import pytest

from repro.crypto import DeviceKeys
from repro.isa import assemble_text, parse
from repro.sim import (DEFAULT_TIMING, SofiaMachine, Status, TimingParams,
                       VanillaMachine)
from repro.sim.batch import warm_front_end
from repro.transform import TransformConfig, transform

KEYS = DeviceKeys.from_seed(321)


def build_sofia(source, nonce=9, config=None, engine=None,
                timing=DEFAULT_TIMING):
    image = transform(parse(source), KEYS, nonce=nonce,
                      config=config or TransformConfig())
    return SofiaMachine(image, KEYS, timing, engine=engine), image


COUNTER = """
main:
    li t0, 0
    li t1, 50
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    li t2, 0xFFFF0004
    sw t0, 0(t2)
    halt
"""


class TestVanillaMachine:
    def test_halt(self, engine):
        m = VanillaMachine(assemble_text("main: halt\n"), engine=engine)
        r = m.run()
        assert r.status is Status.HALT
        assert r.instructions == 1

    def test_exit_code(self, engine):
        m = VanillaMachine(assemble_text("""
        main:
            li t0, 0xFFFF0008
            li t1, 5
            sw t1, 0(t0)
            halt
        """), engine=engine)
        r = m.run()
        assert r.status is Status.EXIT
        assert r.exit_code == 5

    def test_loop_and_output(self, engine):
        r = VanillaMachine(assemble_text(COUNTER), engine=engine).run()
        assert r.output_ints == [50]
        # 2x li + 50x(addi, blt) + lui/ori + sw + halt
        assert r.instructions == 2 + 50 * 2 + 4

    def test_instruction_limit(self, engine):
        r = VanillaMachine(assemble_text("main: jmp main\n"),
                           engine=engine).run(max_instructions=100)
        assert r.status is Status.LIMIT
        assert r.instructions == 100

    def test_illegal_instruction_traps(self, engine):
        m = VanillaMachine(assemble_text("main: nop\n halt\n"),
                           engine=engine)
        m.memory.poke_code(0, 0xFFFFFFFF)
        r = m.run()
        assert r.status is Status.TRAP
        assert "opcode" in r.trap_reason

    def test_bus_error_traps(self):
        r = VanillaMachine(assemble_text("""
        main:
            li t0, 0x00900000
            lw t1, 0(t0)
            halt
        """)).run()
        assert r.status is Status.TRAP

    def test_branch_taken_costs_more(self):
        # a large redirect penalty must dominate the cold-miss fetch cost
        # in the bottleneck (max of fetch/execute) cycle model
        timing = TimingParams(branch_taken_penalty=20)
        taken = VanillaMachine(assemble_text(
            "main: beq zero, zero, out\nout: halt\n"), timing).run()
        not_taken = VanillaMachine(assemble_text(
            "main: bne zero, zero, out\nout: halt\n"), timing).run()
        # both paths execute 2 instructions (the not-taken one falls into
        # `out`), but only the taken branch pays the redirect penalty
        assert taken.instructions == not_taken.instructions == 2
        assert taken.cycles > not_taken.cycles

    def test_icache_stats_populated(self):
        r = VanillaMachine(assemble_text(COUNTER)).run()
        assert r.icache is not None
        assert r.icache.accesses == r.instructions
        assert r.icache.hit_rate > 0.9  # tight loop

    def test_self_modifying_code_sees_new_bytes(self, engine):
        # the decode cache must be invalidated by code writes
        src = """
        main:
            la t0, patch      # address of the patched instruction... in data? no: code
            halt
        """
        # simpler: poke between two run() calls
        m = VanillaMachine(assemble_text("main: nop\n nop\n halt\n"),
                           engine=engine)
        m.run(max_instructions=1)
        from repro.isa import Instruction, encode
        m.memory.poke_code(4, encode(Instruction("halt")))
        r = m.run(max_instructions=10)
        assert r.status is Status.HALT


class TestSofiaMachine:
    #: warm the keystream and seal memos before the test drives the machine
    warm = False

    def build(self, source, **kwargs):
        machine, image = build_sofia(source, **kwargs)
        if self.warm:
            assert warm_front_end(machine) > 0
        return machine, image

    def test_counter_program(self, engine):
        m, _ = self.build(COUNTER, engine=engine)
        r = m.run()
        assert r.status is Status.EXIT or r.status is Status.HALT
        assert r.output_ints == [50]

    def test_blocks_and_mac_cycles_accounted(self, engine):
        m, image = self.build(COUNTER, engine=engine)
        r = m.run()
        assert r.blocks_executed > 0
        assert r.mac_fetch_cycles == 2 * r.blocks_executed

    def test_tamper_detected_and_nothing_commits(self, engine):
        source = """
        main:
            li t0, 0xFFFF0010
            li t1, 77
            sw t1, 0(t0)
            halt
        """
        m, image = self.build(source, engine=engine)
        # flip a bit in the block that does the store
        m.memory.poke_code(image.code_base + 8, image.words[2] ^ 1)
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind == "integrity"
        assert m.memory.mmio.actuator == []  # the store never reached MA

    def test_invalid_entry_offset(self, engine):
        m, image = self.build(COUNTER, engine=engine)
        m.state.pc = image.code_base + 12
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind == "invalid-entry"

    def test_valid_entry_wrong_edge(self, engine):
        m, image = self.build(COUNTER, engine=engine)
        m.state.pc = image.code_base + image.block_bytes  # block 1, no edge
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind in ("integrity", "fetch-fault")

    def test_memoization_speedup_and_correctness(self):
        m1, _ = self.build(COUNTER)
        m2, _ = self.build(COUNTER)
        m2.memoize = False
        r1, r2 = m1.run(), m2.run()
        assert r1.output_ints == r2.output_ints
        assert r1.cycles == r2.cycles

    def test_code_write_drops_only_the_written_block(self, engine):
        m, image = self.build(COUNTER, engine=engine)
        assert m.run().status is Status.HALT
        target = image.symbols["loop"] + 8   # M2, fetched on every path
        base = image.block_base_of(target)
        blocks = dict(m._block_cache)
        handlers = dict(m._fused_edges)
        written = {key for key, block in blocks.items() if block.base == base}
        assert written and len(written) < len(blocks)
        if engine != "reference":
            # the hot loop block was compiled, and so must be dropped
            assert written & handlers.keys()
        keystream, words = m.keystream, dict(m.keystream._cache)
        seals, macs = m._mac_cache, dict(m._mac_cache)
        m.memory.poke_code(target, 0x12345678)
        # exactly the written block's edges and handlers go ...
        survivors = {key: block for key, block in blocks.items()
                     if key not in written}
        assert m._block_cache.keys() == survivors.keys()
        assert all(m._block_cache[key] is block
                   for key, block in survivors.items())
        assert m._fused_edges == {key: fn for key, fn in handlers.items()
                                  if key not in written}
        # ... and the pure keystream and seal memos stay
        assert m.keystream is keystream and keystream._cache == words
        assert m._mac_cache is seals and seals == macs
        # the next traversal of the block re-verifies against the new words
        for key in sorted(written):
            assert not m.decrypt_and_verify(*key).ok
        m.prev_pc, m.state.pc = min(written)
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind == "integrity"
        m.memory.poke_code(target, image.words[(target - image.code_base) // 4])
        assert all(m.decrypt_and_verify(*key).ok for key in written)

    def test_runtime_injection_detected(self, engine):
        # tamper *while running*: the next traversal of the loop block
        # re-verifies and catches it (poke M2, fetched on every path)
        m, image = self.build(COUNTER, engine=engine)
        m.run(max_instructions=30)
        target = image.symbols["loop"] + 8
        m.memory.poke_code(target, 0x12345678)
        r = m.run(max_instructions=100000)
        assert r.status is Status.RESET
        assert r.violation.kind == "integrity"

    def test_small_block_configuration_runs(self, engine):
        config = TransformConfig(block_words=6)
        m, image = self.build(COUNTER, config=config, engine=engine)
        r = m.run()
        assert r.output_ints == [50]
        assert image.block_words == 6

    def test_sofia_slower_than_vanilla(self):
        vanilla = VanillaMachine(assemble_text(COUNTER)).run()
        m, _ = self.build(COUNTER)
        sofia = m.run()
        assert sofia.cycles > vanilla.cycles
        assert sofia.instructions >= vanilla.instructions  # padding nops

    def test_timing_params_affect_cycles(self):
        slow = TimingParams(branch_taken_penalty=10)
        fast_r = self.build(COUNTER)[0].run()
        slow_r = self.build(COUNTER, timing=slow)[0].run()
        assert slow_r.cycles > fast_r.cycles

    def test_result_summary_renders(self):
        m, _ = self.build(COUNTER)
        text = m.run().summary()
        assert "status=" in text and "cycles=" in text


class TestWarmedSofiaMachine(TestSofiaMachine):
    """The same contract on a pre-warmed front end: warming fills only
    pure memos, so no run, violation or invalidation may differ."""
    warm = True


class TestMachineLifetime:
    """A dead machine is freed by reference counting: ``Memory`` holds
    its machine's code-write listener weakly, so no machine -> memory ->
    listener -> machine cycle waits for the cyclic collector with 1 MiB
    of RAM and every compiled run attached."""

    @staticmethod
    def _machines():
        from repro.baselines import EcbIsrMachine, XorIsrMachine
        exe = assemble_text(COUNTER)
        return {
            "vanilla": lambda: VanillaMachine(exe),
            "sofia": lambda: build_sofia(COUNTER)[0],
            "xor": lambda: XorIsrMachine(exe, 0xA5A5F00D),
            "ecb": lambda: EcbIsrMachine(exe, 0xBEEF2016CAFE),
        }

    @pytest.mark.parametrize("kind", ["vanilla", "sofia", "xor", "ecb"])
    def test_dead_machine_freed_without_gc(self, kind):
        import gc
        import weakref
        machine = self._machines()[kind]()
        assert machine.run().status is Status.HALT
        ref = weakref.ref(machine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del machine
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("kind", ["vanilla", "xor", "ecb"])
    def test_code_write_still_invalidates_a_live_machine(self, kind):
        machine = self._machines()[kind]()
        machine.run()
        assert machine._runs and machine._decoded
        address = machine.executable.code_base
        machine.memory.poke_code(address, machine.memory.fetch_word(address))
        assert address not in machine._decoded
        assert all(address not in range(start, start + 4 * run.n)
                   for start, run in machine._runs.items())
