"""Functional semantics tests for the SRISC execution core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Instruction
from repro.isa.program import DATA_BASE
from repro.isa.instructions import SPECS
from repro.sim import (DEFAULT_TIMING, CPUState, DirectMappedCache, Memory,
                       execute, to_signed)
from repro.sim.core import _trunc_div
from repro.sim.engine import SEMANTICS, compile_step
from repro.sim.fused import compile_vanilla_run

I32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
S32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


@pytest.fixture
def machine_bits():
    state = CPUState.reset(entry=0)
    memory = Memory(code_words=[0] * 16)
    return state, memory


def run_one(state, memory, instr, pc=0):
    return execute(instr, state, memory, pc)


class TestAlu:
    def test_add_wraps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)
        state.write(6, 2)
        run_one(state, mem, Instruction("add", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 1

    def test_sub_wraps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0)
        state.write(6, 1)
        run_one(state, mem, Instruction("sub", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0xFFFFFFFF

    def test_r0_is_immutable(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 9)
        run_one(state, mem, Instruction("add", rd=0, rs1=5, rs2=5))
        assert state.read(0) == 0

    def test_sra_sign_extends(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80000000)
        state.write(6, 4)
        run_one(state, mem, Instruction("sra", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0xF8000000

    def test_srl_zero_extends(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80000000)
        state.write(6, 4)
        run_one(state, mem, Instruction("srl", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0x08000000

    def test_shift_amount_masked_to_5_bits(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 1)
        state.write(6, 33)
        run_one(state, mem, Instruction("sll", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 2

    def test_slt_signed_vs_sltu_unsigned(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)  # -1 signed, huge unsigned
        state.write(6, 1)
        run_one(state, mem, Instruction("slt", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 1
        run_one(state, mem, Instruction("sltu", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0

    def test_lui_ori_builds_constant(self, machine_bits):
        state, mem = machine_bits
        run_one(state, mem, Instruction("lui", rd=5, imm=0xDEAD))
        run_one(state, mem, Instruction("ori", rd=5, rs1=5, imm=0xBEEF))
        assert state.read(5) == 0xDEADBEEF

    @given(a=S32, b=S32)
    @settings(max_examples=60, deadline=None)
    def test_div_rem_c_semantics(self, a, b):
        if b == 0:
            return
        # the C identity: a == (a/b)*b + a%b, remainder has dividend's sign
        q = _trunc_div(a, b)
        r = a - b * q
        assert q * b + r == a
        assert abs(r) < abs(b)

    def test_div_by_zero(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 42)
        run_one(state, mem, Instruction("div", rd=7, rs1=5, rs2=0))
        assert state.read(7) == 0xFFFFFFFF
        run_one(state, mem, Instruction("rem", rd=7, rs1=5, rs2=0))
        assert state.read(7) == 42

    def test_div_negative_truncates_toward_zero(self, machine_bits):
        state, mem = machine_bits
        state.write(5, (-7) & 0xFFFFFFFF)
        state.write(6, 2)
        run_one(state, mem, Instruction("div", rd=7, rs1=5, rs2=6))
        assert to_signed(state.read(7)) == -3  # C: -7/2 == -3, not -4
        run_one(state, mem, Instruction("rem", rd=7, rs1=5, rs2=6))
        assert to_signed(state.read(7)) == -1


class TestShiftImmediateMasking:
    """``slli``/``srli``/``srai`` mask the shift amount to 0..31 exactly
    like the register forms ``sll``/``srl``/``sra`` do.

    The decoder rejects encoded shift amounts >= 32, so this only shows
    with hand-constructed instructions (fuzzers, fault models) — but the
    two forms must agree there too, and the fast engine's step handlers
    compile from the same contract.
    """

    VALUE = 0x80000001

    @pytest.mark.parametrize("amount", [31, 32, 63])
    @pytest.mark.parametrize("imm_name,reg_name",
                             [("slli", "sll"), ("srli", "srl"),
                              ("srai", "sra")])
    def test_immediate_matches_register_form(self, machine_bits,
                                             imm_name, reg_name, amount):
        state, mem = machine_bits
        state.write(5, self.VALUE)
        state.write(6, amount)
        run_one(state, mem, Instruction(reg_name, rd=7, rs1=5, rs2=6))
        run_one(state, mem, Instruction(imm_name, rd=8, rs1=5, imm=amount))
        assert state.read(8) == state.read(7), (imm_name, amount)

    @pytest.mark.parametrize("amount", [31, 32, 63])
    @pytest.mark.parametrize("name", ["slli", "srli", "srai"])
    def test_step_handler_agrees(self, machine_bits, name, amount):
        state, mem = machine_bits
        state.write(5, self.VALUE)
        instr = Instruction(name, rd=7, rs1=5, imm=amount)
        run_one(state, mem, instr)
        oracle = state.read(7)
        state.write(7, 0)
        handler = compile_step(instr)
        assert handler(state.regs, mem, 0) is None
        assert state.read(7) == oracle, (name, amount)

    def test_boundary_31_exact_values(self, machine_bits):
        state, mem = machine_bits
        state.write(5, self.VALUE)
        run_one(state, mem, Instruction("slli", rd=7, rs1=5, imm=31))
        assert state.read(7) == 0x80000000
        run_one(state, mem, Instruction("srli", rd=7, rs1=5, imm=31))
        assert state.read(7) == 1
        run_one(state, mem, Instruction("srai", rd=7, rs1=5, imm=31))
        assert state.read(7) == 0xFFFFFFFF
        # 32 and 63 wrap to 0 and 31
        run_one(state, mem, Instruction("slli", rd=7, rs1=5, imm=32))
        assert state.read(7) == self.VALUE
        run_one(state, mem, Instruction("srai", rd=7, rs1=5, imm=63))
        assert state.read(7) == 0xFFFFFFFF


class TestMemoryOps:
    def test_store_load_roundtrip(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0xCAFEBABE)
        run_one(state, mem, Instruction("sw", rs2=6, rs1=5, imm=8))
        run_one(state, mem, Instruction("lw", rd=7, rs1=5, imm=8))
        assert state.read(7) == 0xCAFEBABE

    def test_lb_sign_extension(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0x80)
        run_one(state, mem, Instruction("sb", rs2=6, rs1=5, imm=0))
        run_one(state, mem, Instruction("lb", rd=7, rs1=5, imm=0))
        assert state.read(7) == 0xFFFFFF80
        run_one(state, mem, Instruction("lbu", rd=7, rs1=5, imm=0))
        assert state.read(7) == 0x80

    def test_lh_sign_extension(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0x8001)
        run_one(state, mem, Instruction("sh", rs2=6, rs1=5, imm=2))
        run_one(state, mem, Instruction("lh", rd=7, rs1=5, imm=2))
        assert state.read(7) == 0xFFFF8001
        run_one(state, mem, Instruction("lhu", rd=7, rs1=5, imm=2))
        assert state.read(7) == 0x8001


class TestControl:
    def test_branch_taken_and_not_taken(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 3)
        state.write(6, 3)
        out = run_one(state, mem,
                      Instruction("beq", rs1=5, rs2=6, imm=0x40), pc=0)
        assert out.next_pc == 0x40 and out.branch_taken
        out = run_one(state, mem,
                      Instruction("bne", rs1=5, rs2=6, imm=0x40), pc=0)
        assert out.next_pc is None and not out.branch_taken

    def test_signed_vs_unsigned_branches(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)
        state.write(6, 0)
        assert run_one(state, mem,
                       Instruction("blt", rs1=5, rs2=6, imm=8)).branch_taken
        assert not run_one(state, mem,
                           Instruction("bltu", rs1=5, rs2=6, imm=8)).branch_taken

    def test_call_writes_ra(self, machine_bits):
        state, mem = machine_bits
        out = run_one(state, mem, Instruction("call", imm=0x100), pc=0x20)
        assert out.next_pc == 0x100
        assert state.read(1) == 0x24

    def test_jalr_writes_link_then_jumps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80)
        out = run_one(state, mem,
                      Instruction("jalr", rd=1, rs1=5), pc=0x10)
        assert out.next_pc == 0x80 and state.read(1) == 0x14

    def test_jalr_link_to_target_register(self, machine_bits):
        # jalr rd == rs1: the jump target is read before the link write
        state, mem = machine_bits
        state.write(5, 0x80)
        out = run_one(state, mem,
                      Instruction("jalr", rd=5, rs1=5), pc=0x10)
        assert out.next_pc == 0x80 and state.read(5) == 0x14

    def test_halt(self, machine_bits):
        state, mem = machine_bits
        assert run_one(state, mem, Instruction("halt")).halted


class TestSemanticsTable:
    """The fast engine writes the ISA down once, in
    :data:`repro.sim.engine.SEMANTICS`.  Both consumers of that table —
    the step handlers and the fused run compiler — must agree with the
    ``core.execute`` oracle on edge-case operands, including aliased
    registers and the r0 rule."""

    VALUES = (0, 1, 7, 0x7FFFFFFF, 0x80000000, 0xFFFFFFF9, 0xFFFFFFFF)
    IMMS = (0, 3, -5, 0x7FFF, -0x8000)
    #: (rd, rs1, rs2): distinct, rd aliasing each source, r0 destination
    FORMS = ((7, 5, 6), (5, 5, 6), (6, 5, 6), (0, 5, 6))
    PC = 0x100

    def test_every_mnemonic_has_semantics(self):
        assert set(SEMANTICS) == set(SPECS)

    @pytest.mark.parametrize("mnemonic", sorted(
        m for m, sem in SEMANTICS.items()
        if sem.kind in ("op", "branch", "jump")))
    def test_step_handler_and_compiled_run_match_oracle(self, mnemonic):
        memory = Memory(code_words=[0] * 16)
        icache = DirectMappedCache()
        for imm in self.IMMS:
            for rd, rs1, rs2 in self.FORMS:
                instr = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2,
                                    imm=imm)
                step = compile_step(instr)
                run = compile_vanilla_run([instr], self.PC, DEFAULT_TIMING,
                                          icache, memory)
                for a in self.VALUES:
                    for b in self.VALUES:
                        self._check(instr, step, run, memory, icache, a, b)

    def _check(self, instr, step, run, memory, icache, a, b):
        state = CPUState.reset(entry=self.PC)
        state.write(5, a)
        state.write(6, b)
        stepped, compiled = list(state.regs), list(state.regs)
        outcome = execute(instr, state, memory, self.PC)
        target = step(stepped, memory, self.PC)
        _, _, _, _, code, arg = run(compiled, memory.load, memory.store,
                                    memory.mmio, icache._tags, memory.ram)
        where = (instr.render(), hex(a), hex(b))
        assert stepped == state.regs, where
        assert compiled == state.regs, where
        assert target == outcome.next_pc, where
        assert code == 1, where
        assert arg == (outcome.next_pc if outcome.next_pc is not None
                       else self.PC + 4), where
