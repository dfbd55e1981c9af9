"""Run compilers of the fused engine: one compiled call per straight-line run.

Stepping handlers (:func:`repro.sim.engine.compile_step`) still pays one
Python call, one tuple unpack and one kind/store check **per
instruction**.  Once a straight-line run is hot — a SOFIA
``_VerifiedBlock`` payload, or a vanilla chain up to and including the
next CTI / store / halt — this module source-compiles it into a single
specialized Python function: the :data:`~repro.sim.engine.SEMANTICS`
templates are formatted with literal operands and concatenated, cycle
costs are folded into compile-time run constants, and the I-cache tag
checks collapse to one literal comparison per cache line.  Until then
the machines interpret the run with step handlers; a run is compiled
when it has been entered :data:`COMPILE_THRESHOLD` times.

Run-handler contract
--------------------
A SOFIA block handler is called as ``fn(regs, load, store, mmio, tags,
ram)`` and returns a 7-tuple ``(n, cycles, hits, miss_runs, mac_cycles,
next_key, arg)``:

* ``n``          — instructions committed (the k-th trap commits exactly k);
* ``cycles``     — ``max(fetch_cycles, exec_cycles)`` for the whole block,
  the block-level bottleneck model.  The possible values are a
  *compile-time constant tuple* indexed by the miss count, so the hot
  path does no cycle arithmetic at all;
* ``hits``/``miss_runs`` — I-cache accounting (``hits = n_fetch - mr``);
* ``mac_cycles`` — the block's constant seal-fetch charge;
* ``next_key``   — the next block-cache edge ``(prev_pc, pc)`` or ``None``
  when the run ends.  Fall-through and direct-CTI successors are constant
  tuples baked at compile time, so the driving loop allocates nothing;
* ``arg``        — ``None`` while running, else the terminal
  ``(code, payload)``: 2 halt, 3 MMIO exit, 4 trap (payload is the
  reason).  Blocks that failed verification are never compiled: they
  reset the machine, so no run enters them twice.

A vanilla run handler returns ``(n, cycles, hits, misses, code, arg)`` with
per-instruction ``max(fetch, exec)`` charging and code 1 continue-at-`arg`,
2 halt, 3 exit, 4 trap.

Compiled handlers poll the MMIO exit register only after stores, so the
machines call them only when no ``on_commit`` hook is installed and the
register was clear when the run started; otherwise every run stays
interpreted.

Trap equivalence
----------------
A ``SimulationError`` raised by the k-th fused instruction must leave regs,
RAM, the cycle count and the I-cache exactly as k stepped iterations would.
Every memory access is therefore wrapped in its own ``try`` whose handler
returns the run-constants of the first k instructions: cycles are summed as
compile-time constants per prefix (the trapping instruction's execution
cycles are *not* charged, its fetch *is* tag-checked and counted, and a
line fill it triggered stands — all exactly like the stepped loop).
Register writes are in-place on the shared ``regs`` list, so the committed
prefix needs no replay.

Self-modifying code invalidates fused handlers exactly like step
handlers: SOFIA handlers live on the ``_VerifiedBlock`` (dropped, with
its edge's handler, by a write into that block), vanilla handlers live
in per-start-PC runs popped by the same code-write listener.  Stores always terminate a
vanilla run, so a code write can never outrun its own compiled suffix.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import SimulationError
from ..isa.instructions import Instruction
from .engine import (ADDRESS, CONSTANTS, MASK32, compile_fetch_runs,
                     link_register, operands, semantics, writes_rd)
from .timing import TimingParams, cycle_costs

#: vanilla straight-line runs are capped so a single compile stays small
MAX_RUN = 64

#: a run is interpreted with step handlers this many entries before it is
#: source-compiled: a CPython compile costs a few hundred µs while a fused
#: traversal only saves a couple of µs over an interpreted one, so
#: compiling pays off only for genuinely hot runs and one-shot code never
#: compiles at all
COMPILE_THRESHOLD = 16


def _literals(instr: Instruction, address: int) -> dict:
    """Template placeholder values of one instruction, as literals."""
    values = {key: str(value) for key, value in operands(instr).items()}
    values.update(CONSTANTS, link=str((address + 4) & MASK32))
    return values


def _op_statements(instr: Instruction, address: int) -> List[str]:
    """Statements for one ``op``-kind instruction (r0 writes dropped)."""
    sem = semantics(instr)
    if not writes_rd(sem, instr):
        return []
    return sem.code.format_map(_literals(instr, address)).splitlines()


def _jump_source(instr: Instruction, address: int):
    """``(statements, target)`` of a jump; the target is a literal or
    ``t`` (read before the link write, for ``jalr rd == rs1``)."""
    sem = semantics(instr)
    values = _literals(instr, address)
    target = sem.code.format_map(values)
    out = []
    if not target.isdigit():
        out.append(f"t = {target}")
        target = "t"
    link = link_register(sem, writes_rd(sem, instr))
    if link:
        out.append(f"r[{link.format_map(values)}] = {values['link']}")
    return out, target


def _ram(k: int) -> str:
    """The k-th byte of the big-endian RAM access at offset ``o``."""
    return f"ram[o + {k}]" if k else "ram[o]"


def _mem_source(instr: Instruction, data_base: int, ram_size: int):
    """The four code pieces of one load/store.

    Returns ``(pre, cond, fast, slow)``: address/offset setup, the inline
    fast-path guard (aligned access fully inside data RAM — the exact
    condition ``Memory.load``/``Memory.store`` use), the direct-bytearray
    body, and the fallback call into the memory system (MMIO, code reads,
    traps).  Only the ``slow`` call can raise.  With a shadowed RAM
    window (``ram_size < 0``) the guard is constant-false and ``cond`` is
    ``None`` — the caller emits the fallback alone.  Register values are
    already 32-bit masked, so ``imm == 0`` addresses skip the mask.
    """
    sem = semantics(instr)
    ops = operands(instr)
    size, rd, b = sem.size, ops["rd"], ops["rs2"]
    pre = [f"a = r[{ops['rs1']}]" if ops["imm"] == 0
           else "a = " + ADDRESS.format_map(_literals(instr, 0))]
    if sem.kind == "load":
        slow = [f"r[{rd}] = ld(a, {size}, {sem.signed})" if rd
                else f"ld(a, {size}, {sem.signed})"]
    else:
        slow = [f"st(a, r[{b}], {size})"]
    if ram_size < 0:
        return pre, None, [], slow
    pre.append(f"o = a - {data_base}")
    align = "" if size == 1 else f"not (a & {size - 1}) and "
    cond = f"{align}0 <= o <= {ram_size - size}"
    if sem.kind == "load":
        if not rd:
            # r0 loads keep their trap/MMIO effects; an in-RAM read is
            # side-effect-free, so the fast path is a no-op
            return pre, cond, ["pass"], slow
        value = " | ".join(
            f"({_ram(k)} << {8 * (size - 1 - k)})" if k < size - 1
            else _ram(k) for k in range(size))
        if sem.signed and size < 4:
            sign = 1 << (8 * size - 1)
            extend = (1 << 32) - (1 << (8 * size))
            fast = [f"v = {value}",
                    f"r[{rd}] = v + {extend} if v & {sign} else v"]
        else:
            fast = [f"r[{rd}] = {value}"]
        return pre, cond, fast, slow
    fast = [f"v = r[{b}]"]
    fast.extend(f"{_ram(k)} = (v >> {8 * (size - 1 - k)}) & 255"
                if k < size - 1 else f"{_ram(k)} = v & 255"
                for k in range(size))
    return pre, cond, fast, slow


def _compile(source: str):
    """Compile one run's source into its handler function."""
    namespace = {"SimulationError": SimulationError}
    exec(compile(source, "<fused-run>", "exec"), namespace)
    # popped so the function does not reach itself through its globals
    return namespace.pop("_fused")


# -- SOFIA verified-block compiler ----------------------------------------

def compile_sofia_block(block, timing: TimingParams, icache, memory,
                        block_bytes: int):
    """Compile one verified (``block.ok``) block into a run-handler.

    The caller caches the handler on the block (a write into the block
    drops the block and the handler with it).  Everything the driving loop needs —
    I-cache accounting, the seal-fetch charge, the successor edge key,
    the terminal status — comes back in the handler's return tuple; the
    block-level ``max(fetch, exec)`` bottleneck collapses to a constant
    tuple indexed by the miss count.
    """
    runs = compile_fetch_runs(block.fetch_addresses,
                              icache.line_bytes.bit_length() - 1,
                              icache.lines - 1,
                              icache.lines.bit_length() - 1)
    n_fetch = len(block.fetch_addresses)
    pen = timing.icache_miss_penalty
    mc = timing.mac_word_cycles * block.mac_slots
    ft_prev = block.base + block_bytes - 4
    ft_key = f"({ft_prev}, {block.base + block_bytes})"
    block_trap = None
    if block.decode_failure is not None:
        block_trap = ("illegal instruction in verified block: "
                      f"{block.decode_failure[1]}")

    out = ["def _fused(r, ld, st, mmio, tags, ram):"]
    if len(runs) == 1:
        (index, tag, _count), = runs
        out.append(f"    if tags[{index}] != {tag}:")
        out.append(f"        tags[{index}] = {tag}")
        out.append("        mr = 1")
        out.append("    else:")
        out.append("        mr = 0")
    else:
        out.append("    mr = 0")
        for index, tag, _count in runs:
            out.append(f"    if tags[{index}] != {tag}:")
            out.append(f"        tags[{index}] = {tag}")
            out.append("        mr += 1")

    def ret(n: int, ec: int, key2: str, arg: str) -> str:
        # block-level bottleneck max(fetch_cycles, exec_cycles) for every
        # possible miss count, folded into one constant tuple lookup
        table = tuple(max(n_fetch + m * pen, ec)
                      for m in range(len(runs) + 1))
        return (f"return ({n}, {table}[mr], {n_fetch} - mr, mr, {mc}, "
                f"{key2}, {arg})")

    ec = 0       # constant exec cycles committed so far
    count = 0    # instructions committed so far
    for instr, address, _slot in block.payload:
        seq, taken = cycle_costs(instr, timing)
        kind = semantics(instr).kind
        if kind == "halt":
            out.append("    " + ret(count + 1, ec + seq, "None", "(2, None)"))
            break
        if kind == "branch":
            values = _literals(instr, address)
            cond = semantics(instr).code.format_map(values)
            out.append(f"    if {cond}:")
            out.append("        " + ret(count + 1, ec + taken,
                                        f"({ft_prev}, {values['uimm']})",
                                        "None"))
            out.append("    " + ret(count + 1, ec + seq, ft_key, "None"))
            break
        if kind == "jump":
            stmts, target = _jump_source(instr, address)
            out.extend("    " + stmt for stmt in stmts)
            out.append("    " + ret(count + 1, ec + taken,
                                    f"({ft_prev}, {target})", "None"))
            break
        if kind == "op":
            out.extend("    " + stmt
                       for stmt in _op_statements(instr, address))
        else:
            pre, cond, fast, slow = _mem_source(instr, memory.data_base,
                                                memory._ram_size)
            trap_ret = ret(count, ec, "None", "(4, str(e))")
            out.extend("    " + stmt for stmt in pre)
            indent = "    "
            if cond is not None:
                out.append(f"    if {cond}:")
                out.extend("        " + stmt for stmt in fast)
                out.append("    else:")
                indent = "        "
            out.append(indent + "try:")
            out.extend(indent + "    " + stmt for stmt in slow)
            out.append(indent + "except SimulationError as e:")
            out.append(indent + "    " + trap_ret)
            if kind == "store":
                # an in-RAM store can never flip the exit register, so
                # only the slow path polls it
                out.append(indent + "if mmio.exit_code is not None:")
                out.append(indent + "    " + ret(count + 1, ec + seq,
                                                 "None", "(3, None)"))
        ec += seq
        count += 1
    else:
        # ran off the payload end: sequential fall-through, or the
        # decode-failure trap when decode stopped short of a terminator
        if block_trap is not None:
            out.append("    " + ret(count, ec, "None",
                                    f"(4, {block_trap!r})"))
        else:
            out.append("    " + ret(count, ec, ft_key, "None"))

    return _compile("\n".join(out) + "\n")


# -- vanilla straight-line-run compiler -----------------------------------

def compile_vanilla_run(instrs: Sequence[Instruction], start_pc: int,
                        timing: TimingParams, icache, memory):
    """Compile the decoded straight-line run at ``start_pc`` into one call.

    ``instrs`` are the run's instructions at consecutive PCs, ending with
    the first CTI, store or halt unless the run was capped at
    :data:`MAX_RUN` or truncated before a PC whose fetch/decode faults.
    """
    n = len(instrs)
    line_shift = icache.line_bytes.bit_length() - 1
    lines_mask = icache.lines - 1
    lines_shift = icache.lines.bit_length() - 1
    pen = timing.icache_miss_penalty
    # unmasked on purpose: the stepped loop advances ``pc += 4`` without
    # wrapping, and bit-identity beats tidiness
    next_pc = start_pc + 4 * n

    out = ["def _fused(r, ld, st, mmio, tags, ram):",
           "    mr = 0",
           "    xc = 0"]

    def charge(base: int, flag_extra: int = 0) -> str:
        expr = "xc" if base == 0 else f"{base} + xc"
        if flag_extra:
            expr += f" + ({flag_extra} if m else 0)"
        return expr

    cyc = 0            # constant hit-path cycles committed so far
    prev_line = None
    for k, instr in enumerate(instrs):
        address = start_pc + 4 * k
        line = address >> line_shift
        head = line != prev_line
        prev_line = line
        idx = line & lines_mask
        tag = line >> lines_shift
        seq, taken = cycle_costs(instr, timing)
        kind = semantics(instr).kind
        # per-instruction bottleneck: max(fetch, exec); a hit fetches in 1
        hc_seq = seq if seq > 1 else 1
        hc_taken = taken if taken > 1 else 1
        extra_seq = max(1 + pen, seq) - hc_seq
        extra_taken = max(1 + pen, taken) - hc_taken
        may_trap = kind in ("load", "store")
        branch_flag = 0
        if head:
            out.append(f"    if tags[{idx}] != {tag}:")
            out.append(f"        tags[{idx}] = {tag}")
            out.append("        mr += 1")
            if may_trap and extra_seq:
                # the miss extra must not be charged if this very
                # instruction traps (the fill itself still stands)
                out.append(f"        m = {extra_seq}")
                out.append("    else:")
                out.append("        m = 0")
            elif kind == "branch" and extra_seq != extra_taken:
                branch_flag = 1
                out.append("        m = 1")
                out.append("    else:")
                out.append("        m = 0")
            else:
                extra = extra_taken if kind in ("branch", "jump", "halt") \
                    else extra_seq
                if extra:
                    out.append(f"        xc += {extra}")

        if kind == "halt":
            out.append(f"    return ({n}, {charge(cyc + hc_taken)}, "
                       f"{n} - mr, mr, 2, None)")
            break
        if kind == "branch":
            values = _literals(instr, address)
            cond = semantics(instr).code.format_map(values)
            taken_charge = charge(cyc + hc_taken,
                                  extra_taken if branch_flag else 0)
            seq_charge = charge(cyc + hc_seq, extra_seq if branch_flag else 0)
            out.append(f"    if {cond}:")
            out.append(f"        return ({n}, {taken_charge}, "
                       f"{n} - mr, mr, 1, {values['uimm']})")
            out.append(f"    return ({n}, {seq_charge}, "
                       f"{n} - mr, mr, 1, {next_pc})")
            break
        if kind == "jump":
            stmts, target = _jump_source(instr, address)
            out.extend("    " + stmt for stmt in stmts)
            out.append(f"    return ({n}, {charge(cyc + hc_taken)}, "
                       f"{n} - mr, mr, 1, {target})")
            break
        if may_trap:
            pre, cond, fast, slow = _mem_source(instr, memory.data_base,
                                                memory._ram_size)
            trap_ret = (f"return ({k}, {charge(cyc)}, "
                        f"{k + 1} - mr, mr, 4, str(e))")
            out.extend("    " + stmt for stmt in pre)
            indent = "    "
            if cond is not None:
                out.append(f"    if {cond}:")
                out.extend("        " + stmt for stmt in fast)
                out.append("    else:")
                indent = "        "
            out.append(indent + "try:")
            out.extend(indent + "    " + stmt for stmt in slow)
            out.append(indent + "except SimulationError as e:")
            out.append(indent + "    " + trap_ret)
            if head and extra_seq:
                out.append("    xc += m")
        else:
            out.extend("    " + stmt
                       for stmt in _op_statements(instr, address))
        cyc += hc_seq
        if kind == "store":
            out.append("    if mmio.exit_code is not None:")
            out.append(f"        return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, 3, None)")
            out.append(f"    return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, 1, {next_pc})")
            break
    else:
        # capped or truncated before a faulting PC: plain continue
        out.append(f"    return ({n}, {charge(cyc)}, "
                   f"{n} - mr, mr, 1, {next_pc})")

    return _compile("\n".join(out) + "\n")
