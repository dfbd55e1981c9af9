"""Vanilla (unprotected) LEON3-like machine.

Executes a plain :class:`~repro.isa.program.Executable` with the shared
functional core and cycle model.  This is the paper's baseline processor:
it happily runs injected or tampered code — the attack suite uses exactly
that property for its differential experiments.

Two loops drive the same architectural model: the default fused loop
(see :mod:`repro.sim.fused`) steps each straight-line run with step
handlers (:mod:`repro.sim.engine`) until it is hot and then calls it as
one compiled function, and the ``"reference"`` engine steps
:func:`repro.sim.core.execute` — the semantics oracle the differential
suite locksteps against.  Both produce bit-identical
:class:`~repro.sim.result.ExecutionResult`\\ s.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..errors import DecodingError, SimulationError
from ..isa.encoding import decode
from ..isa.instructions import Instruction
from ..isa.program import Executable
from ..obs import hook as obs_hook
from . import fused
from .cache import DirectMappedCache
from .core import CPUState, execute
from .engine import predecode, resolve_engine
from .memory import Memory
from .result import ExecutionResult, Status
from .timing import DEFAULT_TIMING, TimingParams, instruction_cycles


class _Run:
    """One straight-line run of the fused loop, keyed by its start PC.

    ``steps`` are the interpreter steps at consecutive PCs up to and
    including the first CTI, store or halt (stores end runs, so
    self-modifying code can never execute a stale suffix), capped at
    :data:`repro.sim.fused.MAX_RUN`; a fetch/decode fault past the first
    PC truncates the run there.  A run whose very first fetch/decode
    faults has no steps and carries the trap reason instead.
    """

    __slots__ = ("steps", "n", "trap", "heat", "fn")

    def __init__(self, steps: tuple, trap: Optional[str]) -> None:
        self.steps = steps
        self.n = len(steps)
        self.trap = trap
        #: interpreted entries so far; the ``COMPILE_THRESHOLD``-th
        #: compiles ``fn``
        self.heat = 0
        self.fn = None


class VanillaMachine:
    """Functional + cycle-accounting simulator of the unmodified core."""

    def __init__(self, executable: Executable,
                 timing: TimingParams = DEFAULT_TIMING,
                 engine: Optional[str] = None) -> None:
        self.executable = executable
        self.timing = timing
        self.engine = resolve_engine(engine)
        self.memory = Memory(executable.code_words,
                             code_base=executable.code_base,
                             data=executable.data,
                             data_base=executable.data_base)
        self.icache = DirectMappedCache(timing.icache_lines,
                                        timing.icache_line_words)
        self.state = CPUState.reset(executable.entry)
        self._decoded: Dict[int, Instruction] = {}
        #: straight-line runs keyed by start PC; ``_run_cover`` maps every
        #: covered address back to its start PCs so one code write
        #: invalidates exactly the runs that decoded that word
        self._runs: Dict[int, _Run] = {}
        self._run_cover: Dict[int, Set[int]] = {}
        #: optional tracing hook, called as on_commit(pc, instr) after each
        #: committed instruction (see repro.sim.trace); fires identically
        #: under every engine
        self.on_commit = None
        #: telemetry sink captured once at construction (repro.obs.hook);
        #: ``None`` by default, consulted only at the end of run() and on
        #: compiles
        self._obs = obs_hook.SIM
        # any code write invalidates decoded instructions (self-modifying
        # code / injection attacks must see their new bytes)
        self.memory.add_code_listener(self._on_code_write)

    def _on_code_write(self, address: int) -> None:
        self._decoded.pop(address, None)
        starts = self._run_cover.pop(address, None)
        if starts:
            runs = self._runs
            for start in starts:
                runs.pop(start, None)

    def _flush_decoded(self) -> None:
        """Drop every cached decode and run (coupled-word encodings)."""
        self._decoded.clear()
        self._runs.clear()
        self._run_cover.clear()

    def _fetch_decode(self, pc: int) -> Instruction:
        cached = self._decoded.get(pc)
        if cached is not None:
            return cached
        word = self.memory.fetch_word(pc)
        instr = decode(word, pc)
        self._decoded[pc] = instr
        return instr

    def run(self, max_instructions: int = 50_000_000) -> ExecutionResult:
        """Run to completion (halt/exit/trap) or the instruction budget."""
        if self.engine == "reference":
            result = self._run_reference(max_instructions)
        else:
            result = self._run_fused(max_instructions)
        obs = self._obs
        if obs is not None:
            engine = self.engine
            obs.count(f"sim.vanilla.runs.{engine}")
            obs.count(f"sim.vanilla.instructions.{engine}",
                      result.instructions)
            obs.count(f"sim.vanilla.cycles.{engine}", result.cycles)
        return result

    def _run_reference(self, max_instructions: int) -> ExecutionResult:
        """The oracle loop: one ``core.execute`` call per instruction."""
        state = self.state
        memory = self.memory
        timing = self.timing
        icache = self.icache
        mmio = memory.mmio
        cycles = 0
        executed = 0
        status = Status.LIMIT
        trap_reason = ""
        while executed < max_instructions:
            pc = state.pc
            try:
                instr = self._fetch_decode(pc)
            except (DecodingError, SimulationError) as exc:
                status, trap_reason = Status.TRAP, str(exc)
                break
            fetch_cycles = 1
            if not icache.access(pc):
                fetch_cycles += timing.icache_miss_penalty
            try:
                outcome = execute(instr, state, memory, pc)
            except SimulationError as exc:
                status, trap_reason = Status.TRAP, str(exc)
                break
            executed += 1
            # bottleneck model (same as the SOFIA core): the fetch of this
            # word overlaps with execution stalls of earlier instructions
            cycles += max(fetch_cycles,
                          instruction_cycles(instr, timing,
                                             outcome.branch_taken))
            if self.on_commit is not None:
                self.on_commit(pc, instr)
            if outcome.halted:
                status = Status.HALT
                break
            if mmio.exit_requested:
                status = Status.EXIT
                break
            state.pc = outcome.next_pc if outcome.next_pc is not None else pc + 4
        return ExecutionResult(status=status, cycles=cycles,
                               instructions=executed,
                               exit_code=mmio.exit_code, mmio=mmio,
                               trap_reason=trap_reason,
                               icache=icache.stats)

    def _decode_run(self, start_pc: int) -> _Run:
        """Cold path: decode and predecode the run at ``start_pc``."""
        steps = []
        trap = None
        pc = start_pc
        while len(steps) < fused.MAX_RUN:
            try:
                instr = self._fetch_decode(pc)
            except (DecodingError, SimulationError) as exc:
                if not steps:
                    trap = str(exc)
                break
            steps.append(predecode(instr, self.timing))
            spec = instr.spec
            if spec.is_cti or spec.is_halt or spec.is_store:
                break
            pc += 4
        run = self._runs[start_pc] = _Run(tuple(steps), trap)
        cover = self._run_cover
        for k in range(max(run.n, 1)):
            cover.setdefault(start_pc + 4 * k, set()).add(start_pc)
        return run

    def _run_fused(self, max_instructions: int) -> ExecutionResult:
        """The fast loop: interpret a run until it is hot, then call it.

        Observable behaviour is bit-identical to :meth:`_run_reference`
        at every commit: same register/memory effects, same cycle and
        I-cache accounting, same hook firing order, same trap points.  A
        run with a compiled handler
        (:func:`repro.sim.fused.compile_vanilla_run`) is one call when the
        whole run fits the remaining budget; every other entry is
        interpreted inline, step by step and per-instruction exact, and
        the ``COMPILE_THRESHOLD``-th entry of a run compiles it.  Loop
        invariants are hoisted hard: the I-cache lookup is inlined (local
        tag list and hit/miss counters flushed to ``icache.stats`` on
        exit), the ``on_commit`` hook and register file are bound once
        (install the hook before calling :meth:`run`), and the MMIO exit
        poll only runs after stores — the only steps that can set it.  A
        hook, or an exit register already written when the run starts
        (the oracle still executes one instruction before noticing),
        keeps every run interpreted and polls after every commit.
        """
        state = self.state
        memory = self.memory
        icache = self.icache
        mmio = memory.mmio
        regs = state.regs
        ld = memory.load
        st = memory.store
        ram = memory.ram
        on_commit = self.on_commit
        get_run = self._runs.get
        miss_penalty = self.timing.icache_miss_penalty
        tags = icache._tags
        line_shift = icache.line_bytes.bit_length() - 1
        lines_mask = icache.lines - 1
        lines_shift = icache.lines.bit_length() - 1
        threshold = fused.COMPILE_THRESHOLD
        generic = on_commit is not None or mmio.exit_code is not None
        hits = 0
        misses = 0
        cycles = 0
        executed = 0
        status = Status.LIMIT
        trap_reason = ""
        pc = state.pc
        while executed < max_instructions:
            run = get_run(pc)
            if run is None:
                run = self._decode_run(pc)
            fn = run.fn
            if fn is None and not generic and run.n:
                run.heat += 1
                if run.heat >= threshold:
                    fn = run.fn = fused.compile_vanilla_run(
                        [step[4] for step in run.steps], pc, self.timing,
                        icache, memory)
                    if self._obs is not None:
                        self._obs.count("sim.fused_compile")
            steps = run.steps
            if run.n > max_instructions - executed:
                # budget boundary inside the run: step the exact prefix
                steps = steps[:max_instructions - executed]
            elif fn is not None and not generic:
                n, cyc, h, mr, code, arg = fn(regs, ld, st, mmio, tags, ram)
                executed += n
                cycles += cyc
                hits += h
                misses += mr
                if code == 1:
                    pc = arg
                    continue
                if code == 2:
                    status = Status.HALT
                    pc += 4 * (n - 1)
                elif code == 3:
                    status = Status.EXIT
                    pc += 4 * (n - 1)
                else:
                    status = Status.TRAP
                    trap_reason = arg
                    pc += 4 * n
                break
            for run_h, cyc_seq, cyc_taken, is_store, instr in steps:
                line_number = pc >> line_shift
                index = line_number & lines_mask
                tag = line_number >> lines_shift
                if tags[index] == tag:
                    hits += 1
                    fetch_cycles = 1
                else:
                    tags[index] = tag
                    misses += 1
                    fetch_cycles = 1 + miss_penalty
                try:
                    target = run_h(regs, memory, pc)
                except SimulationError as exc:
                    status, trap_reason = Status.TRAP, str(exc)
                    break
                executed += 1
                if target is None:
                    cycles += fetch_cycles if fetch_cycles > cyc_seq \
                        else cyc_seq
                    if on_commit is not None:
                        on_commit(pc, instr)
                    if (is_store or generic) and mmio.exit_code is not None:
                        status = Status.EXIT
                        break
                    pc += 4
                else:
                    cycles += fetch_cycles if fetch_cycles > cyc_taken \
                        else cyc_taken
                    if on_commit is not None:
                        on_commit(pc, instr)
                    if target == -1:  # engine.HALT
                        status = Status.HALT
                        break
                    if generic and mmio.exit_code is not None:
                        status = Status.EXIT
                        break
                    pc = target
                state.pc = pc
            else:
                if run.trap is None:
                    continue
                # the run's first fetch/decode faults every time
                status, trap_reason = Status.TRAP, run.trap
            break
        state.pc = pc
        icache.stats.hits += hits
        icache.stats.misses += misses
        return ExecutionResult(status=status, cycles=cycles,
                               instructions=executed,
                               exit_code=mmio.exit_code, mmio=mmio,
                               trap_reason=trap_reason,
                               icache=icache.stats)


def run_executable(executable: Executable,
                   timing: TimingParams = DEFAULT_TIMING,
                   max_instructions: int = 50_000_000,
                   engine: Optional[str] = None) -> ExecutionResult:
    """Convenience one-shot runner."""
    return VanillaMachine(executable, timing, engine=engine).run(
        max_instructions)
