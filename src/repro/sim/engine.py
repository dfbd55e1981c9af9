"""Instruction semantics of the fast engine, and the engine registry.

:func:`repro.sim.core.execute` is the *reference semantics oracle*: a
~40-arm mnemonic dispatch that re-reads every operand field, allocates a
fresh :class:`~repro.sim.core.ExecOutcome` and re-derives
:func:`~repro.sim.timing.instruction_cycles` on every step.  That is the
right shape for auditing the ISA against the paper, and the wrong shape
for the millions of steps a campaign executes.

The fast engine writes the ISA down exactly once more, as
:data:`SEMANTICS`: one source template per mnemonic over the register
list ``r``, with ``{placeholders}`` for the decoded operands (see
:data:`OPERANDS`).  Two code generators consume that one table:

* :func:`compile_step` turns one decoded instruction into a *step
  handler* — a closure whose operands are bound as default arguments —
  that a machine steps while a run is still cold.  The closures come from
  per-mnemonic factories generated from the templates once, at import
  (one ``exec`` for the whole table, never one per instruction);
* :mod:`repro.sim.fused` formats the same templates with literal operands
  and concatenates a whole straight-line run into one function once the
  run is hot.

Writes to ``r0`` are compiled out by both (the oracle discards them in
``CPUState.write`` with no other side effect).

Step-handler contract
---------------------
``handler(regs, memory, pc) -> Optional[int]`` where the return value is

* ``None``        — sequential flow (``pc + 4`` / next payload slot); the
  not-taken cycle cost applies;
* :data:`HALT`    — a ``halt`` committed (``-1``, unreachable as a real
  address because architectural values are masked to 32 bits);
* any other int   — the next PC; the taken cycle cost applies.

A handler returns non-``None`` iff ``execute`` returns an outcome with
``next_pc is not None`` or ``halted``, and a *branch* handler returns
non-``None`` iff ``branch_taken`` — so charging the taken cost on
non-``None`` reproduces ``instruction_cycles(instr, timing,
outcome.branch_taken)`` bit for bit (unconditional transfers bake the
jump penalty into both costs).  Handlers raise the same
:class:`~repro.errors.SimulationError` as the oracle for bus errors, MMIO
violations and misaligned accesses, because they call the same
:class:`~repro.sim.memory.Memory` methods.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..errors import SimulationError
from ..isa.instructions import Instruction
from .memory import Memory
from .timing import TimingParams, cycle_costs

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000

#: sentinel returned by a compiled ``halt`` handler (no architectural
#: address can be negative, so it never collides with a branch target)
HALT = -1

#: the engines a machine can run: ``"fused"`` (the default) interprets
#: each straight-line run with step handlers until it is hot and then
#: calls it as one compiled function (:mod:`repro.sim.fused`);
#: ``"reference"`` selects the ``core.execute`` oracle loop.  Warming a
#: SOFIA front end and lockstepping fault specimens are campaign steps
#: (:mod:`repro.sim.batch`), not engines.  This tuple is the single home
#: of the engine name surface: the ``run``/``run-protected`` CLI choices
#: and the test fixtures derive from it.
ENGINES = ("reference", "fused")
DEFAULT_ENGINE = "fused"

Handler = Callable[[list, Memory, int], Optional[int]]


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name (``None`` selects the default)."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r}; choose from {ENGINES}")
    return engine


# -- the semantics table ---------------------------------------------------

class Semantics(NamedTuple):
    """How one mnemonic executes.

    ``kind`` is ``"op"`` (register/immediate ALU; ``code`` is statements
    writing ``r[{rd}]``, empty for ``nop``), ``"load"``/``"store"``
    (``size`` bytes at ``r[{rs1}] + {imm}``, loads sign-extended when
    ``signed``), ``"branch"`` (``code`` is the taken condition; the target
    is ``{uimm}``), ``"jump"`` (``code`` is the target expression; ``link``
    names the register receiving the return address, if any) or
    ``"halt"``.  Statement templates may use the scratch names ``x``,
    ``y`` and ``q``.
    """

    kind: str
    code: str = ""
    size: int = 0
    signed: bool = False
    link: str = ""


#: the two 32-bit constants templates spell as ``{M}`` and ``{S}``
CONSTANTS = {"M": str(MASK32), "S": str(SIGN_BIT)}

# signed 32-bit division truncating toward zero (C/SPARC semantics);
# ``x - ((x & S) << 1)`` is the signed view of a 32-bit value
_DIVIDE = """\
y = r[{rs2}]
x = r[{rs1}]
if y:
    y -= (y & {S}) << 1
    x -= (x & {S}) << 1
    q = abs(x) // abs(y)
    if (x < 0) != (y < 0):
        q = -q
    r[{rd}] = %s
else:
    r[{rd}] = %s"""

SEMANTICS: Dict[str, Semantics] = {
    "nop": Semantics("op"),
    "halt": Semantics("halt"),
    # register ALU
    "add": Semantics("op", "r[{rd}] = (r[{rs1}] + r[{rs2}]) & {M}"),
    "sub": Semantics("op", "r[{rd}] = (r[{rs1}] - r[{rs2}]) & {M}"),
    "and": Semantics("op", "r[{rd}] = r[{rs1}] & r[{rs2}]"),
    "or": Semantics("op", "r[{rd}] = r[{rs1}] | r[{rs2}]"),
    "xor": Semantics("op", "r[{rd}] = r[{rs1}] ^ r[{rs2}]"),
    "sll": Semantics("op", "r[{rd}] = (r[{rs1}] << (r[{rs2}] & 31)) & {M}"),
    "srl": Semantics("op", "r[{rd}] = r[{rs1}] >> (r[{rs2}] & 31)"),
    "sra": Semantics("op", "x = r[{rs1}]\n"
                     "r[{rd}] = ((x - ((x & {S}) << 1)) >> (r[{rs2}] & 31))"
                     " & {M}"),
    "mul": Semantics("op", "r[{rd}] = (r[{rs1}] * r[{rs2}]) & {M}"),
    "div": Semantics("op", _DIVIDE % ("q & {M}", "{M}")),
    "rem": Semantics("op", _DIVIDE % ("(x - y * q) & {M}", "x")),
    # signed compares via sign-bit bias: (v ^ S) orders unsigned 32-bit
    # values exactly like their signed views
    "slt": Semantics("op", "r[{rd}] = 1 if (r[{rs1}] ^ {S}) < "
                     "(r[{rs2}] ^ {S}) else 0"),
    "sltu": Semantics("op", "r[{rd}] = 1 if r[{rs1}] < r[{rs2}] else 0"),
    # immediate ALU (register values are already 32-bit, so masking the
    # immediate first is the same as masking the result)
    "addi": Semantics("op", "r[{rd}] = (r[{rs1}] + {imm}) & {M}"),
    "andi": Semantics("op", "r[{rd}] = r[{rs1}] & {uimm}"),
    "ori": Semantics("op", "r[{rd}] = r[{rs1}] | {uimm}"),
    "xori": Semantics("op", "r[{rd}] = r[{rs1}] ^ {uimm}"),
    "slli": Semantics("op", "r[{rd}] = (r[{rs1}] << {sh}) & {M}"),
    "srli": Semantics("op", "r[{rd}] = r[{rs1}] >> {sh}"),
    "srai": Semantics("op", "x = r[{rs1}]\n"
                      "r[{rd}] = ((x - ((x & {S}) << 1)) >> {sh}) & {M}"),
    "slti": Semantics("op", "r[{rd}] = 1 if (r[{rs1}] ^ {S}) < {sbias} "
                      "else 0"),
    "sltiu": Semantics("op", "r[{rd}] = 1 if r[{rs1}] < {uimm} else 0"),
    "lui": Semantics("op", "r[{rd}] = {hi}"),
    # memory
    "lw": Semantics("load", size=4),
    "lh": Semantics("load", size=2, signed=True),
    "lhu": Semantics("load", size=2),
    "lb": Semantics("load", size=1, signed=True),
    "lbu": Semantics("load", size=1),
    "sw": Semantics("store", size=4),
    "sh": Semantics("store", size=2),
    "sb": Semantics("store", size=1),
    # control transfer
    "beq": Semantics("branch", "r[{rs1}] == r[{rs2}]"),
    "bne": Semantics("branch", "r[{rs1}] != r[{rs2}]"),
    "blt": Semantics("branch", "(r[{rs1}] ^ {S}) < (r[{rs2}] ^ {S})"),
    "bge": Semantics("branch", "(r[{rs1}] ^ {S}) >= (r[{rs2}] ^ {S})"),
    "bltu": Semantics("branch", "r[{rs1}] < r[{rs2}]"),
    "bgeu": Semantics("branch", "r[{rs1}] >= r[{rs2}]"),
    "jmp": Semantics("jump", "{uimm}"),
    "call": Semantics("jump", "{uimm}", link="1"),
    "jr": Semantics("jump", "r[{rs1}]"),
    "jalr": Semantics("jump", "r[{rs1}]", link="{rd}"),
}

#: the effective address of every load/store
ADDRESS = "(r[{rs1}] + {imm}) & {M}"


def semantics(instr: Instruction) -> Semantics:
    """The table entry for ``instr`` (the oracle's error when missing)."""
    try:
        return SEMANTICS[instr.mnemonic]
    except KeyError:
        raise SimulationError(
            f"no semantics for mnemonic {instr.mnemonic!r}") from None


#: every operand placeholder a template can use, as an expression over
#: the instruction ``i`` (operand fields a format lacks are ``None``);
#: ``{link}`` (the return address) depends on the instruction's address
#: and is supplied by the caller
OPERANDS = {"rd": "i.rd or 0", "rs1": "i.rs1 or 0", "rs2": "i.rs2 or 0",
            "imm": "i.imm or 0", "uimm": "(i.imm or 0) & {M}",
            "sh": "(i.imm or 0) & 31", "hi": "((i.imm or 0) << 16) & {M}",
            "sbias": "(i.imm or 0) + {S}"}


def _operand_reader():
    items = ", ".join(f"{key!r}: {expr.format_map(CONSTANTS)}"
                      for key, expr in OPERANDS.items())
    namespace: dict = {}
    exec(f"def operands(i):\n    return {{{items}}}\n", namespace)
    return namespace["operands"]


#: ``operands(instr)``: the value of every :data:`OPERANDS` placeholder
#: for one instruction, as a dict
operands: Callable[[Instruction], Dict[str, int]] = _operand_reader()


def writes_rd(sem: Semantics, instr: Instruction) -> bool:
    """Whether the template's ``r[{rd}]`` write survives the r0 rule."""
    return bool(instr.rd) and (sem.kind in ("op", "load") or
                               sem.link == "{rd}")


def link_register(sem: Semantics, writes: bool) -> str:
    """The jump's link-register template, ``""`` when compiled out."""
    return sem.link if sem.link != "{rd}" or writes else ""


# -- step handlers -----------------------------------------------------------

class _Names(dict):
    """Formats a template with placeholder *names*, recording which."""

    def __init__(self) -> None:
        super().__init__(CONSTANTS, link="(pc + 4) & " + CONSTANTS["M"])
        self.used = []

    def __missing__(self, key: str) -> str:
        if key not in self.used:
            self.used.append(key)
        return key


def _step_body(sem: Semantics, writes: bool, names: dict) -> str:
    """The step handler's body for one mnemonic (r0 rule applied)."""
    if sem.kind == "op":
        return sem.code.format_map(names)
    if sem.kind == "load":
        access = ("memory.load(" + ADDRESS.format_map(names)
                  + f", {sem.size}, {sem.signed})")
        return ("r[{rd}] = ".format_map(names) if writes else "") + access
    if sem.kind == "store":
        return ("memory.store(" + ADDRESS.format_map(names)
                + ", r[{rs2}], ".format_map(names) + f"{sem.size})")
    if sem.kind == "branch":
        return ("return {uimm} if ".format_map(names)
                + sem.code.format_map(names) + " else None")
    if sem.kind == "jump":
        target = sem.code.format_map(names)
        link = link_register(sem, writes)
        if not link:
            return "return " + target
        # the target is read before the link write (jalr rd == rs1)
        return (f"x = {target}\n"
                f"r[{link.format_map(names)}] = {names['link']}\n"
                "return x")
    return f"return {HALT}"


def _factory_source(name: str, sem: Semantics, writes: bool) -> str:
    """A factory taking the instruction and binding the operands its
    template uses as the handler's default arguments."""
    names = _Names()
    body = _step_body(sem, writes, names)
    defaults = "".join(f", {p}={OPERANDS[p].format_map(CONSTANTS)}"
                       for p in names.used)
    lines = [f"def {name}(i):",
             f"    def run(r, memory, pc{defaults}):"]
    lines.extend("        " + line for line in body.splitlines())
    lines.append("    return run")
    return "\n".join(lines)


#: (semantics, writes rd) -> handler factory
_FACTORIES: Dict[Tuple[Semantics, bool], Callable[[Instruction], Handler]] = {}


def _build_factories(variants) -> None:
    """Generate the step-handler factories of ``variants`` in one exec."""
    sources, names = [], []
    for index, (sem, writes) in enumerate(variants):
        name = f"_factory{index}"
        sources.append(_factory_source(name, sem, writes))
        names.append(name)
    namespace: dict = {}
    exec(compile("\n\n".join(sources) + "\n", "<step-factories>", "exec"),
         namespace)
    for variant, name in zip(variants, names):
        _FACTORIES[variant] = namespace[name]


def _variants(sem: Semantics):
    """The (sem, writes) pairs that need a factory (r0 ops need none)."""
    if sem.kind == "op":
        return [(sem, True)] if sem.code else []
    if sem.kind == "load" or sem.link == "{rd}":
        return [(sem, True), (sem, False)]
    return [(sem, False)]


_build_factories([v for sem in dict.fromkeys(SEMANTICS.values())
                  for v in _variants(sem)])


def _run_nop(regs, memory, pc):
    return None


def compile_step(instr: Instruction) -> Handler:
    """Compile one instruction into its specialized step handler."""
    sem = semantics(instr)
    writes = writes_rd(sem, instr)
    if sem.kind == "op" and not (writes and sem.code):
        return _run_nop
    factory = _FACTORIES.get((sem, writes))
    if factory is None:
        # a table entry replaced at run time (e.g. a planted bug in a
        # differential test) gets its factory on first use
        _build_factories([(sem, writes)])
        factory = _FACTORIES[(sem, writes)]
    return factory(instr)


#: vanilla interpreter step:
#: (handler, cycles_not_taken, cycles_taken, is_store, instruction).
#: ``is_store`` gates the MMIO-exit poll: only a store can set the exit
#: register, so every other step skips the device read entirely.
Step = Tuple[Handler, int, int, bool, Instruction]


def predecode(instr: Instruction, timing: TimingParams) -> Step:
    """Compile an instruction and precompute both cycle costs."""
    seq, taken = cycle_costs(instr, timing)
    return (compile_step(instr), seq, taken, instr.spec.is_store, instr)


#: step kinds for the SOFIA inner loop: what a committed step can do
#: beyond writing registers/RAM.  INERT handlers provably return ``None``
#: and cannot end the block, so the fast (hook-less) loop skips every
#: post-commit check for them.
KIND_INERT = 0   # ALU / load / nop: no control effect, cannot set exit
KIND_STORE = 1   # may write the MMIO exit register
KIND_CTI = 2     # ends the block: branch / jump / call / indirect
KIND_HALT = 3    # handler returns HALT

#: SOFIA interpreter step, one per payload slot:
#: (handler, cycles_not_taken, cycles_taken, kind, address, instruction)
BlockStep = Tuple[Handler, int, int, int, int, Instruction]


def step_kind(instr: Instruction) -> int:
    spec = instr.spec
    if spec.is_cti:
        return KIND_CTI
    if spec.is_store:
        return KIND_STORE
    if spec.is_halt:
        return KIND_HALT
    return KIND_INERT


def predecode_payload(payload, timing: TimingParams) -> Tuple[BlockStep, ...]:
    """Compile a verified block's payload into handler steps.

    ``payload`` is the :class:`~repro.sim.sofia._VerifiedBlock` payload:
    ``(instr, address, slot)`` triples in fetch order.
    """
    steps = []
    for instr, address, _slot in payload:
        seq, taken = cycle_costs(instr, timing)
        steps.append((compile_step(instr), seq, taken,
                      step_kind(instr), address, instr))
    return tuple(steps)


#: one fetch "run": consecutive block words on the same I-cache line,
#: as (line_index, line_tag, word_count)
FetchRun = Tuple[int, int, int]


def compile_fetch_runs(addresses, line_shift: int, lines_mask: int,
                       lines_shift: int) -> Tuple[FetchRun, ...]:
    """Group a block's fetch addresses into same-cache-line runs.

    Touching one line ``count`` times in a row behaves exactly like one
    tag check: the first access decides hit-or-fill, the rest must hit.
    Collapsing the per-word loop into per-run checks therefore preserves
    bit-identical hit/miss statistics and miss penalties while doing one
    tag comparison per line instead of one per word (a block usually
    occupies a single line).
    """
    runs = []
    prev_line = None
    for address in addresses:
        line = address >> line_shift
        if line == prev_line:
            runs[-1][2] += 1
        else:
            runs.append([line & lines_mask, line >> lines_shift, 1])
            prev_line = line
    return tuple(tuple(run) for run in runs)
