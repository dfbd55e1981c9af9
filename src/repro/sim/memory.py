"""Simulated memory system: program memory, data RAM, MMIO devices.

The memory map follows :mod:`repro.isa.program`: code at ``CODE_BASE``
(word-granular, backing either a plaintext executable or an encrypted SOFIA
image), a 1 MiB data RAM from ``DATA_BASE`` up to ``STACK_TOP`` (the stack
grows down from the top), and a small MMIO window at ``MMIO_BASE`` for
console/exit devices (bare-metal programs have no OS to call into).

Writes to the code region are allowed — that is exactly what a code
injection attack does — and notify registered listeners so the SOFIA
machine can invalidate its decrypt/verify caches, mirroring hardware where
every fetch re-decrypts and re-verifies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import SimulationError
from ..isa.program import (CODE_BASE, DATA_BASE, MMIO_ACTUATOR, MMIO_BASE,
                           MMIO_EXIT, MMIO_PUTCHAR, MMIO_PUTINT,
                           MMIO_PUTWORD, STACK_TOP)

MASK32 = 0xFFFFFFFF


@dataclass
class MMIODevice:
    """Console + exit device at the top of the address space."""

    chars: List[str] = field(default_factory=list)
    ints: List[int] = field(default_factory=list)
    words: List[int] = field(default_factory=list)
    actuator: List[int] = field(default_factory=list)
    exit_code: Optional[int] = None

    @property
    def exit_requested(self) -> bool:
        return self.exit_code is not None

    def text(self) -> str:
        return "".join(self.chars)

    def store(self, address: int, value: int) -> None:
        value &= MASK32
        if address == MMIO_PUTCHAR:
            self.chars.append(chr(value & 0xFF))
        elif address == MMIO_PUTINT:
            signed = value - 0x100000000 if value & 0x80000000 else value
            self.ints.append(signed)
        elif address == MMIO_EXIT:
            self.exit_code = value
        elif address == MMIO_PUTWORD:
            self.words.append(value)
        elif address == MMIO_ACTUATOR:
            self.actuator.append(value)
        else:
            raise SimulationError(f"store to unmapped MMIO 0x{address:08x}")

    def load(self, address: int) -> int:
        raise SimulationError(f"load from write-only MMIO 0x{address:08x}")


class Memory:
    """Byte-addressable memory with a word-granular code region."""

    def __init__(self, code_words: List[int], code_base: int = CODE_BASE,
                 data: bytes = b"", data_base: int = DATA_BASE,
                 data_limit: int = STACK_TOP,
                 mmio: Optional[MMIODevice] = None) -> None:
        self.code = list(code_words)
        self.code_base = code_base
        self.data_base = data_base
        self.data_limit = data_limit
        self.ram = bytearray(data_limit - data_base)
        self.ram[:len(data)] = data
        self.mmio = mmio if mmio is not None else MMIODevice()
        self._code_listeners: List[Callable[[], Optional[Callable]]] = []
        # the code region never grows or shrinks (poke_code writes in
        # place), so its limit is a plain attribute, not a recomputation
        self.code_limit = code_base + 4 * len(self.code)
        # the load/store fast path may only claim an address when the RAM
        # window cannot shadow the code region or MMIO; otherwise disable
        # it (impossible range) and let the canonical region checks decide
        if self.code_limit <= data_base and data_limit <= MMIO_BASE:
            self._ram_size = len(self.ram)
        else:
            self._ram_size = -1

    # -- code region -----------------------------------------------------

    def in_code(self, address: int) -> bool:
        return self.code_base <= address < self.code_limit

    def add_code_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the address of any code write.

        A bound method is held weakly: machines register their own
        methods, and a strong reference would make machine → memory →
        listener → machine a cycle that only the cyclic garbage collector
        frees, keeping every dead machine's RAM and compiled code alive
        until a full collection.  Other callables are held strongly.
        """
        try:
            ref = weakref.WeakMethod(listener)
        except TypeError:   # not a bound method of a weakly referenceable
            ref = lambda: listener  # noqa: E731
        self._code_listeners.append(ref)

    def fetch_word(self, address: int) -> int:
        """Instruction fetch (no MMIO, code region only)."""
        if address % 4:
            raise SimulationError(f"misaligned fetch at 0x{address:08x}")
        if not self.in_code(address):
            raise SimulationError(f"fetch outside code at 0x{address:08x}")
        return self.code[(address - self.code_base) >> 2]

    def poke_code(self, address: int, word: int) -> None:
        """Write a code word (the attack surface; notifies listeners)."""
        if address % 4:
            raise SimulationError(f"misaligned code write 0x{address:08x}")
        if not self.in_code(address):
            raise SimulationError(f"code write outside text 0x{address:08x}")
        self.code[(address - self.code_base) >> 2] = word & MASK32
        for ref in self._code_listeners:
            listener = ref()
            if listener is not None:
                listener(address)

    # -- data loads/stores -------------------------------------------------

    def _ram_offset(self, address: int, size: int) -> int:
        offset = address - self.data_base
        if not 0 <= offset <= len(self.ram) - size:
            raise SimulationError(f"bus error at 0x{address:08x}")
        return offset

    def load(self, address: int, size: int, signed: bool) -> int:
        if address % size:
            raise SimulationError(f"misaligned load at 0x{address:08x}")
        # fast path: an aligned access inside data RAM (the overwhelmingly
        # common case); everything else falls through to the region checks
        # with their original error behaviour
        offset = address - self.data_base
        if 0 <= offset <= self._ram_size - size:
            raw = int.from_bytes(self.ram[offset:offset + size], "big")
            if signed:
                sign_bit = 1 << (8 * size - 1)
                if raw & sign_bit:
                    raw -= 1 << (8 * size)
            return raw & MASK32
        if address >= MMIO_BASE:
            return self.mmio.load(address)
        if self.in_code(address):
            if size != 4:
                raise SimulationError(
                    f"sub-word load from code at 0x{address:08x}")
            return self.code[(address - self.code_base) >> 2]
        offset = self._ram_offset(address, size)
        raw = int.from_bytes(self.ram[offset:offset + size], "big")
        if signed:
            sign_bit = 1 << (8 * size - 1)
            if raw & sign_bit:
                raw -= 1 << (8 * size)
        return raw & MASK32

    def store(self, address: int, value: int, size: int) -> None:
        if address % size:
            raise SimulationError(f"misaligned store at 0x{address:08x}")
        offset = address - self.data_base
        if 0 <= offset <= self._ram_size - size:
            self.ram[offset:offset + size] = (
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big"))
            return
        if address >= MMIO_BASE:
            if size != 4:
                raise SimulationError("MMIO stores must be word sized")
            self.mmio.store(address, value)
            return
        if self.in_code(address):
            if size != 4:
                raise SimulationError(
                    f"sub-word store to code at 0x{address:08x}")
            self.poke_code(address, value)
            return
        offset = self._ram_offset(address, size)
        self.ram[offset:offset + size] = (
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big"))

    # -- test/debug helpers -------------------------------------------------

    def read_data_word(self, address: int) -> int:
        return self.load(address, 4, signed=False) & MASK32

    def write_data_word(self, address: int, value: int) -> None:
        self.store(address, value, 4)
