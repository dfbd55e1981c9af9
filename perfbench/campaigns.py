"""The benchmark's three workloads, driven through public campaign APIs.

``fuzz`` and ``overhead`` take ``--seed`` as the device key seed: every
image is sealed and decrypted under keys derived from it, while the
campaign's own seed (the fuzz schedule, the C kernels) stays at the
repository default.  Their work does not depend on the keys (the traced
counts are identical across key seeds), so runs on different seeds are
comparable, and their exports carry no key material, so one pinned
digest checks every seed.

``attacksynth`` runs the repository's default campaign on every seed.
Its work depends chaotically on both the victims and the keys: an attack
that takes a sealed edge at the wrong time can run on to the
200,000-instruction budget while loading ciphertext and storing into code
(which drops every front-end memo), about 18 s per such instance on a
2-core x86-64 host.  Over five key seeds the 20-program campaign took
1.7 s to 48.7 s, so any seed-dependent input would measure the attack
mix, not the code.

Every campaign runs serially (``--jobs 1``) on the default engine.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.attacksynth import DEFAULT_SEED as SYNTH_SEED
from repro.attacksynth import run_attacksynth
from repro.crypto import DeviceKeys
from repro.errors import ReproError
from repro.eval.export import overhead_csv
from repro.eval.overhead import OverheadPoint, measure_many
from repro.fuzz import run_fuzz
from repro.fuzz.generators import generate, random_genome
from repro.fuzz.oracle import build_program
from repro.isa.assembler import assemble
from repro.runner import DEFAULT_KEY_SEED, clear_build_cache, task_rng
from repro.runner.export import to_jsonable, write_campaign
from repro.sim.sofia import SofiaMachine
from repro.sim.vanilla import VanillaMachine
from repro.transform.profile import DEFAULT_PROFILE
from repro.transform.transformer import transform
from repro.workloads import workload_names

#: attacksynth victims: the ROADMAP's ``attacksynth --programs 20``
SYNTH_PROGRAMS = 20
#: fuzz campaign size and schedule seed (``run_fuzz``'s default seed)
FUZZ_SPECIMENS = 200
FUZZ_SEED = 0x5EED
#: the eight C kernels at the scale whose loops dominate wall time
OVERHEAD_SCALE = "medium"
#: the ADPCM cycle overhead the paper states (§IV-B), printed beside the
#: suite's
PAPER_ADPCM_OVERHEAD = 0.137


@dataclass
class Outcome:
    """What one timed campaign call produced, checked."""

    ok: bool
    attempted: int
    failed: int
    export: Optional[Path]
    #: protected images the call built (one ``transform`` each)
    builds: int = 0
    detail: str = ""


def _fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _victim_overhead(genomes, keys: DeviceKeys) -> float:
    """SOFIA over vanilla simulated cycles of clean runs, minus 1."""
    sofia = vanilla = 0
    for genome in genomes:
        program = build_program(generate(genome))
        image = transform(program, keys, nonce=genome.nonce,
                          profile=DEFAULT_PROFILE.with_block_words(
                              genome.block_words))
        vanilla += VanillaMachine(assemble(program)).run().cycles
        sofia += SofiaMachine(image, keys).run().cycles
    return sofia / vanilla - 1.0


class Workload:
    """One named campaign: set up, timed call, check, simulated cost."""

    name = ""
    default_seed = DEFAULT_KEY_SEED
    #: sha256 of the campaign's JSON export, the same on every seed
    pinned_digest = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    @property
    def key_seed(self) -> int:
        return self.seed

    def setup(self) -> None:
        """Build the inputs of the timed call (part of ``setup_s``)."""

    def prepare(self) -> None:
        """Untimed per-call reset (fresh export directory)."""
        _fresh(self.workdir)

    def call(self) -> Any:
        """The timed campaign call, exports included."""
        raise NotImplementedError

    def check(self, report: Any) -> Outcome:
        raise NotImplementedError

    def cycle_overhead(self, report: Any) -> float:
        raise NotImplementedError

    def verify(self, report: Any) -> Outcome:
        """The campaign's verdict, plus the pinned export digest; a failed
        check counts every item as failed."""
        outcome = self.check(report)
        if outcome.ok:
            digest = hashlib.sha256(outcome.export.read_bytes()).hexdigest()
            if digest != self.pinned_digest:
                outcome.ok = False
                outcome.detail = (f"export digest {digest} != pinned "
                                  f"{self.pinned_digest}")
        if not outcome.ok:
            outcome.failed = outcome.attempted
        return outcome


class AttackSynth(Workload):
    name = "attacksynth"
    pinned_digest = ("0b61defe04839a2641339652b9bd9158"
                     "c665f9d1ccc744b519c42593ab9f1718")

    @property
    def key_seed(self) -> int:
        return DEFAULT_KEY_SEED

    def setup(self) -> None:
        self.profile = DEFAULT_PROFILE
        self.keys = DeviceKeys.from_seed(self.key_seed).for_profile(
            self.profile)

    def call(self):
        return run_attacksynth(
            SYNTH_PROGRAMS, seed=SYNTH_SEED, key_seed=self.key_seed,
            profile=self.profile,
            export_path=str(self.workdir / "attacksynth.json"),
            csv_path=str(self.workdir / "attacksynth.csv"))

    def check(self, report) -> Outcome:
        anomalies = (len(report.missed) + len(report.benign_anomalies)
                     + len(report.edge_anomalies)
                     + len(report.plain_anomalies))
        build = len(report.build_errors)
        ok = (report.ok and report.complete
              and len(report.programs) == SYNTH_PROGRAMS
              and report.instances > 0)
        return Outcome(ok, report.instances + build, anomalies + build,
                       self.workdir / "attacksynth.json",
                       len(report.programs), "" if ok else report.render())

    def cycle_overhead(self, report) -> float:
        """Over the victims, regenerated as the campaign draws them and
        checked against its program labels."""
        genomes = [random_genome(task_rng(SYNTH_SEED, "attacksynth-gen",
                                          index))
                   for index in range(SYNTH_PROGRAMS)]
        for program, genome in zip(report.programs, genomes):
            tag = f"{genome.shape}/s{genome.seed:x}/bw{genome.block_words}"
            if not program.label.endswith(tag):
                raise ReproError(f"victim {program.label} is not the "
                                 f"regenerated genome {tag}")
        return _victim_overhead(genomes, self.keys)


class Fuzz(Workload):
    name = "fuzz"
    pinned_digest = ("fbc1da995460a427c06cad7c17b5a345"
                     "fb95b303e801edeb0a22b5828fcebbdd")

    def call(self):
        return run_fuzz(FUZZ_SPECIMENS, seed=FUZZ_SEED,
                        key_seed=self.key_seed,
                        corpus_dir=str(self.workdir / "corpus"))

    def check(self, report) -> Outcome:
        ok = (report.divergences == 0 and not report.pending
              and report.specimens == FUZZ_SPECIMENS)
        return Outcome(ok, report.specimens, len(report.failures),
                       self.workdir / "corpus" / "report.json",
                       report.specimens, "" if ok else report.render())

    def cycle_overhead(self, report) -> float:
        """Over the specimens the campaign kept in its corpus."""
        return _victim_overhead(report.corpus.genomes(),
                                DeviceKeys.from_seed(self.key_seed))


class Overhead(Workload):
    name = "overhead"
    pinned_digest = ("687fb6c2876e4ab1a5963a743e387c32"
                     "ed77ec2b2a1986bb19b6b41f0453d044")

    def setup(self) -> None:
        self.points = [OverheadPoint(workload=name, scale=OVERHEAD_SCALE,
                                     key_seed=self.key_seed)
                       for name in workload_names()]

    def prepare(self) -> None:
        super().prepare()
        # every call builds its images, as a fresh process would
        clear_build_cache()

    def call(self):
        rows = measure_many(self.points)
        overhead_csv(rows, str(self.workdir / "overhead.csv"))
        write_campaign(self.workdir / "overhead.json",
                       {"campaign": "overhead", "scale": OVERHEAD_SCALE,
                        "rows": to_jsonable(rows)})
        return rows

    def check(self, rows) -> Outcome:
        # measure_many raises unless both cores print every kernel's
        # expected_output, so a returned row is a passed kernel
        ok = [row.workload for row in rows] == workload_names()
        return Outcome(ok, len(self.points), len(self.points) - len(rows),
                       self.workdir / "overhead.json", len(rows))

    def cycle_overhead(self, rows) -> float:
        return (sum(row.sofia_cycles for row in rows)
                / sum(row.vanilla_cycles for row in rows) - 1.0)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload for workload in (AttackSynth, Fuzz, Overhead)}
