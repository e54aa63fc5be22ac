"""The mutation-based coverage-guided search loop.

One iteration is one derived-RNG draw: either a fresh sample from the
generator's distributions or a structural mutation of a corpus entry,
evaluated through :func:`repro.fuzz.evaluate.evaluate_spec`.  A spec
earns a corpus slot when its trace exhibits a coverage signature never
seen before; a spec whose evaluation fails the oracle (invariant
violation, exception, deadlock) is delta-debugged to a minimal repro and
persisted under ``failures/``.

Determinism and resume share one mechanism: iteration ``i`` always runs
under ``Random(derive_seed(master_seed, f"fuzz:iter:{i}"))``, and the
corpus directory records how many iterations are done.  Resuming with
the same master seed therefore continues the *identical* trajectory the
un-interrupted session would have taken — and two sessions with the same
seed and budget write byte-identical corpora (wall time never enters any
persisted file; it only gates when a ``--time-budget`` session stops).
"""

from __future__ import annotations

import time
from random import Random
from typing import Callable, Optional

from repro.fuzz.corpus import Corpus
from repro.fuzz.evaluate import evaluate_spec, failure_id
from repro.fuzz.generator import ScenarioGenerator
from repro.fuzz.shrink import shrink_report, shrink_spec
from repro.inputs import InputError
from repro.runner.spec import RunSpec
from repro.sim.rng import derive_seed
from repro.telemetry.analysis import fuzz_report

#: iteration budget when the caller names neither iterations nor wall time
DEFAULT_ITERATIONS = 25

#: probability an iteration samples fresh instead of mutating the corpus
P_FRESH = 0.3

Log = Callable[[str], None]


def seed_specs() -> list:
    """The seed corpus: the default worksite, no attacks, no faults.

    Both defence profiles run so the map starts with the system's normal
    behavioural baseline; everything the search discovers beyond these
    signatures is new behaviour (the acceptance bar counts exactly this).
    """
    return [
        RunSpec(seed=42, horizon_s=90.0, profile="defended"),
        RunSpec(seed=42, horizon_s=90.0, profile="undefended"),
    ]


class FuzzSession:
    """One fuzzing session over a (possibly pre-existing) corpus directory."""

    def __init__(
        self,
        corpus_dir,
        seed: int,
        *,
        log: Optional[Log] = None,
        monitor=None,
        status_path=None,
    ) -> None:
        self.corpus = Corpus(corpus_dir)
        self.seed = int(seed)
        self.generator = ScenarioGenerator()
        self.log: Log = log or (lambda message: None)
        # opt-in progress plane (a SweepMonitor): status.json carries
        # wall-clock content, so the CLI wires it up explicitly and the
        # byte-identical-corpus contract stays about the corpus tree only
        self.monitor = monitor
        self.status_path = status_path

    # -- lifecycle ----------------------------------------------------------
    def start(self, *, resume: bool = False) -> None:
        """Initialise a fresh corpus, or reload one for ``--resume``."""
        if self.corpus.exists():
            if not resume:
                raise FileExistsError(
                    f"corpus directory {self.corpus.root} already holds a "
                    "session; pass --resume to continue it"
                )
            self.corpus.load()
            if self.corpus.state.get("seed") != self.seed:
                raise InputError(
                    f"corpus at {self.corpus.root} was built with seed "
                    f"{self.corpus.state.get('seed')}, not {self.seed}; "
                    "resuming under a different seed would fork the trajectory"
                )
            self.log(
                f"resumed corpus: {len(self.corpus.entries)} entries, "
                f"{len(self.corpus.coverage)} signatures, "
                f"{self.corpus.state['iterations_done']} iterations done"
            )
            return
        self.corpus.state["seed"] = self.seed
        for j, spec in enumerate(seed_specs()):
            origin = f"seed:{j}"
            result = evaluate_spec(spec)
            new = self.corpus.coverage.observe(result["signatures"], origin)
            self.corpus.add_entry(spec, origin, new)
        self.corpus.state["seed_signatures"] = len(self.corpus.coverage)
        self.log(
            f"seed corpus: {len(self.corpus.entries)} specs, "
            f"{len(self.corpus.coverage)} baseline signatures"
        )

    # -- the loop -----------------------------------------------------------
    def run(
        self,
        iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> dict:
        """Run until the iteration or wall-time budget is spent.

        Returns the risk-heatmap report (also persisted as
        ``report.json``).  With only a time budget the stopping point —
        but nothing about any completed iteration — depends on the wall
        clock.
        """
        if iterations is None and time_budget_s is None:
            iterations = DEFAULT_ITERATIONS
        started = time.monotonic()
        done = 0
        self._progress_event(
            "sweep_started", total=iterations or 0, jobs=1, kind="fuzz",
        )
        while True:
            if iterations is not None and done >= iterations:
                break
            if (time_budget_s is not None
                    and time.monotonic() - started >= time_budget_s):
                break
            index = self.corpus.state["iterations_done"]
            self._progress_event(
                "cell_started", key=f"iter:{index}", label=f"iter {index}",
            )
            iter_started = time.monotonic()
            self._iterate(index)
            self.corpus.state["iterations_done"] = index + 1
            done += 1
            self._progress_event(
                "cell_finished", key=f"iter:{index}", status="ok",
                cached=False,
                wall_s=round(time.monotonic() - iter_started, 3),
            )
        self.corpus.save()
        report = self.build_report()
        self.corpus.write_report(report)
        self._write_status()
        return report

    def _progress_event(self, name: str, **fields) -> None:
        if self.monitor is None:
            return
        fields["event"] = name
        fields.setdefault("t", time.monotonic())
        self.monitor.on_event(fields)
        self._write_status()

    def _write_status(self) -> None:
        if self.monitor is not None and self.status_path is not None:
            self.monitor.write_status(self.status_path)

    def _iterate(self, index: int) -> None:
        rng = Random(derive_seed(self.seed, f"fuzz:iter:{index}"))
        origin = f"iter:{index}"
        specs = self.corpus.specs()
        if not specs or rng.random() < P_FRESH:
            spec, how = self.generator.sample(rng), "sample"
        else:
            spec, how = self.generator.mutate(rng, rng.choice(specs)), "mutate"
        result = evaluate_spec(spec)
        new = self.corpus.coverage.observe(result["signatures"], origin)
        if new:
            self.corpus.add_entry(spec, origin, new)
            self.log(
                f"[{index}] {how} {spec.key} ({spec.campaign}): "
                f"+{len(new)} signature(s): {', '.join(new[:4])}"
                + (" ..." if len(new) > 4 else "")
            )
        invariants = result.get("invariants") or {}
        failure = failure_id(result)
        if failure is not None:
            self.corpus.state["failures"] += 1
            self.log(f"[{index}] FAILURE {spec.key}: {failure}; shrinking")
            # shrink re-evaluates the original itself, so a flaky failure
            # that does not reproduce is caught (and counted) here
            shrunk = shrink_spec(spec)
            report = shrink_report(spec, result, shrunk)
            if (not shrunk["reproduced"]
                    or failure_id(shrunk["result"]) != failure):
                self.corpus.state["unshrinkable"] += 1
                report["unshrinkable"] = True
                self.log(f"[{index}] UNSHRINKABLE {spec.key}: "
                         "failure did not reproduce under shrink")
            else:
                self.log(
                    f"[{index}] shrunk {spec.key} -> {shrunk['spec'].key} "
                    f"in {shrunk['steps']} step(s), {shrunk['evals']} eval(s)"
                )
            self.corpus.add_failure(origin, spec.key, report)
        self.corpus.record_cell(
            spec,
            new_signatures=len(new),
            violations=invariants.get("violations", 0),
            failed=failure is not None,
        )

    # -- reporting ----------------------------------------------------------
    def build_report(self) -> dict:
        state = self.corpus.state
        totals = {
            "seed": self.seed,
            "iterations": state["iterations_done"],
            "corpus_entries": len(self.corpus.entries),
            "signatures": len(self.corpus.coverage),
            "seed_signatures": state["seed_signatures"],
            "new_beyond_seed": (
                len(self.corpus.coverage) - state["seed_signatures"]
            ),
            "failures": state["failures"],
            "unshrinkable": state["unshrinkable"],
        }
        return fuzz_report(
            self.corpus.coverage.to_dict(), state["heatmap"], totals
        )


def run_fuzz(
    corpus_dir,
    seed: int,
    *,
    iterations: Optional[int] = None,
    time_budget_s: Optional[float] = None,
    resume: bool = False,
    log: Optional[Log] = None,
    monitor=None,
    status_path=None,
) -> dict:
    """Convenience wrapper: start (or resume) a session and run its budget."""
    session = FuzzSession(
        corpus_dir, seed, log=log, monitor=monitor, status_path=status_path,
    )
    session.start(resume=resume)
    return session.run(iterations=iterations, time_budget_s=time_budget_s)
