"""Process-parallel experiment runner.

Design-space sweeps are embarrassingly parallel across spec points --
each (app, network, scenario) run is an independent deterministic
simulation -- so the runner fans uncached specs out over a
``ProcessPoolExecutor`` and the result store turns repeated figure
requests into hits.

Flow for a batch::

    specs -> dedupe by content hash
          -> probe the store          (hits)
          -> execute misses in a pool (or inline when jobs=1)
          -> persist each result as it lands
          -> return results aligned with the input order

Workers receive the spec *value* (specs are plain frozen dataclasses)
and return the result; all store writes happen in the parent, so there
is exactly one writer per entry.  Trace generation is deterministic in
the spec's seed, which makes parallel output byte-identical to serial
output -- ``tests/experiments/test_runner.py`` locks this in.

Progress and per-run timing stream to stderr through
:mod:`repro.log` (suppress with ``--quiet`` / ``REPRO_LOG=warning``)::

    [repro.runner] 3/8 barnes@atac+/w16 elapsed_s=12.4
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro import env_flag
from repro.experiments.store import ResultStore, cache_enabled
from repro.log import get_logger

_logger = get_logger("runner")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env override, else every core."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _timed_execute(spec):
    """Pool entry point: run one spec, returning (result, elapsed_s)."""
    t0 = time.perf_counter()
    result = spec.execute()
    return result, time.perf_counter() - t0


def _bypass_cache_on_load(spec) -> bool:
    """Whether executing ``spec`` attaches the sanitizer or telemetry.

    Both leave the simulation byte-identical, so such specs share the
    plain content hash, and a cache hit would silently skip the
    checking or the artifacts the caller asked for: the cache is
    bypassed on load (saving the result afterwards is still fine).
    Spec kinds without these fields (``LoadPointSpec``) never bypass.
    """
    return any(
        hasattr(spec, field) and (getattr(spec, field) or env_flag(var))
        for field, var in (
            ("sanitize", "REPRO_SANITIZE"), ("telemetry", "REPRO_TELEMETRY"),
        )
    )


@dataclass
class RunnerReport:
    """Accounting for one :meth:`Runner.run` call."""

    hits: int = 0
    misses: int = 0
    elapsed_s: float = 0.0
    jobs: int = 1
    #: content hash -> per-run wall-clock seconds (executed specs only)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.hits + self.misses


class Runner:
    """Executes batches of specs with caching and process parallelism.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means :func:`default_jobs`.  ``1``
        executes inline (no pool, no pickling) -- the reference path
        the determinism tests compare against.
    store:
        Result store; ``None`` uses the default cache directory.
        Ignored entirely when ``REPRO_CACHE=0``.
    progress:
        Stream per-run progress lines to stderr.
    """

    def __init__(
        self,
        jobs: int | None = None,
        store: ResultStore | None = None,
        progress: bool = True,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store if store is not None else ResultStore()
        self.progress = progress
        self.last_report: RunnerReport | None = None

    # ------------------------------------------------------------------
    def run_one(self, spec):
        """Convenience wrapper: one spec, inline execution."""
        return self.run([spec])[0]

    def run(self, specs) -> list:
        """Execute ``specs``; returns results aligned with the input.

        Duplicate specs (same content hash) execute once and share the
        result object.
        """
        specs = list(specs)
        t_start = time.perf_counter()
        report = RunnerReport(jobs=self.jobs or default_jobs())

        # Dedupe while preserving first-seen order.
        order: list[str] = []
        unique: dict[str, object] = {}
        for spec in specs:
            h = spec.content_hash()
            if h not in unique:
                unique[h] = spec
                order.append(h)

        results: dict[str, object] = {}
        use_cache = cache_enabled()
        misses: list[str] = []
        for h in order:
            cached = (
                self.store.load(unique[h])
                if use_cache and not _bypass_cache_on_load(unique[h])
                else None
            )
            if cached is not None:
                results[h] = cached
                report.hits += 1
            else:
                misses.append(h)
        report.misses = len(misses)

        jobs = min(report.jobs, len(misses)) if misses else 1
        if misses:
            if jobs <= 1:
                self._run_serial(unique, misses, results, report)
            else:
                self._run_parallel(unique, misses, results, report, jobs)

        report.elapsed_s = time.perf_counter() - t_start
        self.last_report = report
        if self.progress and report.total:
            _logger.info(
                f"{report.total} spec(s): {report.hits} cached, "
                f"{report.misses} executed on {jobs} worker(s)",
                elapsed_s=report.elapsed_s,
            )
        return [results[spec.content_hash()] for spec in specs]

    # ------------------------------------------------------------------
    def _run_serial(self, unique, misses, results, report) -> None:
        for i, h in enumerate(misses, 1):
            spec = unique[h]
            result, elapsed = _timed_execute(spec)
            self._complete(spec, h, result, elapsed, results, report)
            self._log(f"{i}/{len(misses)} {spec.label()}", elapsed_s=elapsed)

    def _run_parallel(self, unique, misses, results, report, jobs) -> None:
        done_count = 0
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_timed_execute, unique[h]): h for h in misses}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    h = futures[fut]
                    spec = unique[h]
                    result, elapsed = fut.result()
                    self._complete(spec, h, result, elapsed, results, report)
                    done_count += 1
                    self._log(
                        f"{done_count}/{len(misses)} {spec.label()}",
                        elapsed_s=elapsed,
                    )

    def _complete(self, spec, h, result, elapsed, results, report) -> None:
        results[h] = result
        report.timings[h] = elapsed
        if cache_enabled():
            self.store.save(spec, result, elapsed_s=elapsed)

    def _log(self, message: str, **fields) -> None:
        if self.progress:
            _logger.info(message, **fields)


def run_specs(specs, jobs: int | None = None, progress: bool = True) -> list:
    """Module-level convenience: run a batch with a fresh Runner."""
    return Runner(jobs=jobs, progress=progress).run(specs)
