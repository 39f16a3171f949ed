"""The GDSII-Guard parameter-space explorer (Fig. 2's outer loop).

Wraps the :class:`~repro.core.flow.GDSIIGuard` flow in an NSGA-II search
over the Table-I space: chromosomes are :class:`FlowConfig` vectors, the
objectives are ``(Security(L_opt), −TNS(L_opt))`` (both minimized), and
the DRC/power limits enter as Deb-style constraint violations.

Evaluation supports process-level parallelism via a supervised worker
pool (:mod:`repro.resilience.supervisor` — per-evaluation timeouts,
crash isolation, bounded retry, degradation to serial) and memoizes
configurations so the GA never pays for a duplicate chromosome.

Long campaigns are crash-safe: give the explorer a ``checkpoint_dir``
and every generation boundary atomically persists the full loop state
(population, history, RNG stream, evaluation cache, counters); with
``resume=True`` a restarted run continues mid-campaign and produces a
final Pareto front bitwise identical to the uninterrupted run.  The
protocol itself — checkpoint, progress, interrupt and cancel at each
boundary — is :class:`~repro.resilience.run.ResumableRun`'s; see
:mod:`repro.resilience.checkpoint` for the determinism argument.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.flow import FlowResult, GDSIIGuard
from repro.core.params import FlowConfig, ParameterSpace
from repro.optimize.nsga2 import (
    Individual,
    NSGA2Config,
    fast_non_dominated_sort,
    nsga2_select,
    tournament,
)
from repro.resilience.checkpoint import ExplorationCheckpoint, encode_front
from repro.resilience.run import ResumableRun
from repro.resilience.supervisor import (
    EvalTask,
    ResilienceState,
    SupervisionConfig,
)


@dataclass
class ExplorationResult:
    """Everything the explorer produced.

    Attributes:
        population: Final population (evaluated individuals).
        pareto_front: Feasible rank-0 individuals of the final population.
        history: Per-generation snapshots of (objectives, violation) for
            every individual evaluated that generation — the scatter data
            behind the paper's Fig. 5.
        evaluations: Total flow evaluations run (cache misses).
        cache_requests: Total configuration lookups the GA issued.
        cache_hits: Lookups answered by the memo table (duplicate
            chromosomes that never paid for a flow evaluation).
        resumed_from: Generation the run was resumed from (None when the
            run started fresh).
        resilience: Supervision counters accumulated over the run.
    """

    population: List[Individual]
    pareto_front: List[Individual]
    history: List[List[Tuple[Tuple[float, float], float]]]
    evaluations: int
    cache_requests: int = 0
    cache_hits: int = 0
    resumed_from: Optional[int] = None
    resilience: Optional[ResilienceState] = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups served from the memo table (0 when none)."""
        if self.cache_requests <= 0:
            return 0.0
        return self.cache_hits / self.cache_requests

    def pareto_configs(self) -> List[FlowConfig]:
        """The Pareto-optimal parameter vectors."""
        return [ind.genome for ind in self.pareto_front]

    def best_security(self) -> Optional[Individual]:
        """The feasible individual with the lowest security score."""
        feas = [i for i in self.population if i.feasible]
        if not feas:
            return None
        return min(feas, key=lambda i: i.objectives[0])

    def knee_point(self) -> Optional[Individual]:
        """A balanced Pareto pick: minimal normalized L2 to the ideal."""
        front = self.pareto_front or [i for i in self.population if i.feasible]
        if not front:
            return None
        objs = np.array([i.objectives for i in front], dtype=float)
        lo = objs.min(axis=0)
        hi = objs.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        norm = (objs - lo) / span
        dist = (norm**2).sum(axis=1)
        return front[int(np.argmin(dist))]


class ParetoExplorer:
    """NSGA-II exploration of one design's flow parameter space."""

    def __init__(
        self,
        guard: GDSIIGuard,
        space: Optional[ParameterSpace] = None,
        config: NSGA2Config = NSGA2Config(),
        processes: int = 0,
        checkpoint_dir: Union[str, Path, None] = None,
        resume: bool = False,
        supervision: Optional[SupervisionConfig] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        """
        Args:
            guard: The flow bound to a baseline design.
            space: Parameter space; defaults to the guard's layer count.
            config: GA hyper-parameters.
            processes: Worker processes for population evaluation
                (0 = inline sequential evaluation).
            checkpoint_dir: Run directory for per-generation checkpoints
                (``None`` disables checkpointing).
            resume: Continue from ``checkpoint_dir``'s checkpoint if one
                exists (a fresh run starts when the directory is empty).
                Raises :class:`CheckpointError` if the checkpoint is
                corrupt, version-incompatible, or was written with
                different GA settings.
            supervision: Worker-supervision knobs (timeouts, retries,
                degradation thresholds); defaults are production-safe.
            should_stop: Cooperative-cancellation probe, polled at every
                generation boundary *after* that generation's checkpoint
                is written; returning ``True`` raises
                :class:`~repro.errors.ExplorationCancelled` so callers
                (the serving layer) can hand the checkpoint off to a
                later resume.
            progress: Called once per generation, after its checkpoint
                is durable, with ``{"generation", "generations",
                "front_size", "front"}``; ``front`` holds the feasible
                rank-0 members of the selected population, encoded like
                a service result's front.
        """
        self.guard = guard
        self.space = space or ParameterSpace(
            guard.baseline.technology.num_layers
        )
        self.config = config
        self._nsga2 = asdict(config)
        self.resumable = ResumableRun(
            ExplorationCheckpoint,
            {**self._nsga2, "num_layers": self.space.num_layers},
            name="explorer",
            unit="generation",
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            processes=processes,
            supervision=supervision,
            should_stop=should_stop,
            progress=progress,
        )
        self.resilience = self.resumable.resilience
        self._cache: Dict[tuple, Tuple[tuple, float]] = {}
        self.evaluations = 0
        self.cache_requests = 0
        self.cache_hits = 0

    @property
    def cache_hit_rate(self) -> float:
        """Memoization hit rate over every lookup issued so far."""
        if self.cache_requests <= 0:
            return 0.0
        return self.cache_hits / self.cache_requests

    # ------------------------------------------------------------------ #

    def _cache_key(self, config: FlowConfig) -> tuple:
        c = config.canonical()
        return (c.op_select, c.lda_n, c.lda_n_iter, c.rws_scales)

    def _evaluate_population(
        self, configs: Sequence[FlowConfig], generation: int = 0
    ) -> List[Individual]:
        """Evaluate configurations (supervised-parallel, memoized).

        ``generation`` is the fault-injection / supervision coordinate:
        task ``i`` of the batch is addressed as ``(generation, i)`` where
        ``i`` indexes the deduplicated cache-miss batch.
        """
        missing = []
        seen = set()
        hits = 0
        for cfg in configs:
            key = self._cache_key(cfg)
            if key in self._cache:
                hits += 1
            elif key not in seen:
                missing.append(cfg)
                seen.add(key)
        self.cache_requests += len(configs)
        self.cache_hits += hits
        if missing:
            tasks = [
                EvalTask(
                    index=i, config=cfg, generation=generation, individual=i
                )
                for i, cfg in enumerate(missing)
            ]
            results = self.resumable.batch(
                self.guard, tasks, "explorer.eval_batch"
            )
            for cfg, objectives, violation in results:
                self._cache[self._cache_key(cfg)] = (objectives, violation)
            self.evaluations += len(missing)
            processes = self.resumable.processes
            if obs.is_enabled():
                obs.count("explorer.evaluations", len(missing))
                if processes:
                    # Fraction of the configured pool this batch kept busy
                    # (duplicate pruning shrinks batches below pool size).
                    obs.observe(
                        "explorer.worker_utilization",
                        len(missing)
                        / (processes * max(1, -(-len(missing) // processes))),
                    )
        if obs.is_enabled():
            obs.count("explorer.cache_requests", len(configs))
            obs.count("explorer.cache_hits", hits)
        individuals = []
        for cfg in configs:
            objectives, violation = self._cache[self._cache_key(cfg)]
            individuals.append(
                Individual(genome=cfg, objectives=objectives, violation=violation)
            )
        return individuals

    def _seeded_initial_population(
        self, rng: np.random.Generator
    ) -> List[FlowConfig]:
        """Random initial population seeded with the two pure operators."""
        n = self.config.population_size
        pop = [self.space.default()]
        lda_seed = FlowConfig(
            op_select="LDA",
            lda_n=16,
            lda_n_iter=2,
            rws_scales=tuple([1.0] * self.space.num_layers),
        )
        pop.append(lda_seed)
        while len(pop) < n:
            pop.append(self.space.random(rng))
        return pop[:n]

    def _boundary(
        self,
        generation: int,
        population: List[Individual],
        history: list,
        rng: np.random.Generator,
        stall: int,
        best_proxy: float,
    ) -> None:
        """Close a generation: checkpoint, progress, interrupt, cancel."""
        front = [i for i in population if i.rank == 0 and i.feasible]
        self.resumable.boundary(
            generation,
            ExplorationCheckpoint(
                generation=generation,
                population=population,
                history=history,
                rng_state=rng.bit_generator.state,
                eval_cache=self._cache,
                evaluations=self.evaluations,
                cache_requests=self.cache_requests,
                cache_hits=self.cache_hits,
                stall=stall,
                best_proxy=best_proxy,
                nsga2=self._nsga2,
                num_layers=self.space.num_layers,
            ),
            {
                "generation": generation,
                "generations": self.config.generations,
                "front_size": len(front),
                "front": encode_front(front),
            },
        )

    # ------------------------------------------------------------------ #

    def explore(self) -> ExplorationResult:
        """Run the NSGA-II loop; returns the exploration result."""
        rng = np.random.default_rng(self.config.seed)
        history: List[List[Tuple[Tuple[float, float], float]]] = []
        population: Optional[List[Individual]] = None
        stall = 0
        best_proxy = float("inf")
        start_gen = 0

        ckpt = self.resumable.restore()
        if ckpt is not None:
            rng.bit_generator.state = ckpt.rng_state
            self._cache.update(ckpt.eval_cache)
            self.evaluations = ckpt.evaluations
            self.cache_requests = ckpt.cache_requests
            self.cache_hits = ckpt.cache_hits
            population, history = ckpt.population, ckpt.history
            stall, best_proxy = ckpt.stall, ckpt.best_proxy
            start_gen = ckpt.generation

        with obs.timed("explorer.explore"):
            if population is None:
                with obs.timed("explorer.generation", index=0):
                    population = self._evaluate_population(
                        self._seeded_initial_population(rng), generation=0
                    )
                    history.append(
                        [(i.objectives, i.violation) for i in population]
                    )
                    population = nsga2_select(
                        population, self.config.population_size
                    )
                    self._generation_stats(0)
                stall = 0
                best_proxy = self._front_proxy(population)
                self._boundary(0, population, history, rng, stall, best_proxy)

            for gen in range(start_gen + 1, self.config.generations + 1):
                if stall >= self.config.stall_generations:
                    break
                with obs.timed("explorer.generation", index=gen):
                    offspring_cfgs: List[FlowConfig] = []
                    while len(offspring_cfgs) < self.config.population_size:
                        p1 = tournament(population, rng)
                        p2 = tournament(population, rng)
                        c1, c2 = p1.genome, p2.genome
                        if rng.random() < self.config.crossover_rate:
                            c1, c2 = self.space.crossover(c1, c2, rng)
                        c1 = self.space.mutate(
                            c1, rng, self.config.mutation_rate
                        )
                        c2 = self.space.mutate(
                            c2, rng, self.config.mutation_rate
                        )
                        offspring_cfgs.extend([c1, c2])
                    offspring = self._evaluate_population(
                        offspring_cfgs[: self.config.population_size],
                        generation=gen,
                    )
                    history.append(
                        [(i.objectives, i.violation) for i in offspring]
                    )
                    population = nsga2_select(
                        list(population) + offspring,
                        self.config.population_size,
                    )
                    self._generation_stats(gen)
                proxy = self._front_proxy(population)
                if proxy >= best_proxy - 1e-9:
                    stall += 1
                else:
                    best_proxy = proxy
                    stall = 0
                self._boundary(
                    gen, population, history, rng, stall, best_proxy
                )

        fronts = fast_non_dominated_sort(population)
        pareto = [i for i in fronts[0] if i.feasible] if fronts else []
        return ExplorationResult(
            population=list(population),
            pareto_front=pareto,
            history=history,
            evaluations=self.evaluations,
            cache_requests=self.cache_requests,
            cache_hits=self.cache_hits,
            resumed_from=None if ckpt is None else ckpt.generation,
            resilience=self.resilience,
        )

    def _generation_stats(self, generation: int) -> None:
        """Emit the per-generation trace annotation (no-op when disabled)."""
        if not obs.is_enabled():
            return
        obs.point(
            "explorer.generation_stats",
            generation=generation,
            evaluations=self.evaluations,
            cache_requests=self.cache_requests,
            cache_hits=self.cache_hits,
            cache_hit_rate=round(self.cache_hit_rate, 4),
        )

    @staticmethod
    def _front_proxy(population: Sequence[Individual]) -> float:
        """Scalar convergence proxy: sum of the feasible ideal point."""
        feas = [i for i in population if i.feasible]
        if not feas:
            return float("inf")
        best0 = min(i.objectives[0] for i in feas)
        best1 = min(i.objectives[1] for i in feas)
        return best0 + best1

    def rerun(self, config: FlowConfig) -> FlowResult:
        """Re-evaluate one configuration to materialize its layout."""
        return self.guard.run(config)
