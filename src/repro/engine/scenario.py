"""Bulk what-if evaluation: K scenarios, one shared recalculation plan.

A *scenario* is a set of trial values for a few non-formula seed cells —
"what if growth were 3% and churn 0.7?".  Answering K of them through
the per-edit path costs K x (dependents BFS + topological sort +
re-evaluation), yet every scenario perturbs the *same* seeds: the dirty
frontier and its evaluation order are properties of the formula graph,
not of the trial values.  :class:`ScenarioEngine` exploits that:

1. **Plan once** — at construction it runs one multi-seed dependents BFS
   over the compressed graph and orders the dirty set with the serial
   engine's own planner (:meth:`RecalcEngine._build_plan`: column
   strips plus lone cells, generic Kahn order for interpreter engines
   and a handful of cells).  Cycles raise
   :class:`~repro.engine.recalc.CircularReferenceError` up front.
2. **Replay per scenario** — :meth:`run` writes each scenario's seed
   values and re-executes the frozen plan through the engine's normal
   tier dispatch (compiled templates, windowed rolls, elementwise
   sweeps, scans, lookup probes).  Replays after the first count one
   ``EvalStats.scenario_plan_reuses`` each.
3. **Restore** — the base seed values and every dirty cell's cached
   value are snapshotted before the first replay (typed column packs)
   and restored afterwards, so a sweep leaves the sheet
   bit-identical to how it found it, even on error.

``workers=N`` fans the scenario list across *resident replicas*
(:class:`repro.engine.shard.ScenarioReplicas`): the first fanned-out
sweep boots one full replica of the read surface per pool slot (value
planes + formula run records + plan spec, the resident runtime's
freight), and every later sweep ships only plane deltas —
columns the parent changed since the last ship, keyed by the PR 8
version stamps — plus the seed rows.  Only the requested output values
travel back.  Scenarios are independent by construction — they share no
writes — so fan-out changes wall-clock, never values, and the absorbed
worker counter deltas keep the PR 7 counter identity.
Fallbacks (unpicklable payloads, cross-sheet formulas, worker death)
re-run the affected chunk serially in the parent and are reported in
``EvalStats.serial_fallbacks``.

Scenario replays are transient: they bypass the journal and graph
maintenance entirely (seeds are value cells — their edits move no
edges).  The plan is valid until the sheet's formulas change: it is
stamped with the sheet's ``(epoch, formula_version)``, and a sweep after
a formula or structural edit raises — build a fresh engine.

:meth:`sample` (Monte Carlo over a seeded RNG) and :meth:`solve`
(bisection goal-seek) are thin layers over :meth:`run`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping

from ..core.query import dependents_of_seeds
from ..formula.errors import ExcelError
from ..grid.range import Range
from .recalc import CircularReferenceError

if TYPE_CHECKING:  # pragma: no cover
    from .recalc import RecalcEngine

__all__ = ["ScenarioEngine"]

#: Placeholder for "this scenario does not override this seed": the
#: replay writes the base value instead.  Resolved to concrete values
#: before any payload is shipped, so workers never see it.
_KEEP = object()


class ScenarioEngine:
    """K what-if scenarios over fixed seed cells, one shared plan.

    ``seeds`` are the cells scenarios may vary — A1 text, ``Range`` or
    ``(col, row)`` — and must hold values, not formulas (a formula seed
    would need graph surgery per scenario, defeating the shared plan;
    ``ValueError``).  The dirty frontier, its topological order, and its
    strips are computed here, once, against ``engine``'s graph.
    """

    def __init__(self, engine: "RecalcEngine", seeds):
        if engine.graph is None:
            raise ValueError(
                "scenario planning needs the engine's formula graph; "
                "plan-executor shadows cannot host a ScenarioEngine"
            )
        self.engine = engine
        self.sheet = engine.sheet
        self.seeds: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for target in seeds:
            pos = engine._position(target)
            if pos in seen:
                continue
            if self.sheet.formula_at(pos) is not None:
                raise ValueError(
                    f"seed {Range.cell(*pos).to_a1()} is a formula cell; "
                    "scenario seeds must be pure values"
                )
            seen.add(pos)
            self.seeds.append(pos)
        if not self.seeds:
            raise ValueError("at least one seed cell is required")
        self._seed_set = seen

        seed_ranges = [Range.cell(*pos) for pos in self.seeds]
        dirty_ranges = dependents_of_seeds(engine.graph, seed_ranges)
        dirty = self.sheet.formula_positions(dirty_ranges)
        #: The dirty frontier (sorted, deterministic): every formula cell
        #: any replay can change.  Exactly these cells are snapshotted
        #: and restored around a sweep.
        self.dirty: list[tuple[int, int]] = sorted(dirty)
        self.plan = self._build_plan(dirty)
        self._replays = 0
        self._stamp = self._sheet_stamp()
        #: Resident process replicas (:class:`repro.engine.shard
        #: .ScenarioReplicas`), built lazily by the first fanned-out
        #: sweep and reused — with plane deltas only — by later ones.
        self._replicas = None
        self._replica_cols: set[int] | None = None
        self._replica_freight = None

    def _build_plan(self, dirty: set[tuple[int, int]]):
        plan, _succs, cycle = self.engine._build_plan(dirty, False)
        if cycle is not None:
            raise CircularReferenceError(self.engine._trace_cycle(*cycle))
        return plan

    @property
    def plan_size(self) -> int:
        """Formula cells one replay re-evaluates."""
        return len(self.dirty)

    # -- the sweep -------------------------------------------------------------

    def run(self, scenarios, outputs=(), *, workers: "int | None" = None):
        """Evaluate ``scenarios`` and return one output dict per scenario.

        Each scenario is a mapping ``{seed: value}`` (unlisted seeds keep
        their base values) or a sequence of values aligned with the
        constructor's seed order.  ``outputs`` are the cells to read
        after each replay; results are dicts keyed by the output spec as
        given (A1 strings stay strings, everything else keys by its
        ``(col, row)``).  ``workers=None`` inherits the engine's
        dispatch count (``engine.workers``: its ``shards`` / ``workers``,
        else ``REPRO_RECALC_SHARDS``); ``0``/``1`` forces serial replay.

        Values and per-cell eval counters are identical across serial
        and fan-out execution; the sheet is restored to its base state
        before this returns, success or failure.
        """
        self._check_fresh()
        rows = [self._normalize(scenario) for scenario in scenarios]
        out_specs = list(outputs)
        out_pos = [self.engine._position(spec) for spec in out_specs]
        if not rows:
            return []
        if workers is None:
            workers = self.engine.workers
        values = None
        if int(workers) > 1 and len(rows) > 1 and self.engine.evaluation == "auto":
            values = self._run_process(rows, out_pos, int(workers))
        if values is None:
            values = self._run_serial(rows, out_pos)
        self._account_replays(len(rows))
        keys = [
            spec if isinstance(spec, str) else pos
            for spec, pos in zip(out_specs, out_pos)
        ]
        return [dict(zip(keys, row_values)) for row_values in values]

    def sample(self, n: int, draw, *, outputs=(), seed: int = 0,
               workers: "int | None" = None):
        """Monte Carlo: ``n`` scenarios drawn by ``draw(rng)``.

        ``draw`` receives a :class:`random.Random` seeded with ``seed``
        and returns one scenario (mapping or sequence); the draw order is
        fixed, so equal seeds give bit-identical sweeps regardless of
        ``workers``.
        """
        rng = random.Random(seed)
        scenarios = [draw(rng) for _ in range(n)]
        return self.run(scenarios, outputs, workers=workers)

    def solve(self, seed, output, target: float, lo: float, hi: float, *,
              tol: float = 1e-9, max_iter: int = 100) -> float:
        """Goal-seek: the ``seed`` value in ``[lo, hi]`` driving
        ``output`` to ``target``, by bisection on the shared plan.

        Requires ``output`` to evaluate numeric at both brackets and the
        residual to change sign between them (``ValueError`` otherwise —
        bisection needs a bracketed root).  Bisection is monotone-safe on
        the non-smooth functions spreadsheets produce (IF ladders,
        lookups); tolerance is on the seed interval width.
        """
        pos = self.engine._position(seed)
        if pos not in self._seed_set:
            raise ValueError(
                f"solve seed {Range.cell(*pos).to_a1()} is not one of "
                "this engine's scenario seeds"
            )

        def residual(x: float) -> float:
            value = self.run([{pos: x}], [output])[0].popitem()[1]
            if isinstance(value, ExcelError) or not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ValueError(
                    f"goal-seek output is not numeric at seed={x!r}: {value!r}"
                )
            return float(value) - float(target)

        f_lo = residual(lo)
        if f_lo == 0.0:
            return float(lo)
        f_hi = residual(hi)
        if f_hi == 0.0:
            return float(hi)
        if (f_lo < 0.0) == (f_hi < 0.0):
            raise ValueError(
                f"goal-seek bracket [{lo}, {hi}] does not straddle "
                f"target {target} (residuals {f_lo:+g}, {f_hi:+g})"
            )
        lo, hi = float(lo), float(hi)
        mid = (lo + hi) / 2.0
        for _ in range(max_iter):
            mid = (lo + hi) / 2.0
            f_mid = residual(mid)
            if f_mid == 0.0 or (hi - lo) / 2.0 <= tol:
                break
            if (f_mid < 0.0) == (f_lo < 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return mid

    # -- internals -------------------------------------------------------------

    def _sheet_stamp(self) -> tuple[int, int]:
        store = self.sheet._cells
        return store.epoch, store.formula_version

    def _check_fresh(self) -> None:
        if getattr(self.sheet, "_open_batches", None):
            raise RuntimeError(
                "scenario replay with an open batch session on this sheet: "
                "buffered edits would interleave with replays; commit or "
                "discard the batch first"
            )
        if self._sheet_stamp() != self._stamp:
            raise RuntimeError(
                "scenario plan is stale: the sheet's formulas or shape changed "
                "after the plan was built; construct a new ScenarioEngine"
            )

    def _normalize(self, scenario) -> tuple:
        if isinstance(scenario, Mapping):
            overrides: dict = {}
            for target, value in scenario.items():
                pos = self.engine._position(target)
                if pos not in self._seed_set:
                    raise ValueError(
                        f"scenario sets {Range.cell(*pos).to_a1()}, which is "
                        "not one of this engine's seed cells"
                    )
                overrides[pos] = value
            return tuple(overrides.get(pos, _KEEP) for pos in self.seeds)
        values = tuple(scenario)
        if len(values) != len(self.seeds):
            raise ValueError(
                f"scenario has {len(values)} values for {len(self.seeds)} seeds"
            )
        return values

    def _account_replays(self, count: int) -> None:
        """Every replay after this engine's first is a plan reuse —
        stable across serial and fan-out execution by construction."""
        first = 1 if self._replays == 0 else 0
        self.engine.eval_stats.scenario_plan_reuses += count - first
        self._replays += count

    def _snapshot(self):
        sheet = self.sheet
        seeds = [(pos, sheet.get_value(pos)) for pos in self.seeds]
        return seeds, sheet._cells.pack_result_columns(self.dirty)

    def _restore(self, seeds, packed) -> None:
        sheet = self.sheet
        for pos, value in seeds:
            sheet.set_value(pos, value)
        sheet._cells.merge_result_columns(packed)

    def _resolve(self, rows, seeds_base):
        base = dict(seeds_base)
        return [
            tuple(
                base[pos] if value is _KEEP else value
                for pos, value in zip(self.seeds, row)
            )
            for row in rows
        ]

    def _run_serial(self, rows, out_pos):
        engine = self.engine
        sheet = self.sheet
        seeds_base, dirty_base = self._snapshot()
        resolved = self._resolve(rows, seeds_base)
        out = []
        try:
            for row in resolved:
                for pos, value in zip(self.seeds, row):
                    sheet.set_value(pos, value)
                engine._execute_plan(self.plan)
                out.append([sheet.get_value(pos) for pos in out_pos])
        finally:
            self._restore(seeds_base, dirty_base)
        return out

    def _run_process(self, rows, out_pos, workers: int):
        """Fan contiguous scenario chunks across resident replicas.

        The first fanned-out sweep bootstraps one full replica of the
        sweep's read surface per pool slot (:class:`~repro.engine.shard
        .ScenarioReplicas`); later sweeps ship only plane deltas —
        columns the parent changed since the last ship — plus the seed
        rows.  Replicas need no restore between replays: every replay
        deterministically overwrites the whole dirty frontier before
        reading it, and the parent sheet is never mutated by this path.

        Returns the per-scenario output rows, or None when the whole
        sweep must stay serial (cross-sheet formulas).  Chunks whose
        replica fails — to boot (unpicklable freight, say) or to answer —
        are replayed serially in the parent — scenarios own disjoint
        result rows, so the merge is trivially idempotent — and the slot
        re-boots on the next sweep.
        """
        from .shard import CrossSheetRegion, ScenarioReplicas, declarative_region

        engine = self.engine
        sheet = self.sheet
        stats = engine.eval_stats
        if self._replica_freight is None:
            try:
                self._replica_freight = declarative_region(sheet, self.plan)
            except CrossSheetRegion:
                stats.serial_fallbacks += 1
                stats.fallback_reason = "cross-sheet"
                return None
        records, spec, read_cols = self._replica_freight
        cols = read_cols
        if cols is not None:
            cols = set(cols)
            cols.update(pos[0] for pos in self.seeds)
            cols.update(pos[0] for pos in out_pos)

        replicas = self._replicas
        if replicas is not None and (
            replicas.workers < workers
            or (self._replica_cols is not None
                and (cols is None or not cols <= self._replica_cols))
        ):
            # More slots, or outputs outside the resident closure:
            # re-boot with the widened surface (the old replicas drop
            # via their finalizer).
            cols = (
                None if cols is None or self._replica_cols is None
                else cols | self._replica_cols
            )
            replicas = None
        if replicas is None:
            replicas = ScenarioReplicas(workers)
            self._replica_cols = cols
        replicas.boot(sheet, self._replica_cols, records, spec, self.seeds, stats,
                      engine.lookup_indexes)
        self._replicas = replicas

        seeds_base = [(pos, sheet.get_value(pos)) for pos in self.seeds]
        resolved = self._resolve(rows, seeds_base)
        workers = min(workers, len(resolved), replicas.workers)
        bounds = [
            (len(resolved) * i // workers, len(resolved) * (i + 1) // workers)
            for i in range(workers)
        ]
        chunks = [resolved[lo:hi] for lo, hi in bounds if hi > lo]
        replies = replicas.replay_chunks(
            sheet, self._replica_cols, chunks, out_pos, stats
        )
        out = []
        for chunk, (reason, chunk_values) in zip(chunks, replies):
            if reason is not None:
                stats.serial_fallbacks += 1
                stats.fallback_reason = reason
                out.extend(self._run_serial(chunk, out_pos))
                continue
            stats.parallel_dispatches += 1
            out.extend(chunk_values)
        return out
