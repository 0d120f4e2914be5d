"""A compact CDCL SAT solver in pure python.

The classic architecture — two-watched-literal propagation, first-UIP
conflict analysis, VSIDS branching, Luby restarts — specialised for the
repo's needs: deterministic (no wall-clock in any decision), assumption
literals for the incremental width ladder, and a telemetry tap that
emits sampled ``sat_conflict`` / ``sat_restart`` events.

Literals are non-zero DIMACS-style ints (``+v`` / ``-v`` for variable
``v ≥ 1``).  Learned clauses are resolvents of input clauses only, so
they stay valid across ``solve`` calls with different assumptions —
that is what makes the k-ladder incremental.

``corrupt_learned`` is a **fault-injection seam for the fuzzer's
mutation gate** (see ``repro.verify.fuzz``): when set, every learned
clause of length ≥ 2 silently loses one non-asserting literal — the
classic unsound-CDCL seeding bug.  It must never be set outside tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..telemetry import NULL_TRACER

# Sampled conflict telemetry: one event per this many conflicts.
_CONFLICT_EVERY = 64
# Luby restart unit, in conflicts.
_RESTART_BASE = 128
# VSIDS decay (activities grow by 1/decay per conflict).
_VAR_DECAY = 0.95
_RESCALE_LIMIT = 1e100


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolverStats:
    """Cumulative counters across all ``solve`` calls."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    max_learned_length: int = 0
    solves: int = 0

    def as_dict(self) -> dict:
        return {
            "sat.conflicts": self.conflicts,
            "sat.decisions": self.decisions,
            "sat.propagations": self.propagations,
            "sat.restarts": self.restarts,
            "sat.learned": self.learned,
        }


class _Clause:
    """One clause; ``lits[0]`` and ``lits[1]`` are the watched pair."""

    __slots__ = ("lits", "learned")

    def __init__(self, lits: list[int], learned: bool = False):
        self.lits = lits
        self.learned = learned


class SolverBudgetExceeded(Exception):
    """Raised by :meth:`CDCLSolver.solve` when ``max_conflicts`` trips."""


class CDCLSolver:
    """Conflict-driven clause learning over DIMACS-int literals."""

    def __init__(
        self,
        tracer=NULL_TRACER,
        corrupt_learned: bool = False,
    ):
        self.tracer = tracer
        self.corrupt_learned = corrupt_learned
        self.num_vars = 0
        # Indexed by variable (1-based; index 0 unused).
        self._value: list[int] = [0]  # 0 unassigned / +1 true / -1 false
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        self._watches: dict[int, list[_Clause]] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._order: list[tuple[float, int]] = []  # lazy max-activity heap
        self._unsat = False  # level-0 conflict: permanently UNSAT
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self._value.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        v = self.num_vars
        self._watches[v] = []
        self._watches[-v] = []
        heapq.heappush(self._order, (0.0, v))
        return v

    def value(self, lit: int) -> int:
        """+1 / -1 / 0 for true / false / unassigned."""
        v = self._value[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits) -> bool:
        """Add a clause; returns False if it makes the formula UNSAT at
        level 0.  Must be called with the solver backtracked to level 0
        (construction time or between ``solve`` calls)."""
        if self._unsat:
            return False
        assert not self._trail_lim, "add_clause only at decision level 0"
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology: trivially satisfied
            if lit in seen:
                continue
            value = self.value(lit)
            if value > 0:
                return True  # already satisfied at level 0
            if value < 0:
                continue  # falsified at level 0: drop the literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        self._attach(_Clause(out))
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[-clause.lits[0]].append(clause)
        self._watches[-clause.lits[1]].append(clause)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        v = abs(lit)
        self._value[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns the conflicting clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            watchers = self._watches[lit]
            kept: list[_Clause] = []
            conflict: _Clause | None = None
            for index, clause in enumerate(watchers):
                lits = clause.lits
                # Normalise: the falsified watch sits at lits[0].
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value(first) > 0:
                    kept.append(clause)
                    continue
                moved = False
                for i in range(2, len(lits)):
                    if self.value(lits[i]) >= 0:
                        lits[1], lits[i] = lits[i], lits[1]
                        self._watches[-lits[1]].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self.value(first) < 0:
                    conflict = clause
                    kept.extend(watchers[index + 1:])
                    break
                self._enqueue(first, clause)
            self._watches[lit] = kept
            if conflict is not None:
                return conflict
        return None

    def _backtrack(self, level: int) -> None:
        while len(self._trail_lim) > level:
            mark = self._trail_lim.pop()
            for lit in reversed(self._trail[mark:]):
                v = abs(lit)
                self._value[v] = 0
                self._reason[v] = None
                heapq.heappush(self._order, (-self._activity[v], v))
            del self._trail[mark:]
        self._qhead = min(self._qhead, len(self._trail))

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > _RESCALE_LIMIT:
            for u in range(1, self.num_vars + 1):
                self._activity[u] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._order, (-self._activity[v], v))

    def _pick_branch_var(self) -> int:
        # The heap may hold stale (activity, var) pairs — skip entries
        # whose recorded activity is outdated or whose var is assigned.
        while self._order:
            act, v = heapq.heappop(self._order)
            if self._value[v] == 0 and -act == self._activity[v]:
                return v
        for v in range(1, self.num_vars + 1):
            if self._value[v] == 0:
                return v
        return 0

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen: set[int] = set()
        counter = 0
        p = 0
        reason_lits = conflict.lits
        index = len(self._trail) - 1
        current = len(self._trail_lim)
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = abs(q)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self._level[v] >= current:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(self._trail[index]) not in seen:
                index -= 1
            p = self._trail[index]
            seen.discard(abs(p))
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(p)]
            assert reason is not None, "UIP walk hit a decision early"
            reason_lits = reason.lits
        learnt[0] = -p
        if self.corrupt_learned and len(learnt) > 1:
            # Fault-injection seam (tests only): dropping a non-asserting
            # literal strengthens the clause unsoundly — downstream the
            # fuzzer must catch the wrong widths this produces.
            learnt.pop(1)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest decision level in the clause,
        # placing that literal in the second watch position.
        best = 1
        for i in range(2, len(learnt)):
            if self._level[abs(learnt[i])] > self._level[abs(learnt[best])]:
                best = i
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions=(),
        max_conflicts: int | None = None,
    ) -> bool:
        """Decide satisfiability under ``assumptions``.

        Returns True (model available via :meth:`model`) or False (UNSAT
        under the assumptions; permanently UNSAT if none were given).
        Raises :class:`SolverBudgetExceeded` when ``max_conflicts``
        trips first.
        """
        if self._unsat:
            return False
        self.stats.solves += 1
        assumptions = list(assumptions)
        self._backtrack(0)
        conflict_budget = max_conflicts
        restart_count = 0
        limit = _RESTART_BASE * _luby(1)
        conflicts_here = 0
        if self._propagate() is not None:
            self._unsat = True
            return False
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if conflict_budget is not None:
                    conflict_budget -= 1
                    if conflict_budget < 0:
                        raise SolverBudgetExceeded()
                if len(self._trail_lim) == 0:
                    self._unsat = True
                    return False
                if len(self._trail_lim) <= len(assumptions):
                    # The conflict is forced by the assumptions alone.
                    return False
                learnt, back_level = self._analyze(conflict)
                back_level = max(back_level, len(assumptions))
                if back_level >= len(self._trail_lim):
                    # Corrupted learning (fault seam) can yield a
                    # non-asserting clause; fall back to chronological
                    # backtracking so the search still terminates.
                    back_level = len(self._trail_lim) - 1
                self._backtrack(back_level)
                clause = _Clause(learnt, learned=True)
                self.stats.learned += 1
                self.stats.max_learned_length = max(
                    self.stats.max_learned_length, len(learnt)
                )
                if len(learnt) > 1:
                    self._attach(clause)
                if self.value(learnt[0]) == 0:
                    self._enqueue(
                        learnt[0], clause if len(learnt) > 1 else None
                    )
                self._var_inc /= _VAR_DECAY
                if self.stats.conflicts % _CONFLICT_EVERY == 0:
                    self.tracer.event(
                        "sat_conflict",
                        conflicts=self.stats.conflicts,
                        learned=self.stats.learned,
                        level=len(self._trail_lim),
                        clause_length=len(learnt),
                    )
                if conflicts_here >= limit:
                    restart_count += 1
                    self.stats.restarts += 1
                    limit = _RESTART_BASE * _luby(restart_count + 1)
                    conflicts_here = 0
                    self.tracer.event(
                        "sat_restart",
                        restarts=self.stats.restarts,
                        conflicts=self.stats.conflicts,
                    )
                    self._backtrack(
                        min(len(assumptions), len(self._trail_lim))
                    )
                continue
            if len(self._trail_lim) < len(assumptions):
                lit = assumptions[len(self._trail_lim)]
                if self.value(lit) < 0:
                    return False  # assumption contradicted
                already_true = self.value(lit) > 0
                self._trail_lim.append(len(self._trail))
                if not already_true:
                    self._enqueue(lit, None)
                continue
            v = self._pick_branch_var()
            if v == 0:
                return True  # all variables assigned: model found
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            # Negative phase first: the encodings' aux variables
            # (bags, ancestors, counters) default to "off".
            self._enqueue(-v, None)

    def model(self) -> list[int]:
        """The satisfying assignment as +v/-v per variable (valid right
        after a True ``solve`` return)."""
        return [
            v if self._value[v] > 0 else -v
            for v in range(1, self.num_vars + 1)
        ]

    def model_value(self, lit: int) -> bool:
        return self.value(lit) > 0
