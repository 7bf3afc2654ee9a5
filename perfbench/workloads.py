"""The four benchmark workloads.

Each workload makes its inputs from the seed without importing hatlab, then
has a ``setup`` (what a user pays once per process: importing hatlab,
building and validating the instances, building the strategies, and the first
play or the cold strategy-space count per instance) and a fixed list of
``Op``s, the timed public calls. Every op carries the answer it must produce;
``summarize`` reduces a result to the comparable form outside the timed
region. Expected answers come from theory, from known optima, or from an
independent ``run_game`` loop, never from the call being timed.

``size="tiny"`` shrinks every instance for the self-test but keeps the op
names, so metric names do not depend on the size.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    name: str
    layer: str  # engine.sweep, engine.stream, oracle.census, oracle.verdict or cli.call
    call: Callable[[], Any]
    summarize: Callable[[Any], Any]
    expect: Any
    plays: int = 0
    steps: int = 0
    counts: Callable[[Any], dict] | None = None  # counters reported by the traced run, never checked
    env: dict | None = None  # the environment of the subprocess the call runs, if it runs one


def _rule(text: str):
    from hatlab import EvaluationRule

    kind, _, threshold = text.partition(":")
    return EvaluationRule.from_json({"kind": kind, "threshold": threshold})


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.tiny = size == "tiny"
        self.games: list[tuple[str, Any, Any]] = []  # (name, instance, strategy) played in setup
        self.strategies: list = []

    def _size(self, full, tiny):
        return tiny if self.tiny else full

    # --- set-up steps shared by the workloads, each in its own span ---

    def _instance(self, tr, name, make):
        from hatlab import validate_instance

        with tr.span("model.build", instance=name):
            inst = make()
            report = validate_instance(inst)
        if not report.valid:
            raise RuntimeError(f"{name}: invalid instance: {report.errors}")
        return inst

    def _canonical(self, tr, name, kind, m, c, rule):
        from hatlab import build_canonical_instance

        return self._instance(tr, name, lambda: build_canonical_instance(kind, m, c, _rule(rule)))

    def _strategy(self, tr, name, inst, desc):
        """``desc`` is a descriptor, or JSON text of one (parsed inside the span)."""
        from hatlab import strategy_from_descriptor

        with tr.span("strategies.build", instance=name):
            if isinstance(desc, str):
                desc = json.loads(desc)
            strat = strategy_from_descriptor(desc, inst)
        if all(s is not strat for s in self.strategies):
            self.strategies.append(strat)
        return strat

    def _first_play(self, tr, name, inst, strat):
        from hatlab import run_game

        with tr.span("engine.first_play", instance=name):
            run_game(inst, strat, (0,) * len(inst.players))
        self.games.append((name, inst, strat))

    def setup(self, tr) -> None:
        raise NotImplementedError

    def operations(self) -> list[Op]:
        raise NotImplementedError


# --- sweep-rules ---------------------------------------------------------------

def _sweep_theory(strategy: str, m: int, c: int, n: int = 0) -> dict:
    """The sweep report each constructive strategy must produce."""
    if strategy == "sum_broadcast":
        # Everyone behind the front decodes exactly; the front is right only
        # when its hat equals the announced sum.
        return {"assignments": c**m, "min_correct": m - 1, "max_incorrect": 1,
                "winning": True, "counterexample": None}
    if strategy == "block_mod_sum":
        # Exactly one hit per block; leftover players guess 0.
        return {"assignments": c**m, "min_correct": n, "max_incorrect": m - n,
                "winning": True, "counterexample": None}
    if strategy == "constant:0":
        # Correct guesses are the zero hats; the least all-nonzero assignment loses.
        return {"assignments": c**m, "min_correct": 0, "max_incorrect": m,
                "winning": False, "counterexample": [1] * m}
    raise ValueError(strategy)


def _sweep_op(name, inst, strat, expect) -> Op:
    from hatlab import sweep

    plays = inst.assignment_count()
    return Op(name, "engine.sweep", lambda: sweep(inst, strat), lambda r: r.to_json(), expect,
              plays, plays * len(inst.askings))


class SweepRules(Workload):
    name = "sweep-rules"
    why = ("sweep() with rule closures; _play and decide take almost all the time, "
           "where batch sweeps and decide_batch must show")

    def setup(self, tr):
        c = 3
        m10, m9 = self._size(10, 6), self._size(9, 6)
        n = m9 // c
        specs = [
            ("hbsf-10x3", "hbsf", m10, "fewer_incorrect:2", {"name": "sum_broadcast"},
             _sweep_theory("sum_broadcast", m10, c)),
            ("hnsa-9x3-blocks", "hnsa", m9, f"at_least:{n}",
             {"name": "block_mod_sum", "params": {"n": n}}, _sweep_theory("block_mod_sum", m9, c, n)),
            ("hnsa-9x3-const", "hnsa", m9, "at_least:1", {"name": "constant", "params": {"value": 0}},
             _sweep_theory("constant:0", m9, c)),
        ]
        self.cases = []
        for name, kind, m, rule, desc, expect in specs:
            inst = self._canonical(tr, name, kind, m, c, rule)
            strat = self._strategy(tr, name, inst, desc)
            self._first_play(tr, name, inst, strat)
            self.cases.append((name, inst, strat, expect))

    def operations(self):
        return [_sweep_op(*case) for case in self.cases]


# --- plays-tables ----------------------------------------------------------------

def table_rows(kind: str, m: int, c: int, rng: random.Random) -> list[dict]:
    """A full table strategy for a hear-nothing canonical instance, in the
    ``TableStrategy.to_json`` row format, with seeded random guesses."""
    rows = []
    for p in range(m):
        seen = [x for x in range(m) if x != p] if kind == "hnsa" else list(range(p + 1, m))
        for colors in itertools.product(range(c), repeat=len(seen)):
            rows.append({"t": p, "seen": [[x, v] for x, v in zip(seen, colors)], "heard": [],
                         "guess": rng.randrange(c)})
    return rows


def reference_sweep(inst, strat) -> dict:
    """A sweep report computed by playing each assignment with ``run_game``."""
    from hatlab import run_game

    min_correct = max_incorrect = None
    counterexample = None
    n = 0
    for values in itertools.product(range(inst.colors.size), repeat=len(inst.players)):
        result = run_game(inst, strat, values)
        n += 1
        correct, incorrect = result.correct_count, result.incorrect_count
        min_correct = correct if min_correct is None else min(min_correct, correct)
        max_incorrect = incorrect if max_incorrect is None else max(max_incorrect, incorrect)
        if counterexample is None and not result.verdict:
            counterexample = list(values)
    return {"assignments": n, "min_correct": min_correct, "max_incorrect": max_incorrect,
            "winning": counterexample is None, "counterexample": counterexample}


def _broadcast_digest(inst, plays) -> dict:
    """What a stream of sum-broadcast plays on an hbsf line must look like."""
    c = inst.colors.size
    front_wrong = behind_wrong = bad_guess = won = 0
    values_seen = []
    for values, result in plays:
        values_seen.append(values)
        hats = dict(zip(inst.players, values))
        front_wrong += -1 in result.incorrect_set
        behind_wrong += len(result.incorrect_set - {-1})
        bad_guess += result.guesses[-1] != sum(values[1:]) % c
        bad_guess += any(result.guesses[t] != hats[t] for t in inst.players if t != -1)
        won += bool(result.verdict)
    return {"plays": len(values_seen),
            "lex_order": values_seen == list(itertools.product(range(c), repeat=len(inst.players))),
            "front_wrong": front_wrong, "behind_wrong": behind_wrong, "bad_guesses": bad_guess,
            "won": won}


class PlaysTables(Workload):
    name = "plays-tables"
    why = ("table strategies loaded from JSON, iter_plays results and a run_game census; "
           "per-play results and table lookups, no rule closures")

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.table_specs = [
            ("hnsf-8x3-table", "hnsf", self._size(8, 4), 3, "at_least:1"),
            ("hnsa-7x3-table", "hnsa", self._size(7, 4), 3, "at_least:2"),
        ]
        rng = random.Random(seed)
        self.table_json = {name: json.dumps({"name": "table", "params": {"entries": table_rows(kind, m, c, rng)}})
                           for name, kind, m, c, _ in self.table_specs}

    def setup(self, tr):
        self.tables = []
        for name, kind, m, c, rule in self.table_specs:
            inst = self._canonical(tr, name, kind, m, c, rule)
            strat = self._strategy(tr, name, inst, self.table_json[name])
            self._first_play(tr, name, inst, strat)
            self.tables.append((name, inst, strat))
        name = "hbsf-9x3-stream"
        self.stream = self._canonical(tr, name, "hbsf", self._size(9, 5), 3, "fewer_incorrect:2")
        self.stream_strat = self._strategy(tr, name, self.stream, {"name": "sum_broadcast"})
        self._first_play(tr, name, self.stream, self.stream_strat)
        name = "hnsa-8x3-census"
        m = self._size(8, 4)
        self.census = self._canonical(tr, name, "hnsa", m, 3, "at_least:2")
        self.census_strat = self._strategy(tr, name, self.census,
                                           {"name": "block_mod_sum", "params": {"n": m // 3}})
        self._first_play(tr, name, self.census, self.census_strat)

    def operations(self):
        from hatlab import correct_count_census, iter_plays

        ops = [_sweep_op(name, inst, strat, reference_sweep(inst, strat))
               for name, inst, strat in self.tables]
        inst, strat = self.stream, self.stream_strat
        total, m, c = inst.assignment_count(), len(inst.players), inst.colors.size
        ops.append(Op("hbsf-9x3-stream", "engine.stream", lambda: list(iter_plays(inst, strat)),
                      lambda plays: _broadcast_digest(inst, plays),
                      {"plays": total, "lex_order": True, "front_wrong": total - c ** (m - 1),
                       "behind_wrong": 0, "bad_guesses": 0, "won": total},
                      total, total * m))
        cinst, cstrat = self.census, self.census_strat
        ctotal, cm = cinst.assignment_count(), len(cinst.players)
        # On hear-nothing see-all instances every strategy scores players * assignments / colors.
        ops.append(Op("hnsa-8x3-census", "oracle.census", lambda: correct_count_census(cinst, cstrat),
                      lambda total_correct: total_correct, cm * ctotal // cinst.colors.size,
                      ctotal, ctotal * cm))
        return ops


# --- search ----------------------------------------------------------------------

RELAY4 = {"kind": "custom", "players": 4, "colors": 2,
          "sight": [[1, 0], [2, 0], [3, 0], [2, 1], [3, 1], [3, 2]],
          "hearing": [[0, 1], [1, 2], [2, 3]], "rule": {"kind": "fewer_incorrect", "threshold": 2}}
RING5 = {"kind": "custom", "players": 5, "colors": 2,
         "sight": [[1, 0], [2, 1], [3, 2], [4, 3], [0, 4], [2, 0], [3, 1]],
         "hearing": [[0, 2], [1, 3]], "rule": {"kind": "at_least", "threshold": 2}}


def _search_summary(inst, mode, verdict) -> dict:
    """Verdict plus a re-check of the witness by a full sweep. Examined and
    pruned counts are not compared: a better search changes them."""
    from hatlab import sweep

    out = {"exists": verdict.exists_winning, "best": verdict.best_guaranteed, "witness": None}
    if verdict.witness is not None:
        report = sweep(inst, verdict.witness)
        out["witness"] = report.min_correct if mode == "best" else report.winning
    return out


class Search(Workload):
    name = "search"
    why = ("table-strategy searches, exhaustive and prune-heavy; the strategy walk is "
           "all the time and no play runs")

    def setup(self, tr):
        from hatlab import count_table_strategies, instance_from_json

        c2 = self._size(4, 2)
        # (name, mode, how to build, expected exists, best, witness check)
        specs = [
            ("hnsf-4x2", "exists", ("hnsf", self._size(4, 3), 2, "at_least:1"), False, None, None),
            # Two see-all players guarantee floor(2/c) correct guesses.
            ("hnsa-2x4", "best", ("hnsa", 2, c2, "at_least:1"), 2 // c2 >= 1, 2 // c2, 2 // c2),
            ("relay4-best", "best", RELAY4, False, 2, 2),
            ("relay4-exists", "exists", RELAY4, False, None, None),
            ("ring5-best", "best", RING5, True, 2, 2),
            ("ring5-exists", "exists", RING5, True, None, True),
            ("hnsa-3x2", "best", ("hnsa", 3, 2, "at_least:1"), True, 1, 1),
            ("hbsf-3x2", "exists", ("hbsf", 3, 2, "fewer_incorrect:2"), True, None, True),
        ]
        if self.tiny:
            specs = [s for s in specs if s[0] != "relay4-best"]
        self.cases = []
        for name, mode, how, exists, best, witness in specs:
            if isinstance(how, dict):
                inst = self._instance(tr, name, lambda: instance_from_json(how))
            else:
                inst = self._canonical(tr, name, *how)
            with tr.span("oracle.space", instance=name):
                count_table_strategies(inst)
            self.cases.append((name, mode, inst, {"exists": exists, "best": best, "witness": witness}))

    def operations(self):
        from hatlab import best_guaranteed_correct, exists_winning_exhaustive

        ops = []
        for name, mode, inst, expect in self.cases:
            fn = best_guaranteed_correct if mode == "best" else exists_winning_exhaustive
            ops.append(Op(name, "oracle.verdict", lambda fn=fn, inst=inst: fn(inst),
                          lambda v, inst=inst, mode=mode: _search_summary(inst, mode, v), expect,
                          counts=lambda v: {"examined": v.strategies_examined, "pruned": v.pruned}))
        return ops


# --- cli -------------------------------------------------------------------------

def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


_SECONDS = re.compile(rb" +\d+\.\d\ds  ")


def _cli_summary(proc: subprocess.CompletedProcess) -> dict:
    """Exit code, stdout bytes (``verify`` prints its run time, which is
    masked), and the stderr category: empty, or the text before the first
    colon, such as ``config error``. A traceback never matches."""
    stderr = proc.stderr.split(b":", 1)[0].decode(errors="replace") if proc.stderr else ""
    return {"exit": proc.returncode, "stdout": _SECONDS.sub(b" <t>s  ", proc.stdout), "stderr": stderr}


class Cli(Workload):
    name = "cli"
    why = ("sequential python -m hatlab.cli calls; interpreter start, import, click and JSON "
           "dominate, and all four exit codes occur")

    def __init__(self, seed, size="full", src: str = "src"):
        super().__init__(seed, size)
        self.src = src
        rng = random.Random(seed)
        self.run_assignment = [rng.randrange(3) for _ in range(6)]

    def setup(self, tr):
        from hatlab import instance_from_json

        self.run_inst = self._canonical(tr, "run", "hbsf", 6, 3, "fewer_incorrect:2")
        self.run_strat = self._strategy(tr, "run", self.run_inst, {"name": "sum_broadcast"})
        self._first_play(tr, "run", self.run_inst, self.run_strat)
        self.sweep_inst = self._canonical(tr, "sweep", "hnsa", 6, 3, "at_least:2")
        self.sweep_strat = self._strategy(tr, "sweep", self.sweep_inst,
                                          {"name": "block_mod_sum", "params": {"n": 2}})
        self._first_play(tr, "sweep", self.sweep_inst, self.sweep_strat)
        self.csv_inst = self._canonical(tr, "sweep-csv", "hbsf", 5, 3, "fewer_incorrect:2")
        self.csv_strat = self._strategy(tr, "sweep-csv", self.csv_inst, {"name": "sum_broadcast"})
        self._first_play(tr, "sweep-csv", self.csv_inst, self.csv_strat)
        self.best_inst = self._canonical(tr, "search-best", "hnsa", 3, 2, "at_least:1")
        relay = dict(RELAY4, rule={"kind": "fewer_incorrect", "threshold": 1})
        self.relay_inst = self._instance(tr, "search-relay4", lambda: instance_from_json(relay))

    def _expected(self):
        from hatlab import (
            best_guaranteed_correct,
            exists_winning_exhaustive,
            instance_to_json,
            iter_plays,
            run_game,
            sweep,
        )
        from hatlab.acceptance import run_criteria
        from hatlab.line import LazyAssignment, LineShape, OrdinalPosition, run_lazy

        inst, values = self.run_inst, self.run_assignment
        result = run_game(inst, self.run_strat, values)
        run = _canonical_json({
            "instance": instance_to_json(inst), "assignment": values,
            "guesses": [result.guesses[t] for t in inst.askings],
            "correct": sorted(result.correct_set), "incorrect": sorted(result.incorrect_set),
            "verdict": int(result.verdict)})
        csv = ["assignment,correct,incorrect,verdict"] + [
            f"{'-'.join(map(str, v))},{r.correct_count},{r.incorrect_count},{int(r.verdict)}"
            for v, r in iter_plays(self.csv_inst, self.csv_strat)]
        shape, lazy = LineShape(1, front_present=True), LazyAssignment.of(0, {OrdinalPosition(0, 3): 1}, 1)
        line = run_lazy("sum_broadcast", shape, lazy.base, lazy, 2).to_json()
        line["assignment"] = lazy.to_json(shape.limit_blocks)
        (crit,) = run_criteria("broadcast-exhaustive")
        verify = f"PASS  {crit.cid} <t>s  {crit.detail}\n1/1 criteria passed\n".encode()
        return {
            "run": run,
            "sweep": _canonical_json(sweep(self.sweep_inst, self.sweep_strat).to_json()),
            "sweep-csv": ("\n".join(csv) + "\n").encode(),
            "search-best": _canonical_json(best_guaranteed_correct(self.best_inst).to_json(self.best_inst)),
            "search-relay4": _canonical_json(exists_winning_exhaustive(self.relay_inst).to_json(self.relay_inst)),
            "line": _canonical_json(line),
            "verify": verify,
        }

    def operations(self):
        expected = self._expected()
        calls = [
            ("run", ["run", "--kind", "hbsf", "-m", "6", "-c", "3", "--rule", "fewer_incorrect:2",
                     "--strategy", "sum_broadcast",
                     "--assignment", ",".join(map(str, self.run_assignment))], 0, ""),
            ("sweep", ["sweep", "--kind", "hnsa", "-m", "6", "-c", "3", "--rule", "at_least:2",
                       "--strategy", "block_mod_sum:n=2"], 0, ""),
            ("sweep-csv", ["sweep", "--kind", "hbsf", "-m", "5", "-c", "3", "--rule", "fewer_incorrect:2",
                           "--strategy", "sum_broadcast", "--format", "csv"], 0, ""),
            ("search-best", ["search", "--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1",
                             "--mode", "best"], 0, ""),
            # The descriptor's own rule is replaced by --rule; no winner exists, so
            # --expect yes fails with exit 1.
            ("search-relay4", ["search", "--instance", json.dumps(RELAY4), "--rule", "fewer_incorrect:1",
                               "--expect", "yes"], 1, ""),
            ("line", ["line", "--strategy", "sum_broadcast", "-c", "2", "--blocks", "1",
                      "--assignment-base", "0", "--exception", "0,3,1", "--front", "1"], 0, ""),
            ("verify", ["verify", "--only", "broadcast-exhaustive"], 0, ""),
            ("config-error", ["run", "--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1",
                              "--strategy", "no_such_strategy", "--assignment", "0,0,0"], 2, "config error"),
            ("budget-error", ["search", "--kind", "hnsa", "-m", "4", "-c", "2", "--rule", "at_least:2"],
             3, "budget error"),
        ]
        env = dict(os.environ, PYTHONPATH=self.src)
        env.pop("HATLAB_BUDGET", None)
        ops = []
        for name, args, code, stderr in calls:
            argv = [sys.executable, "-m", "hatlab.cli", *args]
            ops.append(Op(name, "cli.call",
                          lambda argv=argv: subprocess.run(argv, env=env, capture_output=True, timeout=120),
                          _cli_summary, {"exit": code, "stdout": expected.get(name, b""), "stderr": stderr},
                          counts=lambda proc: {"stdout_bytes": len(proc.stdout)}, env=env))
        return ops


WORKLOADS = {cls.name: cls for cls in (SweepRules, PlaysTables, Search, Cli)}
