"""hatlab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload sweep-rules --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it imports hatlab from the checkout's
``src`` and exits 2 without a result when that is missing. Each run:

1. sets the workload up in this process, then (untraced runs only) times the
   same set-up in nine fresh processes (``setup_s`` is their median, since a
   process pays the import and the first play only once);
2. repeats the workload's fixed list of operations ("a pass") until the next
   pass would end after ``--seconds``, with at least three passes;
3. times each operation alone and scales it to a nominal machine speed
   (see ``speed.py``), then checks its answer outside the timed region;
4. prints one line per metric with its unit, then a JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
passes alternate between plain ones and ones with a counting shim around
``Strategy.decide``; the run reports the per-layer metrics and writes its
spans to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import DecideShim, Tracer, duration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
MIN_PASSES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)

END_TO_END = {"setup_s": "s", "wall_s": "s"}

SWEEPS = ("hbsf-10x3", "hnsa-9x3-blocks", "hnsa-9x3-const", "hnsf-8x3-table", "hnsa-7x3-table")
SEARCHES = ("hnsf-4x2", "hnsa-2x4", "relay4-best", "relay4-exists", "ring5-best", "ring5-exists",
            "hnsa-3x2", "hbsf-3x2")
CLI_CALLS = ("run", "sweep", "sweep-csv", "search-best", "search-relay4", "line", "verify",
             "config-error", "budget-error")
DECIDE_LABELS = ("sum_broadcast", "combined", "table")

PER_LAYER = {
    "model.build_ms": "ms",
    "engine.compile_ms": "ms",
    "engine.play_us": "us",
    **{f"engine.sweep_s.{name}": "s" for name in SWEEPS},
    "engine.stream_s": "s",
    "engine.plays": "count",
    "engine.steps": "count",
    "engine.self_s": "s",
    "strategies.decide_calls": "count",
    "strategies.decide_s": "s",
    **{f"strategies.decide_us.{label}": "us" for label in DECIDE_LABELS},
    "strategies.build_ms": "ms",
    "oracle.space_ms": "ms",
    "oracle.census_s": "s",
    **{f"oracle.{what}.{name}": unit for what, unit in
       (("verdict_s", "s"), ("examined", "count"), ("pruned", "count"), ("prune_ratio", "ratio"))
       for name in SEARCHES},
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.call_ms.{name}": "ms" for name in CLI_CALLS},
    "cli.stdout_bytes": "bytes",
    "proc.peak_rss_mb": "MB",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

PLAY_LAYERS = ("engine.sweep", "engine.stream", "oracle.census")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every instance (for the self-test)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def make_workload(args):
    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        return cls(args.seed, args.size, src=str(SRC))
    return cls(args.seed, args.size)


def check_import_source() -> None:
    import hatlab

    if SRC not in Path(hatlab.__file__).resolve().parents:
        raise SystemExit(f"hatlab was imported from {hatlab.__file__}, not from {SRC}")


# --- measuring -------------------------------------------------------------------

def probe_setup(args) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--size", args.size,
            "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_pass(ops, tr: Tracer, shim: DecideShim | None) -> dict:
    """One pass over the operations; each is timed alone, scaled to nominal
    machine speed, and checked after."""
    gc.collect()
    rec = {"shim": shim is not None, "op_s": {}, "counts": {}, "decide": {}, "failed": []}
    if shim:
        shim.install()
    cpu = os.times()
    try:
        with tr.span("pass", shim=shim is not None):
            for op in ops:
                before = shim.snapshot() if shim else None
                with tr.span(op.layer, op=tr.new_op(), instance=op.name) as span:
                    result, error, seconds, factor = speed.measure(op.call, op.env)
                span.update(seconds=seconds, scale=factor)
                rec["op_s"][op.name] = seconds * factor
                if shim:
                    calls, secs = shim.snapshot()
                    rec["decide"][op.name] = (
                        {k: calls[k] - before[0].get(k, 0) for k in calls},
                        {k: (secs[k] - before[1].get(k, 0.0)) * factor for k in secs},
                    )
                span["ok"] = error is None and _answer_ok(op, result)
                if span["ok"]:
                    rec["counts"][op.name] = op.counts(result) if op.counts else {}
                else:
                    rec["failed"].append(op.name)
                    print(f"FAILED {op.name}: {error!r}" if error else f"FAILED {op.name}: wrong answer",
                          file=sys.stderr)
                del result
    finally:
        if shim:
            shim.remove()
    rec["cpu_s"] = sum(os.times()[:4]) - sum(cpu[:4])
    rec["wall_s"] = sum(rec["op_s"].values())
    return rec


def _answer_ok(op, result) -> bool:
    try:
        got = op.summarize(result)
    except Exception as exc:  # a malformed result is a wrong answer
        print(f"{op.name}: cannot read result: {exc!r}", file=sys.stderr)
        return False
    if got != op.expect:
        print(f"{op.name}: got {str(got)[:300]}, expected {str(op.expect)[:300]}", file=sys.stderr)
    return got == op.expect


def run_passes(ops, tr: Tracer, seconds: float, shim: DecideShim | None = None) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least
    ``MIN_PASSES``. With a shim, every second pass is shimmed."""
    start = perf_counter()
    passes: list[dict] = []
    last = {False: 0.0, True: 0.0}
    while True:
        shimmed = shim is not None and len(passes) % 2 == 1
        began = perf_counter()
        passes.append(run_pass(ops, tr, shim if shimmed else None))
        last[shimmed] = perf_counter() - began
        upcoming = shim is not None and len(passes) % 2 == 1
        predicted = last[upcoming] or last[shimmed]
        if len(passes) >= MIN_PASSES and perf_counter() + predicted - start > seconds:
            return passes


def cli_reference_ms(n=5) -> tuple[float, float]:
    """Raw ``python -c pass`` and scaled ``import hatlab.cli`` minus the
    nominal interpreter start, in ms, each the median of ``n``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp = [speed.interpreter_s(env) for _ in range(n)]
    imports = []
    for _ in range(n):
        _, error, seconds, factor = speed.measure(
            lambda: subprocess.run([sys.executable, "-c", "import hatlab.cli"], env=env, timeout=60, check=True),
            env)
        if error:
            raise error
        imports.append(seconds * factor - speed.INTERPRETER_S)
    return statistics.median(interp) * 1000, statistics.median(imports) * 1000


def warm_plays(games, repeats=7) -> dict[str, float]:
    """Median seconds of a warm ``run_game`` per instance played in set-up."""
    from hatlab import run_game

    def play_all():
        out = {}
        for name, inst, strat in games:
            zeros = (0,) * len(inst.players)
            samples = []
            for _ in range(repeats):
                began = perf_counter()
                run_game(inst, strat, zeros)
                samples.append(perf_counter() - began)
            out[name] = statistics.median(samples)
        return out

    out, error, _, factor = speed.measure(play_all)
    if error:
        raise error
    return {name: s * factor for name, s in out.items()}


# --- metrics ---------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile of ``TAIL_LADDER`` with at least ten samples
    beyond it (nearest rank), or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def end_to_end(passes, setup_samples) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
    }


def per_layer(ops, passes, tr: Tracer, warm: dict[str, float], cli_ms: tuple[float, float]) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0)
    plain = [p for p in passes if not p["shim"]]
    shimmed = [p for p in passes if p["shim"]]
    med = statistics.median

    setup_scale = tr.named("setup")[0]["scale"]

    def total_ms(span_name):
        return sum(duration(s) for s in tr.named(span_name)) * 1000 * setup_scale

    out["model.build_ms"] = total_ms("model.build")
    out["strategies.build_ms"] = total_ms("strategies.build")
    out["oracle.space_ms"] = total_ms("oracle.space")
    if warm:
        out["engine.compile_ms"] = total_ms("engine.first_play") - sum(warm.values()) * 1000
        out["engine.play_us"] = med(warm.values()) * 1e6

    for op in ops:
        op_s = med(p["op_s"][op.name] for p in plain)
        if op.layer == "engine.sweep":
            out[f"engine.sweep_s.{op.name}"] = op_s
        elif op.layer == "engine.stream":
            out["engine.stream_s"] = op_s
        elif op.layer == "oracle.census":
            out["oracle.census_s"] = op_s
        elif op.layer == "oracle.verdict":
            counts = plain[0]["counts"].get(op.name, {})
            examined, pruned = counts.get("examined", 0), counts.get("pruned", 0)
            out[f"oracle.verdict_s.{op.name}"] = op_s
            out[f"oracle.examined.{op.name}"] = examined
            out[f"oracle.pruned.{op.name}"] = pruned
            out[f"oracle.prune_ratio.{op.name}"] = pruned / (pruned + examined) if pruned + examined else 0
        elif op.layer == "cli.call":
            out[f"cli.call_ms.{op.name}"] = op_s * 1000
            out["cli.stdout_bytes"] += plain[0]["counts"].get(op.name, {}).get("stdout_bytes", 0)
    out["engine.plays"] = sum(op.plays for op in ops if op.layer in PLAY_LAYERS)
    out["engine.steps"] = sum(op.steps for op in ops if op.layer in PLAY_LAYERS)

    def decide_totals(p, label=None):
        calls = secs = 0
        for op_calls, op_secs in p["decide"].values():
            for key in op_calls:
                if label is None or key == label:
                    calls += op_calls[key]
                    secs += op_secs[key]
        return calls, secs

    def engine_self(p):
        return sum(p["op_s"][op.name] - sum(p["decide"][op.name][1].values())
                   for op in ops if op.layer in ("engine.sweep", "engine.stream"))

    if shimmed:
        out["strategies.decide_calls"] = med(decide_totals(p)[0] for p in shimmed)
        out["strategies.decide_s"] = med(decide_totals(p)[1] for p in shimmed)
        out["engine.self_s"] = med(engine_self(p) for p in shimmed)
        for label in DECIDE_LABELS:
            per_call = [secs / calls * 1e6 for calls, secs in (decide_totals(p, label) for p in shimmed) if calls]
            if per_call:
                out[f"strategies.decide_us.{label}"] = med(per_call)
        out["trace.overhead_s"] = med(p["wall_s"] for p in shimmed) - med(p["wall_s"] for p in plain)

    out["cli.interp_ms"], out["cli.import_ms"] = cli_ms
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["proc.peak_rss_mb"] = max(own, children) / 1024
    out["proc.cpu_s"] = med(p["cpu_s"] for p in plain)
    return out


# --- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hatlab" / "__init__.py").is_file():
        print(f"no hatlab sources at {SRC}; run inside a hatlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed.pin_to_one_cpu()
    wl = make_workload(args)
    tr = Tracer()
    if args.probe_setup:
        speed.reference_s()  # warm the reference itself
        _, error, seconds, factor = speed.measure(lambda: wl.setup(tr))
        if error:
            raise error
        print(seconds * factor)
        return 0

    with tr.span("setup") as span:
        _, error, _, span["scale"] = speed.measure(lambda: wl.setup(tr))
    if error:
        raise error
    check_import_source()
    ops = wl.operations()
    warm = warm_plays(wl.games) if args.trace else {}
    setup_samples = [] if args.trace else probe_setup(args)
    shim = DecideShim(wl.strategies) if args.trace else None
    passes = run_passes(ops, tr, args.seconds, shim)

    plain = [p for p in passes if not p["shim"]]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    print(f"hatlab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"python {platform.python_version()}, {os.cpu_count()} cpus; {len(passes)} passes "
          f"({len(plain)} plain), {attempted} operations")
    if args.trace:
        metrics = per_layer(ops, passes, tr, warm, cli_reference_ms())
        units = PER_LAYER
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
        write_trace(args, tr, metrics)
    else:
        metrics = end_to_end(plain, setup_samples)
        units = END_TO_END
        print_end_to_end(args.workload, ops, plain, metrics, setup_samples)
    print(f"{'failed_ops_ratio':40s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def print_end_to_end(workload, ops, plain, metrics, setup_samples) -> None:
    """The gated metrics, plus metrics that apply to some workloads only and
    so are printed for reading but not gated (see README.md)."""
    print(f"{'setup_s':40s} {metrics['setup_s']:14.6g} s  (median of {len(setup_samples)} fresh processes)")
    print(f"{'wall_s':40s} {metrics['wall_s']:14.6g} s  (median of {len(plain)} passes)")
    plays = sum(op.plays for op in ops if op.layer in PLAY_LAYERS)
    if plays:
        print(f"{'plays_per_s':40s} {plays / metrics['wall_s']:14.6g} plays/s  ({plays} plays per pass)")
    if workload == "cli":
        calls = [s * 1000 for p in plain for s in p["op_s"].values()]
        print(f"{'call_ms_p50':40s} {statistics.median(calls):14.6g} ms  (median of {len(calls)} calls)")
        found = tail(calls)
        if found:
            print(f"{'call_ms_tail':40s} {found[1]:14.6g} ms  (p{found[0]} of {len(calls)} calls)")
        else:
            print(f"{'call_ms_tail':40s} {'n/a':>14s} ms  ({len(calls)} calls; a tail needs 20)")


def write_trace(args, tr: Tracer, metrics) -> None:
    OUT.mkdir(exist_ok=True)
    origin = tr.spans[0]["start"] if tr.spans else 0.0
    spans = [{**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in tr.spans]
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                                "metrics": metrics, "spans": spans}, indent=1))


if __name__ == "__main__":
    sys.exit(main())
