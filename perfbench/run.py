"""Benchmark of the hodnet CLI over four workloads.

    python3 perfbench/run.py --workload {converge,gen,verify,walsh} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI is run from ./src.  The
load is a closed loop: one single-threaded CLI process at a time.  A round
runs each of the workload's invocations once, in an order drawn from the
seed, each in a fresh process; rounds repeat until S seconds have passed
(at least two).  Every output is checked against a reference that does not
come from the code path that produced it (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
rounds with traced ones (tracer.py) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
The full record, with the span trees of a traced run, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 30
MIN_ROUNDS = 2
INVOCATION_TIMEOUT_S = 60
# No child starts later than this after start-up, so a hung program still
# lets the run finish within 180 s; children it skips count as failed.
RUN_BUDGET_S = 150


@dataclass
class Call:
    label: str
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    timed_out: bool
    output: bytes
    trace: dict | None = None


@dataclass
class Round:
    traced: bool
    calls: list[Call] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.calls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], out: Path, name: str, deadline: float) -> tuple:
    """Run one child to completion, stdout and stderr to files in ``out``;
    returns wall seconds, user+sys seconds, max RSS in MiB, exit code,
    timed out, stdout.  Past ``deadline`` the child is not started."""
    timeout = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return 0.0, 0.0, 0.0, -1, True, b""
    out_path, err_path = out / f"{name}.out", out / f"{name}.err"
    killed = threading.Event()

    with open(out_path, "wb") as stdout, open(err_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode,
            killed.is_set(), out_path.read_bytes())


def run_call(inv, traced: bool, out: Path, deadline: float) -> Call:
    if traced:
        spans = out / f"{inv.label}.trace.json"
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), "trace", str(spans), *inv.args]
    else:
        argv = [sys.executable, "-m", "hodnet.cli", *inv.args]
    call = Call(inv.label, traced, *spawn(argv, out, inv.label, deadline))
    if traced and spans.exists():
        call.trace = json.loads(spans.read_text())
    return call


def setup_times(wl, out: Path, deadline: float) -> tuple[list[float], int]:
    """Set-up seconds of fresh interpreters, after one uncounted warm-up
    that lets the bytecode cache fill; and the number of failed probes.
    A failed probe counts with the wall time its parent saw."""
    argv = [sys.executable, str(HERE / "tracer.py"), "setup", json.dumps(wl.builds)]
    times, failed = [], 0
    for i in range(SETUP_PROBES + 1):
        wall, _, _, rc, timed_out, stdout = spawn(argv, out, "setup", deadline)
        try:
            value = float(stdout.decode().strip())
        except ValueError:
            value = None
        if rc or timed_out or value is None:
            failed += 1
            value = wall
        if i:
            times.append(value)
    return times, failed


def run_rounds(wl, rng: random.Random, seconds: float, trace: bool, out: Path,
               deadline: float) -> list[Round]:
    """Closed loop until `seconds` pass; untraced and traced rounds alternate
    when tracing, so both see the same machine conditions."""
    rounds: list[Round] = []
    start = time.perf_counter()

    def enough() -> bool:
        now = time.perf_counter()
        kinds = {r.traced for r in rounds}
        need = {False, True} if trace else {False}
        return kinds >= need and (
            now >= deadline or (len(rounds) >= MIN_ROUNDS and now - start >= seconds))

    while not enough():
        traced = trace and len(rounds) % 2 == 1
        order = list(wl.invocations)
        rng.shuffle(order)
        rounds.append(Round(traced, [run_call(inv, traced, out, deadline) for inv in order]))
    return rounds


def check_rounds(wl, rounds: list[Round], rng: random.Random) -> tuple[dict, int]:
    """Check metrics (worst over rounds) and the number of failed invocations."""
    from checks import Unparsable, without_elapsed

    failed = 0
    results: dict[str, float] = {}
    cache: dict[tuple, dict] = {}
    first: dict[str, bytes] = {}
    repeats = diffs = diffs_no_elapsed = 0
    for rnd in rounds:
        bad = [c for c in rnd.calls if c.rc or c.timed_out]
        failed += len(bad)
        for c in rnd.calls:
            if c.label in first:
                repeats += 1
                diffs += c.output != first[c.label]
                diffs_no_elapsed += without_elapsed(c.output) != without_elapsed(first[c.label])
            else:
                first[c.label] = c.output
        if bad:
            continue
        key = tuple(sorted((c.label, hashlib.sha256(c.output).digest()) for c in rnd.calls))
        if key not in cache:
            outputs = {c.label: c.output.decode(errors="replace") for c in rnd.calls}
            try:
                cache[key] = wl.check(outputs, rng)
            except Unparsable as exc:
                print(f"unparsable output: {exc}", file=sys.stderr)
                cache[key] = None
        if cache[key] is None:
            failed += 1
            continue
        for name, value in cache[key].items():
            results[name] = max(results.get(name, value), value)
    results["rerun_diff_frac"] = diffs / repeats if repeats else 0.0
    results["rerun_diff_frac_no_elapsed"] = diffs_no_elapsed / repeats if repeats else 0.0
    return results, failed


def layer_metrics(rnd: Round) -> dict:
    """Per-layer metrics of one traced round, summed over its invocations."""
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    counters: dict[str, float] = {}
    imports, covered = [], 0.0
    for call in rnd.calls:
        if not call.trace:
            continue
        for name, parent, start, end, cov in call.trace["spans"]:
            if end is None:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - cov
            incl[name] = incl.get(name, 0.0) + end - start
            if parent < 0:
                covered += end - start
            if name == "import":
                imports.append(end - start)
        for name, value in call.trace["counters"].items():
            if name.endswith(".bytes"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def rate(work: float, secs: float) -> float:
        return work / secs if secs > 0 else 0.0

    points_s = sum(v for k, v in self_s.items() if k.startswith("points."))
    out = {
        "import.s": statistics.median(imports) if imports else 0.0,
        "matrices.build_matrices.s": self_s.get("matrices.build_matrices", 0.0),
    }
    for name in ("points.net_digits", "points.net_values", "points.format_points_csv",
                 "points.format_points_digits", "kernel.wce", "quality.min_dual_weight",
                 "quality.certify_net", "walsh.iter_kernel_coeffs",
                 "walsh.bernoulli_walsh_coeff"):
        out[name + ".s"] = self_s.get(name, 0.0)
    out["points.values_per_s"] = rate(counters.get("points.values", 0), points_s)
    out["points.net_digits.mb"] = counters.get("points.net_digits.bytes", 0) / 2**20
    out["kernel.wce.calls"] = counters.get("kernel.wce.calls", 0)
    out["kernel.wce.pair_evals"] = counters.get("kernel.wce.pair_evals", 0)
    out["kernel.wce.pair_evals_per_s"] = rate(out["kernel.wce.pair_evals"], out["kernel.wce.s"])
    out["quality.dick_weight.calls"] = counters.get("quality.dick_weight.calls", 0)
    out["walsh.pairs_per_s"] = rate(counters.get("walsh.iter_kernel_coeffs.items", 0),
                                    incl.get("walsh.iter_kernel_coeffs", 0.0))
    out["cyclotomic.Cyclotomic.new"] = counters.get("cyclotomic.Cyclotomic.new.calls", 0)
    out["cyclotomic.to_complex.s"] = counters.get("cyclotomic.to_complex.s", 0.0)
    out["gf.is_prime.calls"] = counters.get("gf.is_prime.calls", 0)
    for cmd in ("converge", "gen", "verify", "walsh"):
        out[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
    out["trace.coverage"] = rate(covered, rnd.wall)
    return out


def oracle_check(out: Path, deadline: float) -> tuple[float, int]:
    """Seconds of the exact wce oracle on the first 2**ORACLE_M points of
    ORACLE_RUN's net, and 1 when its e**2 differs from the committed one."""
    from workloads import ORACLE_M, ORACLE_RUN, converge_refs

    path = out / "oracle.json"
    run = ORACLE_RUN
    argv = [sys.executable, str(HERE / "tracer.py"), "oracle", str(path),
            *(str(v) for v in (run.alpha, run.dims, run.m_max, ORACLE_M))]
    _, _, _, rc, timed_out, _ = spawn(argv, out, "oracle", deadline)
    if rc or timed_out:
        return 0.0, 1
    data = json.loads(path.read_text())
    want = next(row["e2"] for row in converge_refs()[run.key] if row["m"] == ORACLE_M)
    return data["s"], int(data["e2"] != want)


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "src_hodnet_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "hodnet").glob("*.py"))
        ),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = "missing"
    env["commit"] = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if res.returncode == 0:
            env["commit"] = res.stdout.strip()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hodnet" / "cli.py").is_file():
        print(f"error: no hodnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import CHECKS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    out = HERE / "out" / wl.name
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup, setup_failed = ([], 0) if args.trace else setup_times(wl, out, deadline)
    rounds = run_rounds(wl, rng, args.seconds, bool(args.trace), out, deadline)
    checks, failed = check_rounds(wl, rounds, rng)
    failed += setup_failed
    attempted = sum(len(r.calls) for r in rounds) + (0 if args.trace else SETUP_PROBES + 1)
    checks["failed_frac"] = failed / attempted

    untraced = [r for r in rounds if not r.traced]
    wall = statistics.median(r.wall for r in untraced)
    items = sum(inv.items for inv in wl.invocations)
    if args.trace:
        traced = [r for r in rounds if r.traced]
        per_round = [layer_metrics(r) for r in traced]
        layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        layers["trace.overhead_s"] = statistics.median(r.wall for r in traced) - wall
        layers["kernel.wce_squared_exact.s"] = 0.0
        if wl.name == "converge":
            layers["kernel.wce_squared_exact.s"], checks["oracle_mismatch"] = oracle_check(out, deadline)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu for r in untraced),
            "peak_rss_mb": max(c.rss_mb for r in untraced for c in r.calls),
            "s_per_mitem": wall / (items / 1e6),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    ceilings = json.loads((HERE / "data" / "known_defects.json").read_text())["ceilings"]
    allowed = ceilings.get(wl.name, {})

    def within(name: str, value: float) -> bool:
        ceiling = allowed.get(name, 0)
        return ceiling is None or value <= ceiling

    correct = all(within(k, v) for k, v in checks.items())

    print(f"hodnet benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"rounds: {len(untraced)} untraced, {len(rounds) - len(untraced)} traced; "
          f"{items} work items per round; setup probes: {len(setup)}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("checks (value, known-defect ceiling or reported only):")
    for name, (unit, applies) in CHECKS.items():
        if applies not in (None, wl.name):
            print(f"  {name:34s} {'n/a':>16s}")
            continue
        value = checks.get(name, 0)
        ceiling = allowed.get(name, 0)
        limit = "reported" if ceiling is None else f"ceiling {ceiling:g}"
        mark = "ok" if within(name, value) else "FAIL"
        print(f"  {name:34s} {value:>16.6g} {unit:6s} {limit} {mark}")
    if "oracle_mismatch" in checks:
        print(f"  {'oracle_mismatch':34s} {checks['oracle_mismatch']:>16d} count")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics, "checks": checks, "setup_s": setup,
        "rounds": [
            {"traced": r.traced, "calls": [
                {"label": c.label, "wall_s": c.wall, "cpu_s": c.cpu, "rss_mb": c.rss_mb,
                 "rc": c.rc, "timed_out": c.timed_out, "trace": c.trace}
                for c in r.calls]}
            for r in rounds
        ],
    }
    (out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
