"""fuchslab benchmark: a closed loop of CLI requests, with answers checked.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One client drives `fuchslab.cli.run(argv + ["--json", "--no-timings"])`
in-process and sends each request after the previous one returns. Every
request starts from cold library caches, as in a fresh `fuchslab` process,
and FUCHSLAB_THREADS is removed so the library's default worker count is
measured. A pass issues each request of the workload once, in an order
drawn from --seed; another pass starts only if it would end within
--seconds at the pace of the slowest pass so far, and every figure is a
median over whole passes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see tracer.py) and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run from a checkout of the repository: the library is imported from
`src/` next to this directory, and without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12  # at least; SETUP_PER_PASS are taken before each pass
SETUP_PER_PASS = 3
CLI_FLAGS = ["--json", "--no-timings"]
_SETUP_CHILD = (
    "import time, fuchslab.cli\n"
    "argv = {argv!r} + {flags!r}\n"
    "print(time.monotonic(), fuchslab.cli.__file__)\n"
)


class Library:
    """The fuchslab modules under test, and the caches a fresh process lacks."""

    def __init__(self) -> None:
        if not (SRC / "fuchslab" / "cli.py").is_file():
            raise FileNotFoundError(f"no fuchslab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.modules = {
            name: importlib.import_module(f"fuchslab.{name}") for name in tracing.LAYERS
        }
        where = Path(self.modules["cli"].__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise FileNotFoundError(f"fuchslab was imported from {where}, not {SRC}")
        self.cli = self.modules["cli"]
        self._cache_clears = {
            id(obj): obj.cache_clear
            for mod in self.modules.values()
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
            and (getattr(obj, "__module__", "") or "").startswith("fuchslab")
        }

    def cold_caches(self) -> None:
        for clear in self._cache_clears.values():
            clear()

    def worker_count(self) -> int:
        fn = getattr(self.modules["endo"], "worker_count", None)
        return fn() if fn is not None else 1


@dataclass
class Outcome:
    request: workloads.Request
    latency: float
    exit_code: int | None
    stdout: str
    stderr: str
    report: dict | None = None
    problems: list[str] = field(default_factory=list)


def call(lib: Library, req: workloads.Request, tracer=None) -> Outcome:
    """Run one request from cold caches; time it; check its answer."""
    lib.cold_caches()
    out, err = io.StringIO(), io.StringIO()
    argv = list(req.argv) + CLI_FLAGS
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = lib.cli.run(argv)
            else:
                code = tracer.run_request(lambda: lib.cli.run(argv))
        except (Exception, SystemExit):
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
    o = Outcome(req, latency, code, out.getvalue(), err.getvalue())
    try:
        o.report = json.loads(o.stdout) if o.stdout.strip() else None
    except json.JSONDecodeError:
        o.report = None
    if "Traceback" in o.stderr:
        o.problems = ["traceback: " + o.stderr.strip().splitlines()[-1][:200]]
    else:
        o.problems = workloads.check(req, code, o.report, o.stderr)
    return o


class Loop:
    """Runs passes and keeps every outcome; flags answers that vary."""

    def __init__(self, lib: Library, requests: list, seed: int) -> None:
        self.lib = lib
        self.requests = requests
        self.rng = random.Random(seed)
        self.first_answer: dict[tuple, str] = {}
        self.orders: list[list[str]] = []
        self.outcomes: list[Outcome] = []

    def run_pass(self, tracer=None) -> tuple[float, list[Outcome]]:
        order = self.requests[:]
        self.rng.shuffle(order)
        self.orders.append([" ".join(r.argv) for r in order])
        done = []
        t0 = time.perf_counter()
        for req in order:
            o = call(self.lib, req, tracer)
            seen = self.first_answer.setdefault(req.argv, o.stdout)
            if seen != o.stdout:
                o.problems.append("answer differs from an earlier pass in another order")
            done.append(o)
        wall = time.perf_counter() - t0
        self.outcomes.extend(done)
        return wall, done


def measure_setup(first: workloads.Request, count: int) -> list[float]:
    """Seconds from interpreter start until fuchslab.cli is imported and the
    first request's argv is ready, in `count` fresh processes."""
    env = {k: v for k, v in os.environ.items() if k not in ("FUCHSLAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    code = _SETUP_CHILD.format(argv=list(first.argv), flags=CLI_FLAGS)
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        ready, where = proc.stdout.split(maxsplit=1)
        if SRC.resolve() not in Path(where.strip()).resolve().parents:
            raise RuntimeError(f"set-up imported fuchslab from {where.strip()}")
        samples.append(float(ready) - start)
    return samples


def probe_blocked(lib: Library) -> tuple[list[dict], bool]:
    """Untimed requests that the seed refuses over a budget. An entry changes
    when an algorithm lifts the budget; a wrong answer is still wrong."""
    entries, ok = [], True
    for req in workloads.BLOCKED:
        o = call(lib, req)
        lines = o.stderr.strip().splitlines()
        if o.exit_code == 3 and "Traceback" not in o.stderr:
            status = "blocked"
        elif not o.problems:
            status = "unblocked"
        else:
            status, ok = "wrong", False
        entries.append({"argv": " ".join(req.argv), "status": status,
                        "exit_code": o.exit_code, "error": lines[-1] if lines else None})
    return entries, ok


def environment(lib: Library) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fuchslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "worker_count": lib.worker_count(),
        "FUCHSLAB_THREADS": "removed",
    }


def kernel_cases(lib: Library, rng: random.Random) -> dict[str, float]:
    """gf2 kernels timed directly: spans around ~10^6 calls would distort."""
    groups, algebra, gf2 = lib.modules["groups"], lib.modules["algebra"], lib.modules["gf2"]
    # the C2^6 witness orbit: x_b * (1 + g)(1 + h) for all basis b and g != h
    a = algebra.group_algebra(groups.parse_group("C2^6"))
    one = a.one_vector
    pairs = [a.mul(one ^ (1 << i), one ^ (1 << j))
             for i in range(1, a.dim) for j in range(1, a.dim) if i != j]
    orbit = [a.mul(1 << b, v) for b in range(a.dim) for v in pairs]
    t0 = time.perf_counter()
    gf2.rref(orbit)
    rref_ns = (time.perf_counter() - t0) * 1e9 / len(orbit)
    # reduce_vector against the C2^3 x C4 witness ideal's basis
    construct = lib.modules["constructions"].construct_witness
    basis = construct(groups.parse_group("C2^3 x C4")).ideal.rref_basis
    vectors = [rng.getrandbits(32) for _ in range(50_000)]
    reduce_vector = gf2.reduce_vector
    t0 = time.perf_counter()
    for v in vectors:
        reduce_vector(v, basis)
    reduce_ns = (time.perf_counter() - t0) * 1e9 / len(vectors)
    return {"gf2.rref.ns_per_row": rref_ns, "gf2.reduce_vector.ns_per_call": reduce_ns}


def _examined(done: list[Outcome]) -> int:
    return sum((o.report or {}).get("ideals_examined") or 0
               for o in done if o.request.command == "search")


def run_untraced(lib: Library, loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    # set-up samples are spread over the run, between passes, so that one
    # slow spell of the machine does not move all of them
    setup, walls, pass_p50, steps = [], [], [], []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        setup += measure_setup(loop.requests[0], SETUP_PER_PASS)
        wall, done = loop.run_pass()
        walls.append(wall)
        pass_p50.append(statistics.median(o.latency for o in done))
        steps.append(time.perf_counter() - step_start)
        if time.perf_counter() - start + max(steps) > seconds:
            break
    setup += measure_setup(loop.requests[0], max(0, SETUP_SAMPLES - len(setup)))
    outs = loop.outcomes
    lat = sorted(o.latency for o in outs)
    n_req = len(loop.requests)
    verify_s = sum(o.latency for o in outs if o.request.command == "verify")
    verify_endos = sum(o.request.expect["group_endos"] for o in outs
                       if o.request.command == "verify")
    search_s = sum(o.latency for o in outs if o.request.command == "search")
    examined = _examined(outs)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "requests_per_s": (statistics.median(n_req / w for w in walls), "1/s", len(walls)),
        # the median of each pass's median request: a two-request pass has
        # no middle request, and pooling its samples would pick an extreme
        "latency_p50_ms": (statistics.median(pass_p50) * 1e3, "ms", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {}
    if len(lat) >= 100:  # at least ten samples beyond p90
        extra["latency_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms", len(lat))
    if verify_s:
        extra["endos_per_s"] = (verify_endos / verify_s, "1/s", len(walls))
    if search_s:
        extra["ideals_per_s"] = (examined / search_s, "1/s", len(walls))
    failed = sum(1 for o in outs if o.problems)
    extra["ops_failed_ratio"] = (failed / len(outs), "ratio", len(outs))
    lines = [f"{name:<26}{value:>14.6g} {unit:<6} n={n}"
             for name, (value, unit, n) in {**metrics, **extra}.items()]
    lines.append(f"pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def run_traced(lib: Library, loop: Loop, seconds: float, rng: random.Random) -> tuple[dict, list[str], list[str]]:
    start = time.perf_counter()
    kernels = kernel_cases(lib, rng)
    untraced, traced, per_pass, problems = [], [], [], []
    while True:
        wall, _ = loop.run_pass()
        untraced.append(wall)
        tr = tracing.Tracer(lib.modules)
        tr.install()
        try:
            wall, done = loop.run_pass(tr)
        finally:
            tr.uninstall()
        traced.append(wall)
        problems += tracing.check_nesting(tr.spans)
        per_pass.append(tracing.layer_metrics(tr, _examined(done), lib.worker_count()))
        if time.perf_counter() - start + max(untraced) + max(traced) > seconds:
            break
    # median_low keeps counts whole when the number of passes is even
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(kernels)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    lines = [f"{name:<42}{v:>14.6g} {tracing.unit_of(name)}"
             f"{'  (printed only)' if name in tracing.PRINTED_ONLY else ''}"
             for name, v in metrics.items()]
    lines.append(f"(medians over {len(traced)} traced and {len(untraced)} untraced passes)")
    out = {name: {"value": v, "unit": tracing.unit_of(name)}
           for name, v in metrics.items() if name not in tracing.PRINTED_ONLY}
    return out, lines, problems


def run_one(args) -> int:
    os.environ.pop("FUCHSLAB_THREADS", None)
    try:
        lib = Library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the library under test: {exc}", file=sys.stderr)
        return 2
    loop = Loop(lib, workloads.WORKLOADS[args.workload], args.seed)
    blocked, blocked_ok = probe_blocked(lib)
    if args.trace:
        metrics, lines, problems = run_traced(lib, loop, args.seconds, random.Random(args.seed))
    else:
        metrics, lines = run_untraced(lib, loop, args.seconds)
        problems = []
    failed = [o for o in loop.outcomes if o.problems]
    info = {
        "workload": args.workload, "seed": args.seed,
        "order_of_first_pass": loop.orders[0], "passes": len(loop.orders),
        "blocked": blocked, "excluded": workloads.EXCLUDED, "env": environment(lib),
    }
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
    for line in lines:
        print(line)
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.request.argv)}: {'; '.join(o.problems)}")
    for p in problems[:10]:
        print(f"TRACE {p}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems and blocked_ok,
        "attempted": len(loop.outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        for line in lines[:-2]:
            print(line)
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
