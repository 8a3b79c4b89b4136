"""Self-test of the benchmark, not of the library: python3 perfbench/selfcheck.py

Checks that
  1. the independent expectations say what the paper and the formula say;
  2. a deliberately wrong expected value is counted as a failed request;
  3. an answer that changes between passes is counted as a failed request;
  4. the traced run's spans nest, per request the self times sum to the
     request span, a corrupted span is caught, and the tracer restores
     every attribute it replaced;
  5. without the library next to it, run.py exits non-zero and prints no
     result.
Prints one line per check and exits 1 if any fails. Takes a few seconds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run
import tracer as tracing
import workloads
from workloads import Request

FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def check_expectations() -> None:
    sweep = workloads.WORKLOADS["witness-sweep"]
    constructs = [r for r in sweep if r.command == "construct"]
    verifies = [r for r in sweep if r.command == "verify"]
    expect("sweep has the 20 fully realizable groups of order <= 64",
           len(constructs) == 20 and all(r.expect["fully_realizable"] for r in constructs))
    expect("sweep verifies the 14 groups with |End| <= 4096", len(verifies) == 14)
    expect("|End(C2^4)| and |End(C2^3 x C4)| by the gcd formula",
           [r.expect["group_endos"] for r in workloads.WORKLOADS["verify-large"]]
           == [65536, 131072])
    expect("classification rejects C4 x C4, C3 x C3, C2 x C8, C24, C5",
           not any(workloads.fully_realizable(workloads.cyclic_orders(s))
                   for s in ("C4 x C4", "C3 x C3", "C2 x C8", "C24", "C5")))
    expect("canonical names are invariant factors",
           [workloads.canonical_name(workloads.cyclic_orders(s))
            for s in ("C2^3 x C3", "C4 x C4", "C3 x C4 x C2", "C1")]
           == ["C2^2 x C6", "C4^2", "C2 x C12", "C1"])


def check_wrong_expectation(lib: run.Library) -> None:
    good = [workloads.construct("C2^3"), workloads.verify("C12")]
    verify = workloads.verify("C2^2 x C3")
    wrong_endos = Request(verify.argv, {**verify.expect,
                                        "group_endos": verify.expect["group_endos"] + 1})
    search = workloads.search("C3 x C3", "default", 11, 6)
    wrong_sentinel = Request(search.argv, {**search.expect, "ideals_examined": 12})
    loop = run.Loop(lib, good + [wrong_endos, wrong_sentinel], seed=0)
    _, done = loop.run_pass()
    failed = {o.request.argv for o in done if o.problems}
    expect("a wrong endomorphism count fails its request", verify.argv in failed)
    expect("a wrong search sentinel fails its request", search.argv in failed)
    expect("right answers pass", len(failed) == 2, f"failed: {sorted(failed)}")


def check_order_dependence(lib: run.Library) -> None:
    req = workloads.construct("C2^2")
    loop = run.Loop(lib, [req], seed=0)
    loop.run_pass()
    real = lib.cli

    class Drift:
        @staticmethod
        def run(argv):
            code = real.run(argv)
            print(" ")  # same JSON, different bytes
            return code

    lib.cli = Drift
    try:
        _, done = loop.run_pass()
    finally:
        lib.cli = real
    expect("an answer that differs between passes fails", bool(done[0].problems),
           "no problem recorded")


def _snapshot(lib: run.Library) -> dict:
    algebra = lib.modules["algebra"]
    snap = {(name, attr): value for name, mod in lib.modules.items()
            for attr, value in vars(mod).items()}
    for cls in ("Ideal", "Algebra", "QuotientRing"):
        snap.update({(cls, attr): value for attr, value in vars(getattr(algebra, cls)).items()})
    return snap


def check_tracing(lib: run.Library) -> None:
    searches = workloads.WORKLOADS["search-negative"]
    reqs = [workloads.verify("C2^2 x C12"), workloads.construct("C2^4"),
            searches[1], searches[4]]  # C3 x C3 default pool, C16 chain pool
    before = _snapshot(lib)
    tr = tracing.Tracer(lib.modules)
    tr.install()
    try:
        _, done = run.Loop(lib, reqs, seed=1).run_pass(tr)
    finally:
        tr.uninstall()
    expect("traced answers are right", not any(o.problems for o in done),
           "; ".join(p for o in done for p in o.problems))
    expect("the tracer restores every attribute", _snapshot(lib) == before)
    names = {s[1] for s in tr.spans if s}
    wanted = {"cli.run", "constructions.construct_witness", "algebra.ideal_span",
              "algebra.ideal_validate", "algebra.quotient", "endo.fully_realizes",
              "endo.count_preserving", "gf2.rref", "constructions.chain_ring_ideals",
              "groups.parse_group"}
    expect("spans cover every layer boundary", wanted <= names, f"missing {wanted - names}")
    problems = tracing.check_nesting(tr.spans)
    expect("spans nest and self times sum to each request span", not problems,
           "; ".join(problems[:3]))
    roots = [s for s in tr.spans if s[2] < 0]
    expect("one root span per request", len(roots) == len(reqs))
    corrupted = list(tr.spans)
    r, name, parent, t0, t1, self_s = corrupted[1]
    corrupted[1] = (r, name, parent, t0, t1, self_s + 1e-3)
    expect("a span whose self time is off is caught", bool(tracing.check_nesting(corrupted)))
    metrics = tracing.layer_metrics(tr, 11 + 17, 1)
    expect("layer self times sum to the request spans",
           abs(sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS if layer != "gf2")
               + metrics["gf2.rref.ms"]
               - sum(s[4] - s[3] for s in roots) * 1e3) < 1e-3)


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-large",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect("without src/ the benchmark exits non-zero with no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    lib = run.Library()
    check_expectations()
    check_wrong_expectation(lib)
    check_order_dependence(lib)
    check_tracing(lib)
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
