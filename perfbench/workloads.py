"""Workload definitions and the answer checker of the benchmark.

Every expected answer here is computed by this file, not by the library
under test: verdicts come from the classification in the source paper
(a finite abelian group is fully realizable iff it is W x H with W
elementary abelian 2 and H a subgroup of C12), endomorphism counts from the
gcd-product formula |End(C_d1 x ... x C_dn)| = prod_ij gcd(d_i, d_j), and
canonical group names from an invariant-factor decomposition written here.
The search fields are sentinels recorded from the seed implementation; a
change to them is a change in search behaviour, not noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd, prod

_FACTOR = re.compile(r"C([0-9]+)(?:\^([0-9]+))?")


def cyclic_orders(spec: str) -> list[int]:
    """Cyclic factor orders of a finite group spec such as "C2^3 x C4"."""
    orders: list[int] = []
    for token in spec.split("x"):
        m = _FACTOR.fullmatch(token.strip())
        if m is None:
            raise ValueError(f"not a finite group spec: {spec!r}")
        n, r = int(m.group(1)), int(m.group(2) or 1)
        orders.extend([n] * r if n > 1 else [])
    return orders


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primary_exponents(orders: list[int]) -> dict[int, list[int]]:
    """Per prime, the exponents of the primary cyclic summands, descending."""
    per_prime: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _prime_powers(d).items():
            per_prime.setdefault(p, []).append(e)
    return {p: sorted(es, reverse=True) for p, es in per_prime.items()}


def canonical_name(orders: list[int]) -> str:
    """Invariant-factor rendering, ascending, with runs as powers: C2^2 x C6."""
    per_prime = primary_exponents(orders)
    depth = max((len(es) for es in per_prime.values()), default=0)
    factors = sorted(
        prod(p ** es[k] for p, es in per_prime.items() if k < len(es))
        for k in range(depth)
    )
    parts = []
    for d in sorted(set(factors)):
        n = factors.count(d)
        parts.append(f"C{d}" if n == 1 else f"C{d}^{n}")
    return " x ".join(parts) if parts else "C1"


def fully_realizable(orders: list[int]) -> bool:
    """The paper's classification for finite groups: W x H with H <= C12."""
    per_prime = primary_exponents(orders)
    two = per_prime.get(2, [])
    three = per_prime.get(3, [])
    return (
        set(per_prime) <= {2, 3}
        and all(e <= 2 for e in two)
        and two.count(2) <= 1
        and three in ([], [1])
    )


def endo_count(orders: list[int]) -> int:
    """|End(G)| = prod_ij gcd(d_i, d_j) for any cyclic decomposition of G."""
    return prod(gcd(a, b) for a in orders for b in orders)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the answer it must produce."""

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def verify(spec: str) -> Request:
    orders = cyclic_orders(spec)
    return Request(("verify", spec), {
        "group": canonical_name(orders),
        "fully_realizable": fully_realizable(orders),
        "group_endos": endo_count(orders),
    })


def construct(spec: str) -> Request:
    orders = cyclic_orders(spec)
    return Request(("construct", spec), {
        "group": canonical_name(orders),
        "fully_realizable": fully_realizable(orders),
    })


def search(spec: str, pool: str, examined: int, realizing: int) -> Request:
    return Request(("search", spec, "--pool", pool, "--budget", "256"), {
        "group": canonical_name(cyclic_orders(spec)),
        "ideals_examined": examined,
        "realizing_found": realizing,
        "fully_realizing_found": 0,
        "exhaustive": pool == "chain",
    })


def _realizable_up_to(order: int) -> list[str]:
    """The fully realizable finite groups of order <= `order`, as specs
    C2^a x H with H in {C1, C3, C4, C12} (C2 and C6 fold into W)."""
    specs = []
    for h, h_order in (("", 1), ("C3", 3), ("C4", 4), ("C12", 12)):
        a = 0
        while h_order * 2**a <= order:
            w = "" if a == 0 else ("C2" if a == 1 else f"C2^{a}")
            specs.append(" x ".join(x for x in (w, h) if x) or "C1")
            a += 1
    return specs


_SWEEP = _realizable_up_to(64)

WORKLOADS: dict[str, list[Request]] = {
    "verify-large": [verify("C2^4"), verify("C2^3 x C4")],
    # (ideals_examined, realizing_found) as the seed reports them; C2^4 is
    # fully realizable, and its zeros say the bounded pool misses the witness
    "search-negative": [
        search("C4 x C4", "default", 127, 6),
        search("C3 x C3", "default", 11, 6),
        search("C2 x C8", "default", 48, 0),
        search("C2^4", "default", 256, 0),
        search("C16", "chain", 17, 0),
    ],
    "witness-sweep": [construct(s) for s in _SWEEP]
    + [verify(s) for s in _SWEEP if endo_count(cyclic_orders(s)) <= 4096],
}

BLOCKED = [verify("C2^5"), verify("C2^4 x C4"), construct("C2^3 x C12")]

EXCLUDED = {
    "selftest": "about half its time is the C2^4 scan already in "
                "verify-large, and the rest is the brute-force test oracle",
    "verify C2^3 x C6": "about 18 s for one request, longer than a pass "
                        "of any kept workload",
}


def check(req: Request, exit_code: int, report: dict | None, stderr: str) -> list[str]:
    """Problems with one answer; an empty list means the answer is right."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[:200]}"]
    if report is None:
        return ["no JSON report on stdout"]
    exp = req.expect
    problems = []

    def want(key, value):
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)!r}, expected {value!r}")

    want("command", req.command)
    want("group", exp["group"])
    want("timings", None)
    if req.command in ("verify", "construct"):
        want("fully_realizable", exp["fully_realizable"])
        if exp["fully_realizable"] and not isinstance(report.get("witness_recipe"), str):
            problems.append("positive verdict without a witness recipe")
    if req.command == "verify":
        want("fully_realizes", exp["fully_realizable"])
        counts = report.get("counts") or {}
        if counts.get("group_endos") != exp["group_endos"]:
            problems.append(
                f"group_endos = {counts.get('group_endos')!r}, expected {exp['group_endos']}"
            )
        if exp["fully_realizable"] and counts.get("realized") != exp["group_endos"]:
            problems.append(f"realized = {counts.get('realized')!r} of {exp['group_endos']}")
    elif req.command == "construct":
        want("unit_group", exp["group"])
    elif req.command == "search":
        for key in ("ideals_examined", "realizing_found", "fully_realizing_found", "exhaustive"):
            want(key, exp[key])
    return problems
