"""Command-line front end.

One report schema serves every subcommand: unused fields are null, keys are
sorted, and two runs of the same command produce byte-identical JSON once
timings are suppressed with --no-timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import __version__
from .constructions import (
    POOLS,
    bounded_ideal_search,
    classify,
    construct_witness,
    ring_from_recipe,
)
from .endo import DEFAULT_MAX_ENDOS, fully_realizes
from .errors import (
    BudgetExceededError,
    GroupSyntaxError,
    InfiniteGroupError,
)
from .groups import GroupSpec, endo_count, endo_count_log10, parse_group, render_group

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_REPORT_KEYS = (
    "command",
    "group",
    "version",
    "fully_realizable",
    "fully_realizes",
    "reason",
    "counts",
    "witness_recipe",
    "ring_dim",
    "unit_group",
    "exhaustive",
    "pool",
    "ideals_examined",
    "realizing_found",
    "fully_realizing_found",
    "criteria",
    "timings",
)


def _skeleton(command: str) -> dict:
    report = {key: None for key in _REPORT_KEYS}
    report["command"] = command
    report["version"] = __version__
    return report


class _Timer:
    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextlib.contextmanager
    def measure(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[phase] = round((time.perf_counter() - start) * 1000.0, 3)


def _add_common_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # On subparsers the defaults are suppressed so a flag given before the
    # subcommand is not clobbered by the second parse.
    kwargs = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--json", action="store_true", help="emit a JSON report", **kwargs)
    parser.add_argument(
        "--no-timings",
        action="store_true",
        help="omit timings for byte-stable output",
        **kwargs,
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchslab",
        description="Decide and witness full realizability of abelian groups.",
    )
    _add_common_flags(parser, top_level=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, top_level=False)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("classify", "construct", "endos"):
        cmd = sub.add_parser(name, parents=[common])
        cmd.add_argument("spec")
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("spec")
    verify.add_argument("--ring", help="witness recipe, e.g. a24(rank=2,c4=true)")
    verify.add_argument("--max-endos", type=_positive_int, default=DEFAULT_MAX_ENDOS,
                        help="endomorphism walk budget")
    search = sub.add_parser("search", parents=[common])
    search.add_argument("spec")
    search.add_argument("--pool", default="default", choices=POOLS)
    search.add_argument("--budget", type=_positive_int, default=256,
                        help="distinct ideals examined (at least 1); the default "
                             "pool spans at most max(8*budget, 512) subsets")
    selftest = sub.add_parser("selftest", parents=[common])
    selftest.add_argument(
        "--max-order",
        type=_positive_int,
        default=16,
        help="order bound for the classify/witness agreement sweep",
    )
    return parser


_PARSER = build_parser()  # one per process: parse_args keeps no state between calls


def _report_verdict(report, verdict):
    report["group"] = render_group(verdict.group)
    report["fully_realizable"] = verdict.fully_realizable
    report["reason"] = verdict.reason.value
    report["witness_recipe"] = verdict.recipe
    return verdict


def _cmd_classify(args, report, timer) -> None:
    with timer.measure("classify"):
        _report_verdict(report, classify(parse_group(args.spec)))


def _cmd_construct(args, report, timer) -> None:
    g = parse_group(args.spec)
    verdict = _report_verdict(report, classify(g))
    if verdict.fully_realizable and verdict.group.is_finite:
        with timer.measure("construct"):
            ring = construct_witness(g)
        report["ring_dim"] = ring.dim
        report["unit_group"] = render_group(GroupSpec(ring.unit_group_invariants()))


def _cmd_verify(args, report, timer) -> None:
    g = parse_group(args.spec)
    verdict = _report_verdict(report, classify(g))
    if args.ring is not None:
        with timer.measure("construct"):
            spec, ring = ring_from_recipe(args.ring)
        if spec != verdict.group:
            raise GroupSyntaxError(
                f"recipe {args.ring!r} builds a ring for {render_group(spec)}, "
                f"not for {render_group(verdict.group)}"
            )
        report["witness_recipe"] = args.ring
    elif not (verdict.fully_realizable and verdict.group.is_finite):
        report["fully_realizes"] = False if not verdict.fully_realizable else None
        return
    else:
        with timer.measure("construct"):
            ring = construct_witness(g)
    with timer.measure("verify"):
        outcome = fully_realizes(ring, g, max_endos=args.max_endos)
    report["fully_realizes"] = outcome.fully_realizes
    report["ring_dim"] = outcome.ring_dim
    report["counts"] = {
        "group_endos": outcome.total_endos,
        "realized": outcome.realized_endos,
    }


def _cmd_endos(args, report, timer) -> None:
    g = parse_group(args.spec)
    unprintable = f"|End({render_group(g)})| cannot be printed"
    # 0 when the limit is switched off; the limit is absent before Python 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # refuse before building the integer; the slack of one digit absorbs float
    # rounding, and the exact str() check below catches the rest
    if limit and endo_count_log10(g) > limit + 1:
        raise BudgetExceededError(
            f"{unprintable}: Exceeds the limit ({limit} digits) for integer string "
            "conversion; use sys.set_int_max_str_digits() to increase the limit"
        )
    with timer.measure("count"):
        total = endo_count(g)
    try:
        str(total)
    except ValueError as exc:  # Python's limit on int-to-string conversion
        raise BudgetExceededError(f"{unprintable}: {exc}") from None
    report["group"] = render_group(g)
    report["counts"] = {"group_endos": total, "realized": None}


def _cmd_search(args, report, timer) -> None:
    g = parse_group(args.spec)
    with timer.measure("search"):
        outcome = bounded_ideal_search(g, pool=args.pool, budget=args.budget)
    report["group"] = render_group(outcome.group)
    report["pool"] = outcome.pool_description
    report["ideals_examined"] = outcome.ideals_examined
    report["realizing_found"] = outcome.realizing_found
    report["fully_realizing_found"] = outcome.fully_realizing_found
    report["exhaustive"] = outcome.exhaustive


def _cmd_selftest(args, report, timer) -> int:
    from .selftest import run_all  # imported here: no other command loads it

    with timer.measure("selftest"):
        results = run_all(max_order=args.max_order)
    report["criteria"] = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


_COMMANDS = {
    "classify": _cmd_classify,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "endos": _cmd_endos,
    "search": _cmd_search,
    "selftest": _cmd_selftest,
}


def _emit(report: dict, as_json: bool, with_timings: bool, timer: _Timer) -> None:
    # --no-timings leaves the key null so the key set never varies
    report["timings"] = timer.phases if with_timings else None
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    for key in _REPORT_KEYS:
        if key not in report or report[key] is None:
            continue
        value = report[key]
        if key == "counts":
            realized = value["realized"]
            rendered = (
                f"{realized}/{value['group_endos']} realized"
                if realized is not None
                else str(value["group_endos"])
            )
            print(f"{key:<22}{rendered}")
        elif key == "criteria":
            for item in value:
                status = "PASS" if item["passed"] else "FAIL"
                print(f"{status:<6}{item['name']:<40}{item['detail']}")
        elif key == "timings":
            rendered = " ".join(f"{k}={v}ms" for k, v in value.items())
            print(f"{key:<22}{rendered}")
        else:
            print(f"{key:<22}{value}")


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    timer = _Timer()
    report = _skeleton(args.command)
    try:
        # only selftest returns a code: EXIT_CHECK_FAILED when a criterion fails
        code = _COMMANDS[args.command](args, report, timer)
    except GroupSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, InfiniteGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(report, args.json, not args.no_timings, timer)
    return code or EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
