"""Command-line interface: exit codes, schema stability, determinism."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuchslab import GroupSpec, algebra, canonicalize, cli, constructions, parse_group, render_group
from fuchslab.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run
from fuchslab.selftest import CriterionResult


def _run_json(capsys, argv):
    code = run(["--json", "--no-timings", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_c3xc3(capsys):
    code, report = _run_json(capsys, ["classify", "C3 x C3"])
    assert code == EXIT_OK
    assert report["fully_realizable"] is False
    assert report["reason"] == "THM11_ODD"
    assert report["group"] == "C3^2"


def test_verify_c12(capsys):
    code, report = _run_json(capsys, ["verify", "C12"])
    assert code == EXIT_OK
    assert report["fully_realizes"] is True
    assert report["counts"] == {"group_endos": 12, "realized": 12}
    assert report["witness_recipe"] == "a24xC3(rank=0,c4=true)"


def test_verify_with_recipe(capsys):
    code, report = _run_json(capsys, ["verify", "C4", "--ring", "chain(k=2,j=3)"])
    assert code == EXIT_OK
    assert report["fully_realizes"] is True
    assert report["counts"] == {"group_endos": 4, "realized": 4}


def test_verify_negative_group(capsys):
    code, report = _run_json(capsys, ["verify", "C16"])
    assert code == EXIT_OK  # the verdict lives in the body, not the exit code
    assert report["fully_realizes"] is False
    assert report["reason"] == "NOT_REALIZABLE_CHAR2"


def test_verify_symbolic_group(capsys):
    code, report = _run_json(capsys, ["verify", "Cinf^2"])
    assert code == EXIT_OK
    assert report["fully_realizable"] is True
    assert report["fully_realizes"] is None
    assert report["witness_recipe"].startswith("symbolic:")


def test_construct(capsys):
    code, report = _run_json(capsys, ["construct", "C2^2 x C4"])
    assert code == EXIT_OK
    assert report["ring_dim"] == 5
    assert report["unit_group"] == "C2^2 x C4"


def test_construct_reads_the_unit_group_without_listing_units(capsys, monkeypatch):
    # the unit group of each of the 20 witnesses of order <= 64 comes from
    # linear algebra, with no enumeration of the units
    def no_scan(*args, **kwargs):
        raise AssertionError("units() was called")

    monkeypatch.setattr(algebra, "units", no_scan)
    groups = [GroupSpec((2,) * rank + h) for h in ((), (3,), (4,), (4, 3))
              for rank in range(7) if prod(h) << rank <= 64]
    assert len(groups) == 20
    for g in groups:
        code, report = _run_json(capsys, ["construct", render_group(g)])
        assert code == EXIT_OK and report["fully_realizable"]
        assert report["unit_group"] == report["group"] == render_group(canonicalize(g))


def test_endos(capsys):
    code, report = _run_json(capsys, ["endos", "C3 x C3"])
    assert code == EXIT_OK
    assert report["counts"]["group_endos"] == 81


def test_search(capsys):
    code, report = _run_json(capsys, ["search", "C4", "--pool", "chain"])
    assert code == EXIT_OK
    assert report["exhaustive"] is True
    assert report["fully_realizing_found"] == 1


def test_usage_errors(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["classify", "Q8"]) == EXIT_USAGE
    assert run(["verify", "C4", "--ring", "bogus(1)"]) == EXIT_USAGE
    assert run(["frobnicate", "C2"]) == EXIT_USAGE
    capsys.readouterr()


def test_budget_exit_code(capsys):
    # C8 has no monoid generators here, so the walk and its budget remain
    assert run(["verify", "C8", "--ring", "chain(k=3,j=4)", "--max-endos", "4"]) == EXIT_BUDGET
    assert "exceeds the budget 4" in capsys.readouterr().err
    assert run(["endos", "Cinf"]) == EXIT_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("spec, endos", [("C2^5", 2**25), ("C2^4 x C4", 2**26)])
def test_verify_past_the_walk_budget(capsys, spec, endos):
    # monoid generators decide the positive, so --max-endos is never reached
    code, report = _run_json(capsys, ["verify", spec])
    assert code == EXIT_OK
    assert report["fully_realizes"] is True
    assert report["counts"] == {"group_endos": endos, "realized": endos}


def test_json_is_deterministic_and_schema_stable(capsys):
    code, first = _run_json(capsys, ["verify", "C6"])
    assert code == EXIT_OK
    raw_first = json.dumps(first, sort_keys=True)
    code, second = _run_json(capsys, ["verify", "C6"])
    raw_second = json.dumps(second, sort_keys=True)
    assert raw_first == raw_second
    code, other = _run_json(capsys, ["classify", "C9"])
    assert set(other) == set(first)  # one schema for every command


def test_group_string_round_trips(capsys):
    for argv in (["classify", "C4 x C3"], ["verify", "C2x C2 xC3"], ["endos", "C2^2"]):
        _, report = _run_json(capsys, argv)
        assert parse_group(report["group"]) == parse_group(argv[1])


def test_text_mode_mentions_counts(capsys):
    code = run(["--no-timings", "verify", "C4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "4/4 realized" in out
    assert "fully_realizes" in out


def test_timings_toggle(capsys):
    run(["--json", "classify", "C2"])
    with_timings = json.loads(capsys.readouterr().out)
    assert isinstance(with_timings["timings"], dict)
    run(["--json", "--no-timings", "classify", "C2"])
    without = json.loads(capsys.readouterr().out)
    assert without["timings"] is None


def test_selftest_small_sweep(capsys):
    code, report = _run_json(capsys, ["selftest", "--max-order", "2"])
    assert code == EXIT_OK
    names = [c["name"] for c in report["criteria"]]
    assert len(names) == 9
    assert all(c["passed"] for c in report["criteria"])


def test_selftest_exits_one_when_a_criterion_fails(capsys, monkeypatch):
    def failing_run_all(max_order):
        return [CriterionResult("example-corpus", False, "forced failure"),
                CriterionResult("cyclic-sweep", True, "1 checks")]

    # the selftest command imports run_all when it runs, so patch it at home
    monkeypatch.setattr("fuchslab.selftest.run_all", failing_run_all)
    code = run(["--no-timings", "selftest", "--max-order", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED == 1
    assert "FAIL  example-corpus" in out  # the report is still emitted


def test_importing_the_cli_leaves_selftest_unloaded():
    # a fresh process that imports the CLI compiles no selftest code
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, fuchslab.cli; print('fuchslab.selftest' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


def test_console_script_runs_a_request(capsys, monkeypatch):
    # the installed `fuchslab` command: the target pyproject.toml declares,
    # read with a regex since Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^fuchslab = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["fuchslab", "classify", "C2 x C12", "--json", "--no-timings"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert '"fully_realizable": true' in capsys.readouterr().out


# flags before and after the subcommand, --max-endos given and omitted, and the
# subparsers' SUPPRESS defaults of --json and --no-timings (set on one side only)
_PARSER_ARGVS = [
    ["classify", "C2"],
    ["--json", "classify", "C2"],
    ["classify", "C2", "--json"],
    ["--no-timings", "classify", "C3 x C3", "--json"],
    ["--json", "--no-timings", "endos", "C2 x C4"],
    ["verify", "C4"],
    ["verify", "C4", "--max-endos", "7"],
    ["--json", "verify", "--max-endos", "100", "C2^2", "--no-timings"],
    ["verify", "C4", "--ring", "chain(k=2,j=3)", "--json"],
    ["search", "C16", "--pool", "chain", "--budget", "3", "--no-timings"],
    ["--no-timings", "search", "C3 x C3", "--budget", "2", "--json"],
    ["construct", "C2 x C6", "--json", "--no-timings"],
    ["selftest", "--max-order", "5"],
    ["--json", "selftest"],
]
_BAD_ARGVS = [[], ["bogus"], ["verify"], ["verify", "C4", "--max-endos", "0"],
              ["classify", "C2", "--max-endos", "5"], ["--help"], ["search", "--help"]]


def test_shared_parser_parses_like_a_fresh_one():
    for argvs in (_PARSER_ARGVS, _PARSER_ARGVS[::-1]):
        for argv in argvs:
            assert vars(cli._PARSER.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_run_prints_the_same_with_a_fresh_parser(capsys, monkeypatch):
    # selftest runs are left out to keep this quick; their parse is compared above
    reports = [[*a, "--no-timings"] for a in _PARSER_ARGVS if "selftest" not in a]
    argvs = reports + _BAD_ARGVS
    for order in (argvs, argvs[::-1]):
        for argv in order:
            shared = (run(argv), capsys.readouterr())
            with monkeypatch.context() as m:
                m.setattr(cli, "_PARSER", cli.build_parser())
                fresh = (run(argv), capsys.readouterr())
            assert shared == fresh, argv


def _one_line_error(capsys, argv):
    code = run(["--no-timings", *argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return code, lines[0]


def test_recipe_non_integer_argument(capsys):
    code, err = _one_line_error(capsys, ["verify", "C4", "--ring", "a24(rank=x)"])
    assert code == EXIT_USAGE
    assert "rank='x'" in err


def test_recipe_c4_flag_must_be_boolean(capsys):
    code, err = _one_line_error(capsys, ["verify", "C2", "--ring", "a24(rank=1,c4=maybe)"])
    assert code == EXIT_USAGE
    assert "c4='maybe'" in err


def test_search_refuses_the_deleted_fieldprod_pool(capsys):
    # argparse refuses the choice: its usage lines, then one error line
    assert run(["search", "C3 x C3", "--pool", "fieldprod"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1 and "invalid choice: 'fieldprod'" in errors[0]
    assert "Traceback" not in captured.err


def test_search_chain_pool_beyond_cyclic_two_groups(capsys):
    # the chain list holds the zero ideal, so F2[C3] itself is found
    code, report = _run_json(capsys, ["search", "C3", "--pool", "chain"])
    assert code == EXIT_OK
    assert report["exhaustive"] is True
    assert (report["ideals_examined"], report["fully_realizing_found"]) == (4, 1)
    code, err = _one_line_error(capsys, ["search", "C2 x C4", "--pool", "chain"])
    assert code == EXIT_USAGE
    assert "2-part is cyclic" in err


def test_search_chain_pool_names_its_blocks(capsys):
    # C3 x C3 has five blocks, each with its own idempotent e
    code, report = _run_json(capsys, ["search", "C3 x C3", "--pool", "chain"])
    assert code == EXIT_OK
    assert report["pool"] == "chain[e(x+1)^j per block]"
    assert report["ideals_examined"] == 32
    # a cyclic 2-group is one block, e = 1, so its ideals are the ((x+1)^j)
    code, report = _run_json(capsys, ["search", "C16", "--pool", "chain"])
    assert report["pool"] == "chain[(x+1)^j]"


def test_search_budget_below_one(capsys):
    for budget in ("-5", "0"):
        assert run(["search", "C16", "--pool", "chain", "--budget", budget]) == EXIT_USAGE
        assert "--budget" in capsys.readouterr().err


def test_endos_beyond_int_string_limit(capsys):
    for argv in (["endos", "C2^400"], ["--json", "endos", "C2^400"]):
        code, err = _one_line_error(capsys, argv)
        assert code == EXIT_BUDGET
        assert "limit" in err and "digits" in err


def test_endos_refused_before_the_count_is_built(capsys):
    # |End(C2^100000)| has about 3 * 10^9 digits; it must never be built
    for spec in ("C2^6400", "C2^100000"):
        code, err = _one_line_error(capsys, ["endos", spec])
        assert code == EXIT_BUDGET
        assert f"({sys.get_int_max_str_digits()} digits)" in err


def test_recipe_negative_rank(capsys):
    code, err = _one_line_error(capsys, ["verify", "C1", "--ring", "a24(rank=-3)"])
    assert code == EXIT_USAGE
    assert "rank=-3" in err


def test_recipe_rank_over_witness_budget(capsys):
    # refused before a tuple of 10^9 factor orders is built
    for name in ("a24", "a24xC3"):
        recipe = f"{name}(rank=1000000000)"
        code, err = _one_line_error(capsys, ["verify", "C1", "--ring", recipe])
        assert code == EXIT_BUDGET
        assert "budget 64" in err


def test_verify_recipe_for_another_group(capsys):
    code, err = _one_line_error(capsys, ["verify", "C2", "--ring", "chain(k=2,j=1)"])
    assert code == EXIT_USAGE
    assert "C4" in err and "C2" in err


@pytest.mark.parametrize("flag,argv", [
    ("--max-endos", ["verify", "C2^4", "--max-endos", "-1"]),
    ("--max-endos", ["verify", "--max-endos", "0", "C2^4"]),
    ("--max-order", ["selftest", "--max-order", "-3"]),
])
def test_budget_flags_below_one(capsys, flag, argv):
    assert run(argv) == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "C2", "--max-endos", "5"],
    ["construct", "C2", "--max-endos", "5"],
    ["endos", "C2", "--max-endos", "5"],
    ["search", "C2", "--max-endos", "5"],
    ["selftest", "--max-endos", "5"],
    ["--max-endos", "5", "verify", "C2"],
])
def test_max_endos_is_a_verify_option(capsys, argv):
    # only verify walks End(G), so no other command, and no flag before the
    # subcommand, takes the walk budget
    assert run(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "C2^2", "--unit-dim", "8"],
    ["--unit-dim=8", "verify", "C4"],
])
def test_unit_dim_is_not_an_option(capsys, argv):
    # units are counted, not enumerated, so no unit budget is set
    assert run(argv) == EXIT_USAGE
    assert "--unit-dim" in capsys.readouterr().err


def test_chain_recipe_exponent(capsys):
    code, err = _one_line_error(capsys, ["verify", "C4", "--ring", "chain(k=0,j=1)"])
    assert code == EXIT_USAGE
    assert "k=0" in err
    code, err = _one_line_error(capsys, ["verify", "C32", "--ring", "chain(k=5,j=1)"])
    assert code == EXIT_BUDGET
    assert "k in 1..4" in err


def test_search_stops_once_a_level_adds_nothing(capsys, monkeypatch):
    # every ideal the C2 x C4 pool reaches appears by subset size 2; without
    # the stop, budget 100000 walks 800,000 subsets of its 20-element pool
    sums = []
    real_join = constructions._join

    def counted_join(x, y):
        sums.append((x, y))
        return real_join(x, y)

    monkeypatch.setattr(constructions, "_join", counted_join)
    code, wide = _run_json(capsys, ["search", "C2 x C4", "--budget", "100000"])
    assert code == EXIT_OK
    assert len(sums) <= 1350
    code, narrow = _run_json(capsys, ["search", "C2 x C4", "--budget", "256"])
    assert code == EXIT_OK
    assert wide == narrow


# --- argv fuzzing ------------------------------------------------------------

_FACTORS = ["C1", "C2", "C3", "C4", "C6", "C8", "C9", "C12", "C16", "Cinf",
            "C2^2", "C3^2", "C0", "C2^0"]
_small_specs = st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3).map(" x ".join)
_garbage_specs = st.text(alphabet="Cinfx^0123456789 -", max_size=14) | st.text(max_size=6)
_specs = _small_specs | _garbage_specs
_recipes = st.builds(
    "{}({})".format,
    st.sampled_from(["a24", "a24xC3", "sumc2", "chain", "bogus"]),
    st.lists(
        st.builds("{}={}".format, st.sampled_from(["rank", "c4", "k", "j"]),
                  st.sampled_from(["-1", "0", "1", "2", "3", "5", "9", "true", "false", "x"])),
        max_size=3,
    ).map(",".join),
) | st.text(alphabet="a24xC3chain(rank=,j)", max_size=16)
_budgets = st.sampled_from(["1", "2", "5", "16", "0", "-3", "x"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["classify", "construct", "verify", "endos", "search"]))
    argv = [command, draw(_specs)]
    if command == "verify":
        argv += ["--max-endos", "4096"]
        if draw(st.booleans()):
            argv += ["--ring", draw(_recipes)]
    if command == "search":
        argv += ["--pool", draw(st.sampled_from(["default", "chain", "fieldprod", "nope"]))]
        argv += ["--budget", draw(_budgets)]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["classify", "C" + "9" * 5000])  # int() refused more than 4,300 digits
@example(["classify", "C1000000000000000003"])  # trial division ran for minutes
@example(["classify", "C2^100000000"])  # built a list of 10^8 factors
@example(["search", "C2^100000"])  # printed |G| past the int-to-string limit
@example(["construct", "C3^1000000"])  # multiplied 10^6 factors into |G|
def test_any_argv_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--no-timings", *argv])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET)
    if code == EXIT_BUDGET:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# --- a report never mixes two groups ------------------------------------------

def _invariant_name(orders):
    """Invariant-factor name of C_d1 x ... x C_dn, computed here from the
    primary decomposition: C2 x C6 x C4 is C2 x C2 x C4 x C3, so C2^2 x C12."""
    per_prime = {}
    for d in orders:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            if e:
                per_prime.setdefault(p, []).append(e)
            p += 1
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(es) for es in per_prime.values()), default=0)
    factors = sorted(prod(p ** es[k] for p, es in per_prime.items() if k < len(es))
                     for k in range(depth))
    parts = [f"C{d}" if factors.count(d) == 1 else f"C{d}^{factors.count(d)}"
             for d in sorted(set(factors))]
    return " x ".join(parts) or "C1"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 360), max_size=6), st.integers(0, 2))
def test_canonicalize_matches_the_invariant_name(orders, infinite_rank):
    g = GroupSpec(tuple(orders), infinite_rank)
    c = canonicalize(g)
    assert render_group(GroupSpec(c.finite_orders)) == _invariant_name(orders)
    assert c.infinite_rank == infinite_rank
    assert canonicalize(c) is c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.lists(st.integers(1, 4), max_size=6), st.integers(0, 2))
def test_canonicalize_returns_a_chain_unchanged(first, steps, infinite_rank):
    orders = [first]
    for k in steps:
        orders.append(orders[-1] * k)
    g = GroupSpec(tuple(orders), infinite_rank)
    assert canonicalize(g) is g
    assert render_group(GroupSpec(g.finite_orders)) == _invariant_name(orders)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["verify", "construct", "endos"]),
       st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]), min_size=1, max_size=4)
       .filter(lambda orders: prod(orders) <= 32))
def test_report_group_is_the_canonical_form_of_the_spec(command, orders):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "--no-timings", command, " x ".join(f"C{d}" for d in orders)])
    assert code == EXIT_OK
    report = json.loads(out.getvalue())
    assert report["group"] == _invariant_name(orders)
    # |End| of any cyclic decomposition is the product of gcd(d_i, d_j)
    if command == "endos" or (command == "verify" and report["fully_realizable"]):
        assert report["counts"]["group_endos"] == prod(gcd(a, b) for a in orders for b in orders)
    else:
        assert report["counts"] is None
