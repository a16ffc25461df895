"""Command-line surface: run, check, reduce, gen, batch.

Exit codes: 0 pass, 1 verdict failure, 2 usage or parse error, 3 model
violation or scenario error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, feedback, reduction, scenario_io
from .engine import Engine, validate_recovery
from .errors import ModelViolation, ScenarioError
from .policies import POLICY_NAMES, parse_policy

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_MODEL = 3

MODE_ADMISSIBILITY = "admissibility"
MODE_REGULAR = "regular"
MODE_STALL_BOUND = "stall-bound"
MODE_RECOVERY = "recovery"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _fmt_fraction(value):
    return scenario_io.format_rational(value) if value is not None else "-"


def _print_check(name, result):
    state = "pass" if result.ok else "FAIL"
    print(f"{name}: {state}")
    if result.queue is not None:
        t1, t2 = result.interval
        print(f"  worst queue {result.queue} interval [{t1}, {t2}] "
              f"lhs={_fmt_fraction(result.lhs)} rhs={_fmt_fraction(result.rhs)}")
    return EXIT_OK if result.ok else EXIT_VERDICT


def cmd_run(args) -> int:
    config = scenario_io.load_scenario(args.scenario)
    if args.horizon is not None or args.policy is not None:
        updates = {}
        if args.horizon is not None:
            updates["horizon"] = args.horizon
        if args.policy is not None:
            updates["policy"] = parse_policy(args.policy)
        config = dataclasses.replace(config, **updates)
    trace = Engine(config).run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    digest = scenario_io.save_trace(trace, out / f"{stem}.trace.jsonl")
    scenario_io.write_metrics_csv(trace, out / f"{stem}.metrics.csv")
    if trace.horizon >= 2 * args.window * args.k:
        report = analysis.probe_stability(trace, args.window, args.k, args.g)
        report_doc = dataclasses.asdict(report)
    else:
        report_doc = {"verdict": "horizon-too-short-to-probe",
                      "overall_max": max(trace.q_totals, default=0)}
    (out / f"{stem}.stability.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    print(f"ran {trace.horizon} rounds, {len(trace.events)} events, "
          f"max queued {max(trace.q_totals, default=0)}, "
          f"verdict {report_doc['verdict']}")
    print(f"trace digest {digest}")
    return EXIT_OK


def cmd_check(args) -> int:
    trace = scenario_io.load_trace(args.trace)
    adv = trace.config.adversary
    horizon = trace.horizon
    if args.mode == MODE_ADMISSIBILITY:
        inj = feedback.derive_injection_trace(trace)
        reactive = feedback.reactive_for_trace(trace)
        result = feedback.check_admissibility(inj, reactive, adv.rate, adv.burst,
                                              horizon)
        return _print_check("admissibility", result)
    if args.mode == MODE_REGULAR:
        inj = feedback.derive_injection_trace(trace)
        result = feedback.check_regular_admissibility(inj, adv.rate, adv.burst,
                                                      horizon)
        return _print_check("regular admissibility", result)
    if args.mode == MODE_STALL_BOUND:
        stalls = feedback.derive_stall_trace(trace)
        reactive = feedback.reactive_for_trace(trace)
        result = feedback.check_stall_reaction_bound(stalls, reactive, adv.delay,
                                                     horizon)
        return _print_check("stall-reaction bound", result)
    verdict = validate_recovery(trace)
    if verdict.ok:
        print("recovery discipline: pass")
        return EXIT_OK
    print("recovery discipline: FAIL")
    for v in verdict.violations[:10]:
        absorbed = v.absorbed_round if v.absorbed_round is not None else "never"
        print(f"  edge {v.edge} recovered in round {v.recovery_round} but "
              f"packet {v.packet_id} absorbed {absorbed}")
    return EXIT_VERDICT


def cmd_reduce(args) -> int:
    trace = scenario_io.load_trace(args.trace)
    report = reduction.verify_reduction(trace)
    print(f"rate' = {_fmt_fraction(report.params.rate2)}  "
          f"burst' = {_fmt_fraction(report.params.burst2)}  tau = {report.params.tau}")
    print(f"single high packet per queue-round: {'pass' if report.high_cap_ok else 'FAIL'}")
    print(f"high packets leave the round they enter: "
          f"{'pass' if report.same_round_ok else 'FAIL'}")
    print(f"low transmissions identical: "
          f"{'pass' if report.transmissions_equal else 'FAIL'}")
    _print_check("combined congestion", report.combined)
    if report.first_divergence:
        print(f"  divergence: {report.first_divergence}")
    return EXIT_OK if report.ok else EXIT_VERDICT


def cmd_gen(args) -> int:
    if args.kind == "rerouting-gadget":
        config = analysis.rerouting_gadget(
            args.branches, args.burst, args.fail_duration, args.cycles).config
    else:
        config = analysis.gen_random_scenario(
            args.seed,
            rate=Fraction(args.r),
            burst=args.b,
            delay=args.delta,
            tau=args.tau,
            policy=parse_policy(args.policy),
            horizon=args.horizon,
            nodes=(args.nodes_min, args.nodes_max),
            stall_density=args.stall_density,
            failures=args.failures,
            tau_prime=args.tau_prime,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    scenario_io.save_scenario(config, out)
    print(f"wrote {out}")
    return EXIT_OK


def _batch_one(out: Path, path: Path):
    """Run one scenario file of a batch and save its trace under ``out``."""
    config = scenario_io.load_scenario(path)
    trace = Engine(config).run()
    digest = scenario_io.save_trace(trace, out / f"{path.stem}.trace.jsonl")
    return path.stem, max(trace.q_totals, default=0), digest


def cmd_batch(args) -> int:
    paths = sorted(Path(args.scenarios).glob("*.json"))
    if not paths:
        print(f"no scenario files under {args.scenarios}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = analysis.sweep(functools.partial(_batch_one, out), paths, args.workers)
    for stem, peak, digest in results:
        print(f"{stem}: max queued {peak}, digest {digest[:16]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqsim",
        description="simulate and verify adversarial routing with delayed stall feedback")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--policy", choices=POLICY_NAMES)
    p_run.add_argument("--window", type=int, default=50)
    p_run.add_argument("--k", type=int, default=4)
    p_run.add_argument("--g", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify a trace file")
    p_check.add_argument("trace")
    p_check.add_argument("--mode", required=True,
                         choices=(MODE_ADMISSIBILITY, MODE_REGULAR,
                                  MODE_STALL_BOUND, MODE_RECOVERY))
    p_check.set_defaults(func=cmd_check)

    p_reduce = sub.add_parser("reduce", help="two-priority reduction report")
    p_reduce.add_argument("trace")
    p_reduce.set_defaults(func=cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("kind", choices=("random", "rerouting-gadget"))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--r", default="1/2", help="injection rate as num/den")
    p_gen.add_argument("--b", type=int, default=2)
    p_gen.add_argument("--delta", type=int, default=2)
    p_gen.add_argument("--tau", type=int, default=1)
    p_gen.add_argument("--tau-prime", type=int, default=2)
    p_gen.add_argument("--policy", choices=POLICY_NAMES, default="FTG")
    p_gen.add_argument("--horizon", type=int, default=500)
    p_gen.add_argument("--nodes-min", type=int, default=4)
    p_gen.add_argument("--nodes-max", type=int, default=12)
    p_gen.add_argument("--stall-density", type=float, default=0.08)
    p_gen.add_argument("--failures", type=int, default=0)
    p_gen.add_argument("--branches", type=int, default=2)
    p_gen.add_argument("--burst", type=int, default=10)
    p_gen.add_argument("--fail-duration", type=int, default=10)
    p_gen.add_argument("--cycles", type=int, default=200)
    p_gen.set_defaults(func=cmd_gen)

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("scenarios")
    p_batch.add_argument("--out", default="out")
    p_batch.add_argument("--workers", type=_positive_int,
                         default=min(4, os.cpu_count() or 1))
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except scenario_io.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, ModelViolation) as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
