"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with:  pytest tests/test_acceptance.py -v -s

The heavy scenario batches are produced once in module-scope fixtures and
shared between criteria. Every generated scenario is executed twice (the
generator's closed-loop run plus a fresh replay of the recorded script)
and the two trace digests are compared; those comparisons feed the
determinism criterion at the end.
"""

import os
import time
from fractions import Fraction
from unittest import mock

import pytest

from aqsim import feedback
from aqsim.analysis import (GROWTH, count_rerouted, gen_random_scenario,
                            injections_after_notification, probe_stability,
                            rerouting_gadget, sweep)
from aqsim.buckets import AdversaryType
from aqsim.engine import (FailureEvent, Injection, RecoveryEvent,
                          ScenarioConfig, run, validate_recovery)
from aqsim.netmodel import Edge, Network
from aqsim.policies import POLICY_NAMES
from aqsim.reduction import verify_reduction

RATES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
BURSTS = (1, 2, 4)
DELAYS = (1, 2, 4)
STABLE_POLICIES = ("FTG", "NFS", "SIS")

# Frozen regression values. The hub-queue law comes from the first-cycle
# hand count in test_analysis (11 after cycle 0, +8 per cycle); the global
# queue ceiling is the maximum observed on the fixed 900-run stability
# sweep when it was first executed.
GADGET_BASE, GADGET_SLOPE = 11, 8
STABILITY_CEILING = 13
# Sweep probe: 500-round windows, demanding four consecutive +2 rises.
# Bounded runs show +1 record creep across windows (their all-time max is
# rediscovered a little higher for a few windows in a row); sustained +2
# steps only appear under real backlog growth, which at gadget scale is
# tens per window.
SWEEP_PROBE = dict(window=500, k=4, g=2)


def verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


# -- criteria 1 + 2: the thousand-scenario sweep ---------------------------------


@pytest.fixture(scope="module")
def thousand():
    out = {
        "digest_mismatches": [],
        "admissibility_failures": [],
        "stall_bound_failures": [],
        "oracle_disagreements": [],
        "gen_run_seconds": 0.0,
        "admissibility_seconds": 0.0,
        "stall_bound_seconds": 0.0,
    }
    for seed in range(1, 1001):
        i = seed - 1
        t0 = time.perf_counter()
        cfg, co_trace = gen_random_scenario(
            seed,
            rate=RATES[i % 4],
            burst=BURSTS[(i // 4) % 3],
            delay=DELAYS[(i // 12) % 3],
            tau=(i % 3) + 1,
            policy=POLICY_NAMES[i % len(POLICY_NAMES)],
            horizon=500,
            nodes=(4, 12),
            stall_density=0.12,
            with_trace=True,
        )
        trace = run(cfg)
        if trace.digest() != co_trace.digest():
            out["digest_mismatches"].append(seed)
        t1 = time.perf_counter()
        adv = cfg.adversary
        inj = feedback.derive_injection_trace(trace)
        reactive = feedback.reactive_for_trace(trace)
        result = feedback.check_admissibility(inj, reactive, adv.rate,
                                              adv.burst, trace.horizon)
        if not result.ok:
            out["admissibility_failures"].append((seed, result))
        t2 = time.perf_counter()
        stalls = feedback.derive_stall_trace(trace)
        bound = feedback.check_stall_reaction_bound(stalls, reactive,
                                                    adv.delay, trace.horizon)
        if not bound.ok:
            out["stall_bound_failures"].append((seed, bound))
        t3 = time.perf_counter()
        if seed <= 25:  # exhaustive-interval oracle cross-check
            with mock.patch.object(feedback, "_max_interval_fast",
                                   feedback._max_interval_quadratic):
                quad_a = feedback.check_admissibility(
                    inj, reactive, adv.rate, adv.burst, trace.horizon)
                quad_b = feedback.check_stall_reaction_bound(
                    stalls, reactive, adv.delay, trace.horizon)
            if quad_a.ok != result.ok or quad_b.ok != bound.ok:
                out["oracle_disagreements"].append(seed)
        out["gen_run_seconds"] += t1 - t0
        out["admissibility_seconds"] += t2 - t1
        out["stall_bound_seconds"] += t3 - t2
    return out


def test_criterion_1_bucket_admissibility_equivalence(thousand):
    elapsed = thousand["gen_run_seconds"] + thousand["admissibility_seconds"]
    failures = thousand["admissibility_failures"]
    verdict(
        "criterion 1, bucket-driven runs satisfy the admissibility bound",
        not failures and not thousand["oracle_disagreements"] and elapsed < 120,
        f"1000/1000 traces exact, {len(failures)} failures, "
        f"{elapsed:.1f}s (< 120s)")


def test_criterion_2_stall_reaction_bound(thousand):
    failures = thousand["stall_bound_failures"]
    verdict(
        "criterion 2, stalls never outrun reactions plus the delay",
        not failures and not thousand["oracle_disagreements"],
        f"1000/1000 traces, every queue and interval, {len(failures)} failures, "
        f"quadratic oracle agreed on seeds 1..25, "
        f"{thousand['stall_bound_seconds']:.1f}s")


# -- criterion 3: no-stall runs are plain leaky-bucket runs -----------------------


@pytest.fixture(scope="module")
def no_stall_batch():
    failures = []
    digest_mismatches = []
    for seed in range(5001, 5201):
        i = seed - 5001
        cfg, co_trace = gen_random_scenario(
            seed,
            rate=RATES[i % 4],
            burst=BURSTS[i % 3],
            delay=DELAYS[i % 3],
            tau=(i % 3) + 1,
            policy=POLICY_NAMES[i % len(POLICY_NAMES)],
            horizon=500,
            stall_density=0.0,
            with_trace=True,
        )
        trace = run(cfg)
        if trace.digest() != co_trace.digest():
            digest_mismatches.append(seed)
        inj = feedback.derive_injection_trace(trace)
        result = feedback.check_regular_admissibility(
            inj, cfg.adversary.rate, cfg.adversary.burst, trace.horizon)
        if not result.ok:
            failures.append((seed, result))
    return {"failures": failures, "digest_mismatches": digest_mismatches}


def test_criterion_3_no_stall_runs_match_regular_adversary(no_stall_batch):
    failures = no_stall_batch["failures"]
    verdict(
        "criterion 3, stall-free runs satisfy the regular bound",
        not failures,
        f"200/200 no-stall traces, {len(failures)} failures")


# -- criterion 4: the re-routing gadget grows without bound -----------------------


@pytest.fixture(scope="module")
def gadget_run():
    t0 = time.perf_counter()
    gadget = rerouting_gadget(branches=2, burst=10, fail_duration=10, cycles=200)
    trace = run(gadget.config)
    elapsed = time.perf_counter() - t0
    rerun_digest = run(gadget.config).digest()
    return {
        "gadget": gadget,
        "trace": trace,
        "elapsed": elapsed,
        "digest_equal": trace.digest() == rerun_digest,
    }


def test_criterion_4_rerouting_gadget_grows(gadget_run):
    gadget = gadget_run["gadget"]
    trace = gadget_run["trace"]
    series = trace.queue_series(gadget.bottleneck_edge)
    ends = [series[r - 1] for r in gadget.cycle_end_rounds()]
    nondecreasing = all(b >= a for a, b in zip(ends, ends[1:]))
    grows = all(b - a >= 1 for a, b in zip(ends[5:], ends[6:]))
    frozen = all(ends[c] == GADGET_BASE + GADGET_SLOPE * c for c in range(200))
    report = probe_stability(trace)
    ok = (nondecreasing and grows and frozen and report.verdict == GROWTH
          and gadget_run["elapsed"] < 30)
    verdict(
        "criterion 4, hub backlog grows every cycle",
        ok,
        f"cycle-end law {GADGET_BASE}+{GADGET_SLOPE}c over 200 cycles, "
        f"verdict {report.verdict}, {gadget_run['elapsed']:.1f}s (< 30s)")


# -- criterion 5: two-priority reduction -------------------------------------------


@pytest.fixture(scope="module")
def reduction_batch():
    failures = []
    digest_mismatches = []
    for seed in range(7001, 7201):
        i = seed - 7001
        cfg, co_trace = gen_random_scenario(
            seed,
            rate=RATES[i % 3],  # the reduction needs rate < 1
            burst=BURSTS[i % 3],
            delay=DELAYS[i % 3],
            tau=(i % 3) + 1,
            policy=("FIFO", "FTG", "NFS", "SIS", "LIS")[i % 5],
            horizon=300,
            stall_density=0.25,
            with_trace=True,
        )
        trace = run(cfg)
        if trace.digest() != co_trace.digest():
            digest_mismatches.append(seed)
        report = verify_reduction(trace)
        if not report.ok:
            failures.append((seed, report.first_divergence,
                             report.combined))
    return {"failures": failures, "digest_mismatches": digest_mismatches}


def test_criterion_5_two_priority_reduction(reduction_batch):
    failures = reduction_batch["failures"]
    verdict(
        "criterion 5, two-priority reduction verified",
        not failures,
        f"200/200 bounded-stall runs: single high packet per queue-round, "
        f"identical low transmissions, combined congestion bound; "
        f"{len(failures)} failures")


# -- criterion 6: stable policies stay bounded --------------------------------------


def stability_item(item):
    """One criterion-6 run, timed in the process that runs it: the co-run
    and probe of base seed and policy, then the replay of its script."""
    base_seed, policy = item
    i = base_seed - 9001
    t0 = time.perf_counter()
    cfg, co_trace = gen_random_scenario(
        base_seed,
        rate=(Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))[i % 3],
        burst=BURSTS[i % 3],
        delay=DELAYS[i % 3],
        tau=(i % 2) + 1,
        policy=policy,
        horizon=10_000,
        stall_density=0.02,
        inject_prob=0.25,
        with_trace=True,
    )
    report = probe_stability(co_trace, **SWEEP_PROBE)
    t1 = time.perf_counter()
    digest_equal = run(cfg).digest() == co_trace.digest()
    return report, digest_equal, t1 - t0, time.perf_counter() - t1


@pytest.fixture(scope="module")
def stability_sweep():
    items = [(base_seed, policy) for base_seed in range(9001, 9301)
             for policy in STABLE_POLICIES]
    results = sweep(stability_item, items, os.cpu_count() or 1)
    out = {
        "growth": [],
        "digest_mismatches": [],
        "observed_max": 0,
        "probe_seconds": 0.0,
        "replay_seconds": 0.0,
    }
    for (base_seed, policy), (report, digest_equal, probe_s, replay_s) in zip(items, results):
        out["observed_max"] = max(out["observed_max"], report.overall_max)
        if report.verdict == GROWTH:
            out["growth"].append((base_seed, policy, report.witness))
        if not digest_equal:
            out["digest_mismatches"].append((base_seed, policy))
        out["probe_seconds"] += probe_s
        out["replay_seconds"] += replay_s
    return out


def test_criterion_6_stable_policy_regression(stability_sweep):
    growth = stability_sweep["growth"]
    observed = stability_sweep["observed_max"]
    elapsed = stability_sweep["probe_seconds"]
    ok = (not growth and observed <= STABILITY_CEILING and elapsed < 300)
    verdict(
        "criterion 6, FTG/NFS/SIS show no growth over 10k rounds",
        ok,
        f"300 scenarios x 3 policies, 0 growth verdicts expected "
        f"(got {len(growth)}), max queued {observed} <= frozen ceiling "
        f"{STABILITY_CEILING}, {elapsed:.1f}s (< 300s)")


# -- criterion 7: permanent failures -------------------------------------------------


@pytest.fixture(scope="module")
def failure_batch():
    problems = []
    digest_mismatches = []
    for seed in range(11001, 11101):
        i = seed - 11001
        cfg, co_trace = gen_random_scenario(
            seed,
            rate=RATES[i % 3],
            burst=BURSTS[i % 3],
            delay=DELAYS[i % 3],
            tau=(i % 2) + 1,
            policy=STABLE_POLICIES[i % 3],
            horizon=500,
            stall_density=0.05,
            inject_prob=0.5,
            failures=(i % 3) + 1,
            tau_prime=2,
            with_trace=True,
        )
        trace = run(cfg)
        if trace.digest() != co_trace.digest():
            digest_mismatches.append(seed)
        if injections_after_notification(trace):
            problems.append((seed, "injection over a notified failure"))
            continue
        counts = count_rerouted(trace)
        if counts.total != sum(counts.per_failure.values()):
            problems.append((seed, "per-failure counts do not add up"))
            continue
        if counts.total == 0:
            continue  # failures landed where no traffic was heading
        notify_rounds = [ev[1] for ev in trace.events_of("fail_notify")]
        last_notify = max(notify_rounds)
        pre = [rec for rec in trace.packets.values()
               if rec.injected_at <= last_notify]
        unabsorbed = [rec.id for rec in pre if rec.absorbed_round is None]
        if unabsorbed:
            problems.append((seed, f"packets {unabsorbed[:3]} never drained"))
            continue
        drain = max(rec.absorbed_round for rec in pre)
        if counts.last_round > drain:
            problems.append(
                (seed, f"re-route at {counts.last_round} after drain {drain}"))
    return {"problems": problems, "digest_mismatches": digest_mismatches}


def test_criterion_7a_reroute_counts_stop_growing(failure_batch):
    problems = failure_batch["problems"]
    verdict(
        "criterion 7a, re-route counts settle once traffic drains",
        not problems,
        f"100/100 failure scenarios, {len(problems)} problems"
        + (f" e.g. {problems[0]}" if problems else ""))


def recovery_case(extra_packets):
    # All packets enter in round 1, before the failure notification lands;
    # they then trickle across ab and re-route one by one. Token accounting
    # is irrelevant to the recovery discipline, so it is switched off.
    net = Network(
        ["a", "b", "c", "z"],
        [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
         Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    injections = tuple(Injection(1, ("ab", "bz"))
                       for _ in range(1 + extra_packets))
    return ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 4, 2),
        policy="FIFO", horizon=60, tau_prime=1,
        injections=injections,
        failures=(FailureEvent("bz", 1, notify_delay=1),),
        enforce_buckets=False)


@pytest.fixture(scope="module")
def recovery_suite():
    rejected, accepted, digests_equal = [], [], []
    for extra in range(10):
        base = recovery_case(extra)
        trace = run(base)
        rerouted = [pid for _, _, pid, *_ in trace.events_of("reroute")]
        last_absorb = max(trace.packets[pid].absorbed_round for pid in rerouted)

        from dataclasses import replace

        early = replace(base, recoveries=(RecoveryEvent("bz", last_absorb),))
        early_trace = run(early)
        early_verdict = validate_recovery(early_trace)
        rejected.append(not early_verdict.ok
                        and any(v.absorbed_round >= last_absorb
                                for v in early_verdict.violations))

        shifted = replace(base,
                          recoveries=(RecoveryEvent("bz", last_absorb + 1),))
        shifted_trace = run(shifted)
        accepted.append(validate_recovery(shifted_trace).ok)
        digests_equal.append(run(shifted).digest() == shifted_trace.digest())
    return {"rejected": rejected, "accepted": accepted,
            "digests_equal": digests_equal}


def test_criterion_7b_recovery_discipline(recovery_suite):
    ok = all(recovery_suite["rejected"]) and all(recovery_suite["accepted"])
    verdict(
        "criterion 7b, early recoveries rejected and shifted ones accepted",
        ok,
        f"10 constructed pairs: {sum(recovery_suite['rejected'])}/10 rejected, "
        f"{sum(recovery_suite['accepted'])}/10 accepted")


# -- criterion 8: determinism ----------------------------------------------------------


def test_criterion_8_every_scenario_reruns_bit_identically(
        thousand, no_stall_batch, gadget_run, reduction_batch,
        stability_sweep, failure_batch, recovery_suite):
    mismatch_count = (
        len(thousand["digest_mismatches"])
        + len(no_stall_batch["digest_mismatches"])
        + (0 if gadget_run["digest_equal"] else 1)
        + len(reduction_batch["digest_mismatches"])
        + len(stability_sweep["digest_mismatches"])
        + len(failure_batch["digest_mismatches"])
        + sum(0 if ok else 1 for ok in recovery_suite["digests_equal"]))
    total = 1000 + 200 + 1 + 200 + 900 + 100 + 10
    verdict(
        "criterion 8, trace digests identical across invocations",
        mismatch_count == 0,
        f"{total} scenarios re-executed, {mismatch_count} digest mismatches")
