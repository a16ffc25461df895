"""Scenario file format, trace export and import.

Scenarios are strict JSON: unknown keys are rejected anywhere, because a
scenario file is an experiment record and a typo that parses silently
corrupts results. Rationals travel as "num/den" strings and never pass
through floating point.

A trace file (version 2) is line-delimited JSON: one header record
binding the trace to the scenario (content hash plus the embedded
scenario itself), one record per event, then the total queued after each
round. The events are those the checkers and the packet audit read:
inject, transmit, stall, group, annihilate, absorb, reroute, fail,
fail_notify and recover. Per-edge queue lengths are not stored; they are
a function of the events (``ExecutionTrace.queue_sizes``). The file
carries everything needed to reproduce the run.

Loading checks the file against itself. Every event must be well formed
and in round order, and must move a packet that is queued where the event
says: no second inject of one packet, no transmit, stall, reroute or
absorb of a packet that was never injected or is already absorbed. The
running count of injections minus absorptions must equal the stored total
after every round, so an edited total or a dropped event is refused with
the first round where they disagree. Version 1 files are refused as an
unsupported format.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .buckets import AdversaryType
from .engine import (ExecutionTrace, FailureEvent, Injection, PacketRecord,
                     RecoveryEvent, ScenarioConfig)
from .netmodel import Edge, Network
from .policies import POLICY_NAMES, Prioritized, parse_policy

TRACE_FORMAT = "aqsim-trace"
TRACE_VERSION = 2


class ParseError(ValueError):
    """Scenario or trace text that does not match the schema."""


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _require(mapping, where, required, optional=()):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    allowed = set(required) | set(optional)
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ParseError(f"{where}: missing key {key!r}")
    return mapping


# -- scenario <-> dict ---------------------------------------------------------


def scenario_to_dict(config: ScenarioConfig) -> dict:
    net = config.network
    edges = []
    for eid in sorted(net.edges):
        e = net.edges[eid]
        entry = {"id": e.id, "tail": e.tail, "head": e.head}
        if e.slowness != 1:
            entry["slowness"] = e.slowness
        edges.append(entry)
    policy = config.policy
    if isinstance(policy, Prioritized):
        policy_doc = {"name": policy.base, "priorities": policy.levels}
    else:
        policy_doc = {"name": policy}
    injections = []
    for inj in config.injections:
        entry = {"round": inj.round, "path": list(inj.path)}
        if inj.priority:
            entry["priority"] = inj.priority
        if inj.id is not None:
            entry["id"] = inj.id
        injections.append(entry)
    run = {"horizon": config.horizon}
    if config.seed is not None:
        run["seed"] = config.seed
    if config.promote_after_tau:
        run["promote_after_tau"] = True
    if not config.enforce_buckets:
        run["enforce_buckets"] = False
    return {
        "network": {"nodes": sorted(net.nodes), "edges": edges},
        "adversary": {
            "r": format_rational(config.adversary.rate),
            "b": config.adversary.burst,
            "delta": config.adversary.delay,
            "tau": config.tau,
            "tau_prime": config.tau_prime,
        },
        "policy": policy_doc,
        "schedules": {
            "injections": injections,
            "stalls": [{"edge": edge, "rounds": sorted(config.stalls[edge])}
                       for edge in sorted(config.stalls)],
            "annihilations": [
                {"edge": edge, "round": rnd, "delay": config.annihilation_delays[(edge, rnd)]}
                for edge, rnd in sorted(config.annihilation_delays)],
            "failures": [
                {"edge": ev.edge, "round": ev.round, "notify_delay": ev.notify_delay}
                for ev in config.failures],
            "recoveries": [{"edge": ev.edge, "round": ev.round}
                           for ev in config.recoveries],
        },
        "run": run,
    }


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    _require(doc, "scenario", ("network", "adversary", "policy", "schedules", "run"))
    net_doc = _require(doc["network"], "network", ("nodes", "edges"))
    edges = []
    for i, entry in enumerate(net_doc["edges"]):
        _require(entry, f"network.edges[{i}]", ("id", "tail", "head"), ("slowness",))
        edges.append(Edge(entry["id"], entry["tail"], entry["head"],
                          entry.get("slowness", 1)))
    network = Network(net_doc["nodes"], edges)

    adv_doc = _require(doc["adversary"], "adversary",
                       ("r", "b", "delta", "tau", "tau_prime"))
    adversary = AdversaryType(parse_rational(adv_doc["r"]), adv_doc["b"],
                              adv_doc["delta"])

    pol_doc = _require(doc["policy"], "policy", ("name",), ("priorities",))
    if pol_doc["name"] not in POLICY_NAMES:
        raise ParseError(f"policy: unknown name {pol_doc['name']!r}")
    policy = parse_policy(pol_doc["name"], pol_doc.get("priorities"))

    sched = _require(doc["schedules"], "schedules",
                     (), ("injections", "stalls", "annihilations", "failures",
                          "recoveries"))
    injections = []
    for i, entry in enumerate(sched.get("injections", ())):
        _require(entry, f"injections[{i}]", ("round", "path"), ("priority", "id"))
        injections.append(Injection(entry["round"], tuple(entry["path"]),
                                    entry.get("priority", 0), entry.get("id")))
    stalls = {}
    for i, entry in enumerate(sched.get("stalls", ())):
        _require(entry, f"stalls[{i}]", ("edge", "rounds"))
        stalls[entry["edge"]] = frozenset(entry["rounds"])
    delays = {}
    for i, entry in enumerate(sched.get("annihilations", ())):
        _require(entry, f"annihilations[{i}]", ("edge", "round", "delay"))
        delays[(entry["edge"], entry["round"])] = entry["delay"]
    failures = []
    for i, entry in enumerate(sched.get("failures", ())):
        _require(entry, f"failures[{i}]", ("edge", "round"), ("notify_delay",))
        failures.append(FailureEvent(entry["edge"], entry["round"],
                                     entry.get("notify_delay", 0)))
    recoveries = []
    for i, entry in enumerate(sched.get("recoveries", ())):
        _require(entry, f"recoveries[{i}]", ("edge", "round"))
        recoveries.append(RecoveryEvent(entry["edge"], entry["round"]))

    run_doc = _require(doc["run"], "run", ("horizon",),
                       ("seed", "promote_after_tau", "enforce_buckets"))
    config = ScenarioConfig(
        network=network,
        adversary=adversary,
        policy=policy,
        horizon=run_doc["horizon"],
        injections=tuple(injections),
        stalls=stalls,
        annihilation_delays=delays,
        failures=tuple(failures),
        recoveries=tuple(recoveries),
        tau=adv_doc["tau"],
        tau_prime=adv_doc["tau_prime"],
        seed=run_doc.get("seed"),
        promote_after_tau=run_doc.get("promote_after_tau", False),
        enforce_buckets=run_doc.get("enforce_buckets", True),
    )
    return config.validate()


def dumps_scenario(config: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(config), indent=2, sort_keys=True) + "\n"


def loads_scenario(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return scenario_from_dict(doc)


def save_scenario(config: ScenarioConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(config))


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return loads_scenario(fh.read())


def scenario_hash(config: ScenarioConfig) -> str:
    return hashlib.sha256(dumps_scenario(config).encode()).hexdigest()


# -- traces ---------------------------------------------------------------------


def _event_lines(trace: ExecutionTrace):
    for ev in trace.events:
        yield json.dumps({"event": ev}, separators=(",", ":"), default=list)
    yield json.dumps({"q_totals": trace.q_totals}, separators=(",", ":"))


def trace_digest(trace: ExecutionTrace) -> str:
    """Hash of the dynamic record: events plus per-round queue totals.

    Per-edge queue lengths are a function of the events, so the digest
    covers them too. A saved and reloaded trace keeps its digest.
    """
    h = hashlib.sha256()
    h.update(repr(trace.events).encode())
    h.update(repr(trace.q_totals).encode())
    return h.hexdigest()


def save_trace(trace: ExecutionTrace, path):
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "scenario_hash": scenario_hash(trace.config),
        "scenario": scenario_to_dict(trace.config),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for line in _event_lines(trace):
            fh.write(line + "\n")


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def load_trace(path) -> ExecutionTrace:
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"trace header: {exc.msg}") from None
        _require(header, "trace header",
                 ("format", "version", "scenario_hash", "scenario"))
        if header["format"] != TRACE_FORMAT or header["version"] != TRACE_VERSION:
            raise ParseError(
                f"unsupported trace format {header['format']!r} "
                f"v{header['version']}")
        config = scenario_from_dict(header["scenario"])
        if header["scenario_hash"] != scenario_hash(config):
            raise ParseError("trace header hash does not match its scenario")
        trace = ExecutionTrace(config)
        net: dict[int, int] = {}  # round -> injections minus absorptions
        ahead: dict[int, tuple | None] = {}  # packet -> edges left; None once absorbed
        edges = set(config.network.edges)
        q_totals = None
        last_round = 1
        for lineno, line in enumerate(fh, 2):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc.msg}") from None
            if not isinstance(doc, dict):
                raise ParseError(f"line {lineno}: unknown record")
            if "event" in doc:
                ev = _tuplify(doc["event"])
                try:
                    last_round = _check_event(ev, last_round, ahead, edges)
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                trace.events.append(ev)
                if ev[0] == "inject":
                    net[ev[1]] = net.get(ev[1], 0) + 1
                elif ev[0] == "absorb":
                    net[ev[1]] = net.get(ev[1], 0) - 1
            elif "q_totals" in doc:
                q_totals = doc["q_totals"]
            else:
                raise ParseError(f"line {lineno}: unknown record")
    _check_totals(net, q_totals, config.horizon)
    trace.q_totals = q_totals
    _rebuild_packet_records(trace)
    return trace


# The number of fields of each kind of event, kind and round included.
_EVENT_FIELDS = {"inject": 5, "transmit": 4, "stall": 5, "group": 6,
                 "annihilate": 4, "absorb": 3, "reroute": 7, "fail": 3,
                 "fail_notify": 4, "recover": 3}


def _is_path(value, edges) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(e, str) and e in edges for e in value)


def _check_event(ev, last_round: int, ahead: dict, edges) -> int:
    """Refuse a malformed event, or one that moves a packet not queued there.

    ``ahead`` maps each injected packet to the edges it has still to cross
    (``None`` once absorbed) and is updated. Returns the event's round.
    """
    if not (isinstance(ev, tuple) and len(ev) >= 2 and isinstance(ev[0], str)
            and type(ev[1]) is int):
        raise ParseError("an event is a list [kind, round, ...]")
    kind, rnd = ev[0], ev[1]
    if _EVENT_FIELDS.get(kind) != len(ev):
        raise ParseError(f"malformed {kind!r} event")
    if rnd < 1:
        raise ParseError(f"event of round {rnd}; rounds start at 1")
    if rnd < last_round:
        raise ParseError(f"event of round {rnd} after round {last_round}")
    if kind in ("inject", "absorb", "reroute"):
        pid = ev[2]
    elif kind in ("transmit", "stall"):
        pid = ev[3]
    else:
        return rnd
    if type(pid) is not int:
        raise ParseError(f"{kind} event with packet id {pid!r}")
    if kind == "inject":
        if pid in ahead:
            raise ParseError(f"packet {pid} is injected twice")
        if not (ev[3] and _is_path(ev[3], edges)):
            raise ParseError(f"packet {pid} is injected on a path not in the network")
        ahead[pid] = ev[3]
        return rnd
    rest = ahead.get(pid)
    if rest is None:
        state = "already absorbed" if pid in ahead else "never injected"
        raise ParseError(f"{kind} of packet {pid}, which is {state}")
    if kind == "absorb":
        if rest:
            raise ParseError(f"absorb of packet {pid} with {list(rest)} still to cross")
        ahead[pid] = None
        return rnd
    edge = ev[5] if kind == "reroute" else ev[2]
    if not rest or rest[0] != edge:
        raise ParseError(f"{kind} of packet {pid} at {edge!r}, where it is not queued")
    if kind == "transmit":
        ahead[pid] = rest[1:]
    elif kind == "reroute":
        if ev[3] != rest or not _is_path(ev[4], edges):
            raise ParseError(f"reroute of packet {pid} does not match its path")
        ahead[pid] = ev[4]
    return rnd


def _check_totals(net: dict[int, int], q_totals, horizon: int):
    """The stored totals must be the running sum of the per-round net counts."""
    if q_totals is None:
        raise ParseError("trace has no q_totals record")
    if not (isinstance(q_totals, list) and all(type(q) is int for q in q_totals)):
        raise ParseError("q_totals is not a list of integers")
    if len(q_totals) != horizon:
        raise ParseError(f"q_totals has {len(q_totals)} rounds, the horizon is {horizon}")
    if any(not 1 <= rnd <= horizon for rnd in net):
        raise ParseError(f"trace injects or absorbs packets outside rounds 1..{horizon}")
    queued = 0
    for rnd, stored in enumerate(q_totals, 1):
        queued += net.get(rnd, 0)
        if stored != queued:
            raise ParseError(
                f"q_totals disagrees with the events from round {rnd}: "
                f"{stored} stored, {queued} injected and not absorbed")


def _rebuild_packet_records(trace: ExecutionTrace):
    """Fold the event stream back into per-packet audit records."""
    for ev in trace.events:
        kind = ev[0]
        if kind == "inject":
            _, rnd, pid, path, pri = ev
            trace.packets[pid] = PacketRecord(pid, rnd, pri, path, path)
        elif kind == "reroute":
            _, _rnd, pid, old_suffix, new_suffix, _edge, _fail = ev
            rec = trace.packets[pid]
            prefix = rec.final_path[: len(rec.final_path) - len(old_suffix)]
            rec.final_path = prefix + new_suffix
            rec.rerouted = True
        elif kind == "absorb":
            _, rnd, pid = ev
            trace.packets[pid].absorbed_round = rnd


def write_metrics_csv(trace: ExecutionTrace, path):
    """Per-round rows: round, edge, queue length and the total queued."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,edge,queue_len,q_total\n")
        for rnd, (sizes, total) in enumerate(
                zip(trace.queue_sizes(), trace.q_totals), 1):
            if not sizes:
                fh.write(f"{rnd},,0,{total}\n")
                continue
            for edge in sorted(sizes):
                fh.write(f"{rnd},{edge},{sizes[edge]},{total}\n")
