"""Scenario file format, trace export and import.

Scenarios are strict JSON: unknown keys and mistyped values are rejected
anywhere, naming the field, because a scenario file is an experiment
record and a typo that parses silently corrupts results. Rationals travel
as "num/den" strings and never pass through floating point. Failures that
``promote_after_tau`` adds are written as failures, without the switch.

A trace file (version 4) is line-delimited JSON: one header record
binding the trace to the scenario (content hash plus the embedded
scenario itself), one record per event, then the total queued after each
round. The header line is the compact, key-sorted JSON of the header
record, and the hash is the SHA-256 of the scenario's compact, key-sorted
JSON as it stands in that line, so a load hashes the stored bytes and
never encodes the scenario again. The events are those the checkers and
the packet audit read:
inject, transmit, stall, group, annihilate, absorb, reroute, fail,
fail_notify and recover. Per-edge queue lengths are not stored; they are
a function of the events (``ExecutionTrace.queue_sizes``). The file
carries everything needed to reproduce the run.

Loading checks the file against itself. Every event must be well formed
and in round order, and must move a packet that is queued where the event
says: no second inject of one packet, no transmit, stall, reroute or
absorb of a packet that was never injected or is already absorbed. Every
edge an event names must be in the network, an inject's priority must be
one of the policy's levels, each stall must be followed directly by its
group, holding the edges its packet has still to cross, and an annihilate
must end a group that was created and is not yet annihilated. A fail,
fail_notify or recover must be the header scenario's, in its round, and
fail a live edge or recover a failed one; a reroute must leave a failed
edge and name the round it last failed. The running
count of injections minus absorptions must equal the stored total after
every round, so an edited total or a dropped event is refused with the
first round where they disagree. Bytes that are not UTF-8 are refused with
the line that holds them. Files of versions 1 to 3 are refused as an
unsupported format.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain

from .buckets import FORCED, VOLUNTARY, AdversaryType
from .engine import (ExecutionTrace, FailureEvent, Injection, PacketRecord,
                     RecoveryEvent, ScenarioConfig)
from .netmodel import Edge, Network
from .policies import POLICY_NAMES, Prioritized, parse_policy

TRACE_FORMAT = "aqsim-trace"
TRACE_VERSION = 4


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


def _keys(required, optional=None):
    """An object schema from its required and optional keys, each mapped to
    the type of its value (see ``_is``): the required keys, every key it
    allows, the required keys as a set, and the (key, type) pairs."""
    types = {**required, **(optional or {})}
    return tuple(required), frozenset(types), frozenset(required), tuple(types.items())


def _is(value, kind) -> bool:
    """Whether ``value`` is of type ``kind`` itself (no bool is an int), or,
    where ``kind`` is a list of one type, a list of values of that type."""
    if type(kind) is list:
        return type(value) is list and all(type(v) is kind[0] for v in value)
    return type(value) is kind


def _fits(mapping, keys) -> bool:
    """Whether ``mapping`` has the keys ``_require`` asks for; it formats no message."""
    _required, allowed, required, _types = keys
    return isinstance(mapping, dict) and allowed >= mapping.keys() >= required


def _require(mapping, where, keys):
    required, allowed, _, types = keys
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ParseError(f"{where}: missing key {key!r}")
    for key, kind in types:
        if key in mapping and not _is(mapping[key], kind):
            shown = f"a list of {kind[0].__name__}" if type(kind) is list else kind.__name__
            raise ParseError(f"{where}.{key}: expected {shown}, got {mapping[key]!r}")
    return mapping


def _entries(entries: list, where: str, keys) -> list:
    """``entries``, each of which must pass ``_require``.

    The keys of each entry, then the types of each key's values over all
    entries at once, are checked without formatting a message; only when a
    check fails are the entries required one by one, so that the first
    bad one is named.
    """
    fits = all(_fits(entry, keys) for entry in entries)
    for key, kind in keys[3] if fits else ():
        values = [entry[key] for entry in entries if key in entry]
        if type(kind) is list:
            fits = (set(map(type, values)) <= {list}
                    and set(map(type, chain.from_iterable(values))) <= {kind[0]})
        else:
            fits = set(map(type, values)) <= {kind}
        if not fits:
            break
    if not fits:
        for i, entry in enumerate(entries):
            _require(entry, f"{where}[{i}]", keys)
    return entries


_SCENARIO_KEYS = _keys(dict.fromkeys(("network", "adversary", "policy", "schedules", "run"),
                                     dict))
_NETWORK_KEYS = _keys({"nodes": [str], "edges": list})
_EDGE_KEYS = _keys({"id": str, "tail": str, "head": str}, {"slowness": int})
_ADVERSARY_KEYS = _keys({"r": str, "b": int, "delta": int, "tau": int, "tau_prime": int})
_POLICY_KEYS = _keys({"name": str}, {"priorities": int})
_SCHEDULES_KEYS = _keys({}, dict.fromkeys(
    ("injections", "stalls", "annihilations", "failures", "recoveries"), list))
_INJECTION_KEYS = _keys({"round": int, "path": [str]}, {"priority": int, "id": int})
_STALL_KEYS = _keys({"edge": str, "rounds": [int]})
_ANNIHILATION_KEYS = _keys({"edge": str, "round": int, "delay": int})
_FAILURE_KEYS = _keys({"edge": str, "round": int}, {"notify_delay": int})
_RECOVERY_KEYS = _keys({"edge": str, "round": int})
_RUN_KEYS = _keys({"horizon": int},
                  {"seed": int, "promote_after_tau": bool, "enforce_buckets": bool})
_HEADER_KEYS = _keys({"format": str, "version": int, "scenario_hash": str, "scenario": dict})


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
    if not config.enforce_buckets:
        run["enforce_buckets"] = False
    return {
        "network": {"nodes": list(net.sorted_nodes), "edges": edges},
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
    """The scenario of a scenario document.

    Every key must be known and every value of its type, or a ParseError
    names the field: a mistyped value never reaches the model.
    """
    _require(doc, "scenario", _SCENARIO_KEYS)
    net_doc = _require(doc["network"], "network", _NETWORK_KEYS)
    edges = [Edge(entry["id"], entry["tail"], entry["head"], entry.get("slowness", 1))
             for entry in _entries(net_doc["edges"], "network.edges", _EDGE_KEYS)]
    network = Network(net_doc["nodes"], edges)

    adv_doc = _require(doc["adversary"], "adversary", _ADVERSARY_KEYS)
    adversary = AdversaryType(parse_rational(adv_doc["r"]), adv_doc["b"],
                              adv_doc["delta"])

    pol_doc = _require(doc["policy"], "policy", _POLICY_KEYS)
    if pol_doc["name"] not in POLICY_NAMES:
        raise ParseError(f"policy: unknown name {pol_doc['name']!r}")
    policy = parse_policy(pol_doc["name"], pol_doc.get("priorities"))

    sched = _require(doc["schedules"], "schedules", _SCHEDULES_KEYS)
    injections = tuple(
        Injection(entry["round"], tuple(entry["path"]), entry.get("priority", 0),
                  entry.get("id"))
        for entry in _entries(sched.get("injections", []), "injections", _INJECTION_KEYS))
    stalls = {entry["edge"]: frozenset(entry["rounds"])
              for entry in _entries(sched.get("stalls", []), "stalls", _STALL_KEYS)}
    delays = {(entry["edge"], entry["round"]): entry["delay"]
              for entry in _entries(sched.get("annihilations", []), "annihilations",
                                    _ANNIHILATION_KEYS)}
    failures = tuple(
        FailureEvent(entry["edge"], entry["round"], entry.get("notify_delay", 0))
        for entry in _entries(sched.get("failures", []), "failures", _FAILURE_KEYS))
    recoveries = tuple(
        RecoveryEvent(entry["edge"], entry["round"])
        for entry in _entries(sched.get("recoveries", []), "recoveries", _RECOVERY_KEYS))

    run_doc = _require(doc["run"], "run", _RUN_KEYS)
    config = ScenarioConfig(
        network=network,
        adversary=adversary,
        policy=policy,
        horizon=run_doc["horizon"],
        injections=injections,
        stalls=stalls,
        annihilation_delays=delays,
        failures=failures,
        recoveries=recoveries,
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


def _scenario_text(config: ScenarioConfig) -> str:
    """The compact, key-sorted JSON of the scenario: the text its hash covers."""
    return json.dumps(scenario_to_dict(config), sort_keys=True, separators=(",", ":"))


def scenario_hash(config: ScenarioConfig) -> str:
    """SHA-256 of the compact, key-sorted JSON of the scenario."""
    return hashlib.sha256(_scenario_text(config).encode()).hexdigest()


# -- traces ---------------------------------------------------------------------


_encode_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
# Trace lines encoded or decoded per json call: one call per line would
# cost more in calls than in JSON, one for the whole file more in memory.
_CHUNK_LINES = 1024


def trace_digest(trace: ExecutionTrace) -> str:
    """Hash of the dynamic record: events plus per-round queue totals.

    SHA-256 over the compact JSON of the event list followed by the compact
    JSON of ``q_totals``, the events encoded ``_CHUNK_LINES`` at a time.
    Per-edge queue lengths are a function of the events, so the digest
    covers them too. A saved and reloaded trace keeps its digest.
    """
    h = hashlib.sha256(b"[")
    events = trace.events
    for start in range(0, len(events), _CHUNK_LINES):
        if start:
            h.update(b",")
        h.update(_encode_compact(events[start:start + _CHUNK_LINES])[1:-1].encode())
    h.update(b"]")
    h.update(_encode_compact(trace.q_totals).encode())
    return h.hexdigest()


# The header line is the compact, key-sorted JSON of the header record,
# laid out as _HEADER_HEAD + scenario + _HEADER_HASH + hash + _HEADER_TAIL,
# where the scenario is its compact, key-sorted JSON and the hash its
# SHA-256: a load hashes the scenario as stored, without encoding it again.
_HEADER_HEAD = f'{{"format":"{TRACE_FORMAT}","scenario":'
_HEADER_HASH = ',"scenario_hash":"'
_HEADER_TAIL = f'","version":{TRACE_VERSION}}}'
_HEADER_END = len(_HEADER_HASH) + 64 + len(_HEADER_TAIL)  # from the scenario's end


def save_trace(trace: ExecutionTrace, path):
    scenario = _scenario_text(trace.config)
    digest = hashlib.sha256(scenario.encode()).hexdigest()
    events = trace.events
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER_HEAD + scenario + _HEADER_HASH + digest + _HEADER_TAIL + "\n")
        for start in range(0, len(events), _CHUNK_LINES):
            # Events hold only str, int and tuples, so outside strings a "}"
            # closes a record, and a string holds no bare quote:
            # '},{"event":' occurs only between two records, and each line
            # is what encoding its record alone would give.
            records = _encode_compact(
                [{"event": ev} for ev in events[start:start + _CHUNK_LINES]])
            fh.write(records[1:-1].replace('},{"event":', '}\n{"event":') + "\n")
        fh.write(_encode_compact({"q_totals": trace.q_totals}) + "\n")


def load_trace(path) -> ExecutionTrace:
    # Bytes that are not UTF-8 are read as lone surrogates, which UTF-8 text
    # never holds, so the line that holds them is found where it is decoded.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        trace = ExecutionTrace(_read_header(fh.readline()))
        net, q_totals = _read_records(trace, _decode_chunks(fh.readlines()))
    _check_totals(net, q_totals, trace.horizon)
    trace.q_totals = q_totals
    return trace


def _read_header(line: str) -> ScenarioConfig:
    """The scenario of a trace header, which must be of this version and hash.

    The line must be laid out as ``save_trace`` writes it, and its hash
    must be the SHA-256 of the scenario's bytes between the fixed head and
    tail; the scenario is then read from the decoded header.
    """
    if _undecodable(line):
        raise ParseError("line 1: bytes that are not UTF-8")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"trace header: {exc.msg}") from None
    _require(header, "trace header", _HEADER_KEYS)
    if header["format"] != TRACE_FORMAT or header["version"] != TRACE_VERSION:
        raise ParseError(
            f"unsupported trace format {header['format']!r} v{header['version']}")
    line = line.removesuffix("\n")
    end = len(line) - _HEADER_END
    if not (end >= len(_HEADER_HEAD) and line.startswith(_HEADER_HEAD)
            and line.startswith(_HEADER_HASH, end) and line.endswith(_HEADER_TAIL)):
        raise ParseError("trace header is not the compact, key-sorted layout its hash covers")
    scenario = line[len(_HEADER_HEAD):end].encode()
    if hashlib.sha256(scenario).hexdigest() != line[end + len(_HEADER_HASH):-len(_HEADER_TAIL)]:
        raise ParseError("trace header hash does not match its scenario")
    return scenario_from_dict(header["scenario"])


def _undecodable(text: str) -> bool:
    """Whether text read with ``surrogateescape`` held bytes that are not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode()
    except UnicodeEncodeError:
        return True
    return False


def _decode_lines(lines, first: int):
    """Decode each line on its own; a line that is not UTF-8 JSON names its number."""
    for lineno, line in enumerate(lines, first):
        if _undecodable(line):
            raise ParseError(f"line {lineno}: bytes that are not UTF-8")
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: {exc.msg}") from None


def _decode_chunks(lines: list[str]):
    """The records of the lines after the header, one per line.

    A chunk of lines is decoded in one call when each line starts with "{",
    ends with "}" and holds no other brace: a line that starts outside a
    string then holds exactly one record, which ends on it, and a line
    that continues the one before leaves the call with fewer records than
    lines. Other chunks, and those holding bytes that are not UTF-8, are
    decoded line by line.
    """
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        text = "".join(chunk)
        count = len(chunk)
        if (text[0] == "{" and text.endswith(("}", "}\n"))
                and not _undecodable(text)
                and text.count("}\n{") == count - 1
                and text.count("{") == count == text.count("}")):
            try:
                records = json.loads("[" + ",".join(chunk) + "]")
            except json.JSONDecodeError:
                records = ()
            if len(records) == count:
                yield from records
                continue
        yield from _decode_lines(chunk, start + 2)


def _tuplify(value: list) -> tuple:
    """``value`` with every list in it, at any depth, made a tuple."""
    return tuple([_tuplify(v) if type(v) is list else v for v in value])


# The number of fields of each kind of event, kind and round included.
_EVENT_FIELDS = {"inject": 5, "transmit": 4, "stall": 5, "group": 6,
                 "annihilate": 4, "absorb": 3, "reroute": 7, "fail": 3,
                 "fail_notify": 4, "recover": 3}
# The fields that hold a path: the only lists in a well-formed event.
_PATH_FIELDS = {"inject": (3,), "group": (5,), "reroute": (3, 4)}


def _is_path(value, edges) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(e, str) and e in edges for e in value)


def _read_records(trace: ExecutionTrace, records):
    """Check the records after the header and fold their events into ``trace``.

    One pass. Each event must be well formed, in round order and move a
    packet that is queued where the event says; ``ahead`` maps each
    injected packet to the edges it has still to cross (``None`` once
    absorbed). An inject's priority must be one of the policy's levels, and
    each stall must be followed directly by its group, which holds the
    edges its packet has still to cross. The event, its lists made tuples,
    is then appended, counted in its round's injections minus absorptions,
    and folded into the packet audit records. Returns those per-round
    counts and the stored totals.

    Well-typed transmit, absorb and inject events, most of any trace, take
    a lane of their own that runs their checks in the same order. An event
    a lane does not accept goes on, untouched, to the generic checks, the
    only ones that raise, so a refusal reads the same whichever way the
    event came.
    """
    config = trace.config
    edges = set(config.network.edges)
    levels = config.policy.levels if isinstance(config.policy, Prioritized) else 1
    events, packets = trace.events, trace.packets
    append = events.append
    ahead: dict[int, tuple | None] = {}
    groups: dict[int, bool] = {}  # group id -> not yet annihilated
    faults = _Faults(config)
    net: dict[int, int] = {}  # round -> injections minus absorptions
    q_totals = None
    last_round = 1
    stalled = None  # the stall event whose group is the next record
    for lineno, doc in enumerate(records, 2):
        if stalled is None and type(doc) is dict:
            ev = doc.get("event")
            if type(ev) is list:
                n = len(ev)
                if n == 4:
                    kind, rnd, edge, pid = ev
                    if (kind == "transmit" and type(rnd) is int and rnd >= last_round
                            and type(pid) is int):
                        rest = ahead.get(pid)
                        if rest and rest[0] == edge:
                            ahead[pid] = rest[1:]
                            last_round = rnd
                            append(("transmit", rnd, edge, pid))
                            continue
                elif n == 3:
                    kind, rnd, pid = ev
                    if (kind == "absorb" and type(rnd) is int and rnd >= last_round
                            and type(pid) is int and ahead.get(pid) == ()):
                        ahead[pid] = None
                        packets[pid].absorbed_round = rnd
                        net[rnd] = net.get(rnd, 0) - 1
                        last_round = rnd
                        append(("absorb", rnd, pid))
                        continue
                elif n == 5:
                    kind, rnd, pid, path, priority = ev
                    if (kind == "inject" and type(rnd) is int and rnd >= last_round
                            and type(pid) is int and pid not in ahead
                            and type(path) is list and path
                            and all(type(e) is str and e in edges for e in path)
                            and type(priority) is int and 0 <= priority < levels):
                        path = tuple(path)
                        ahead[pid] = path
                        packets[pid] = PacketRecord(pid, rnd, priority, path, path)
                        net[rnd] = net.get(rnd, 0) + 1
                        last_round = rnd
                        append(("inject", rnd, pid, path, priority))
                        continue
        try:
            if type(doc) is not dict:
                raise ParseError("unknown record")
            if "event" not in doc:
                if "q_totals" not in doc:
                    raise ParseError("unknown record")
                if stalled is not None:
                    raise _unpaired(stalled)
                q_totals = doc["q_totals"]
                continue
            ev = doc["event"]
            if not (type(ev) is list and len(ev) >= 2 and type(ev[0]) is str
                    and type(ev[1]) is int):
                raise ParseError("an event is a list [kind, round, ...]")
            kind, rnd = ev[0], ev[1]
            if _EVENT_FIELDS.get(kind) != len(ev):
                raise ParseError(f"malformed {kind!r} event")
            for i in _PATH_FIELDS.get(kind, ()):
                if type(ev[i]) is list:
                    ev[i] = _tuplify(ev[i])
            ev = _tuplify(ev) if list in map(type, ev) else tuple(ev)
            if rnd < 1:
                raise ParseError(f"event of round {rnd}; rounds start at 1")
            if rnd < last_round:
                raise ParseError(f"event of round {rnd} after round {last_round}")
            last_round = rnd
            if kind == "transmit" or kind == "stall":
                pid = ev[3]
            elif kind == "inject" or kind == "absorb" or kind == "reroute":
                pid = ev[2]
            else:
                _check_unmoving_event(ev, edges, groups, faults)
                if kind == "group":
                    _check_group_of_stall(ev, stalled, ahead)
                    stalled = None
                elif stalled is not None:
                    raise _unpaired(stalled)
                append(ev)
                continue
            if type(pid) is not int:
                raise ParseError(f"{kind} event with packet id {pid!r}")
            if kind == "inject":
                path, priority = ev[3], ev[4]
                if pid in ahead:
                    raise ParseError(f"packet {pid} is injected twice")
                if not (path and _is_path(path, edges)):
                    raise ParseError(
                        f"packet {pid} is injected on a path not in the network")
                if not (type(priority) is int and 0 <= priority < levels):
                    raise ParseError(
                        f"packet {pid} is injected with priority {priority!r}, "
                        f"not one of the policy's {levels} level(s)")
                if stalled is not None:
                    raise _unpaired(stalled)
                ahead[pid] = path
                packets[pid] = PacketRecord(pid, rnd, priority, path, path)
                net[rnd] = net.get(rnd, 0) + 1
                append(ev)
                continue
            rest = ahead.get(pid)
            if rest is None:
                state = "already absorbed" if pid in ahead else "never injected"
                raise ParseError(f"{kind} of packet {pid}, which is {state}")
            if kind == "absorb":
                if rest:
                    raise ParseError(
                        f"absorb of packet {pid} with {list(rest)} still to cross")
                if stalled is not None:
                    raise _unpaired(stalled)
                ahead[pid] = None
                packets[pid].absorbed_round = rnd
                net[rnd] = net.get(rnd, 0) - 1
                append(ev)
                continue
            edge = ev[5] if kind == "reroute" else ev[2]
            if not rest or rest[0] != edge:
                raise ParseError(
                    f"{kind} of packet {pid} at {edge!r}, where it is not queued")
            if kind == "stall" and type(ev[4]) is not int:
                raise ParseError(f"stall event with group id {ev[4]!r}")
            if kind == "reroute":
                new_suffix = ev[4]
                if ev[3] != rest or not _is_path(new_suffix, edges):
                    raise ParseError(f"reroute of packet {pid} does not match its path")
                faults.check_reroute(pid, edge, ev[6])
            if stalled is not None:
                raise _unpaired(stalled)
            if kind == "transmit":
                ahead[pid] = rest[1:]
            elif kind == "stall":
                stalled = ev
            else:
                ahead[pid] = new_suffix
                rec = packets[pid]
                rec.final_path = rec.final_path[: len(rec.final_path) - len(rest)] + new_suffix
                rec.rerouted = True
            append(ev)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return net, q_totals


def _unpaired(stall: tuple) -> ParseError:
    _, rnd, edge, pid, _gid = stall
    return ParseError(
        f"stall of packet {pid} at {edge!r} in round {rnd} is not followed by its group")


def _check_group_of_stall(group: tuple, stall: tuple | None, ahead: dict):
    """A group must directly follow its stall and hold its packet's remaining edges."""
    _, rnd, gid, edge, pid, members = group
    if stall is None or stall[1:] != (rnd, edge, pid, gid):
        raise ParseError(
            f"group {gid} does not directly follow the stall of packet {pid!r} "
            f"at {edge!r} in round {rnd} that it belongs to")
    if members != ahead[pid]:
        raise ParseError(
            f"group {gid} holds {members!r}, not the edges packet {pid} has still to cross")


class _Faults:
    """The fault schedule of a trace's scenario, and its edges failed so far.

    A fail and a recover must be scheduled in their round, and must fail a
    live edge or recover a failed one. A fail_notify must come in the round
    its failure is notified, and a reroute must leave a failed edge and
    name the round that edge last failed.
    """

    def __init__(self, config: ScenarioConfig):
        self.notified_in = {(ev.edge, ev.round): ev.round + ev.notify_delay
                            for ev in config.failures}
        self.recoveries = {(ev.edge, ev.round) for ev in config.recoveries}
        self.failed: dict[str, int] = {}  # failed edge -> the round it failed

    def check(self, kind: str, rnd: int, edge: str, fail_round=None):
        """Check a fail, fail_notify or recover event and apply it."""
        if kind == "fail_notify":
            if self.notified_in.get((edge, fail_round)) != rnd:
                raise ParseError(
                    f"fail_notify in round {rnd} of a failure of edge {edge!r} in round "
                    f"{fail_round}, which the scenario does not notify in that round")
        elif kind == "fail":
            if (edge, rnd) not in self.notified_in:
                raise ParseError(f"fail of edge {edge!r} in round {rnd}, which is not in "
                                 "the scenario's failures")
            if edge in self.failed:
                raise ParseError(f"fail of edge {edge!r} in round {rnd}, which is already failed")
            self.failed[edge] = rnd
        else:
            if (edge, rnd) not in self.recoveries:
                raise ParseError(f"recover of edge {edge!r} in round {rnd}, which is not in "
                                 "the scenario's recoveries")
            if self.failed.pop(edge, None) is None:
                raise ParseError(f"recover of edge {edge!r} in round {rnd}, which is not failed")

    def check_reroute(self, pid: int, edge: str, fail_round):
        failed_in = self.failed.get(edge)
        if failed_in is None:
            raise ParseError(f"reroute of packet {pid} at {edge!r}, which is not failed")
        if type(fail_round) is not int or fail_round != failed_in:
            raise ParseError(
                f"reroute of packet {pid} at {edge!r} names a failure in round "
                f"{fail_round!r}; {edge!r} last failed in round {failed_in}")


def _check_unmoving_event(ev: tuple, edges, groups: dict[int, bool], faults: _Faults):
    """Check an event that moves no packet against the network, the groups
    and the fault schedule.

    ``groups`` maps each created group to whether it is still to be
    annihilated; it and ``faults`` are updated by the event.
    """
    kind, rnd = ev[0], ev[1]
    if kind == "group":
        _, _, gid, edge, _pid, members = ev
        if type(gid) is not int:
            raise ParseError(f"group event with group id {gid!r}")
        if gid in groups:
            raise ParseError(f"group {gid} is created twice")
        if not (type(edge) is str and edge in edges):
            raise ParseError(f"group {gid} stalls at {edge!r}, which is not in the network")
        if not (members and _is_path(members, edges)):
            raise ParseError(f"group {gid} holds {members!r}, not a path of network edges")
        groups[gid] = True
    elif kind == "annihilate":
        _, _, gid, how = ev
        if type(gid) is not int:
            raise ParseError(f"annihilate event with group id {gid!r}")
        if not groups.get(gid):
            state = "already annihilated" if gid in groups else "never created"
            raise ParseError(f"annihilate of group {gid}, which is {state}")
        if how != VOLUNTARY and how != FORCED:
            raise ParseError(
                f"annihilate of group {gid} as {how!r}, not {VOLUNTARY!r} or {FORCED!r}")
        groups[gid] = False
    else:  # fail, fail_notify or recover
        edge = ev[2]
        if not (type(edge) is str and edge in edges):
            raise ParseError(f"{kind} of edge {edge!r}, which is not in the network")
        if kind == "fail_notify" and not (type(ev[3]) is int and 1 <= ev[3] <= rnd):
            raise ParseError(
                f"fail_notify in round {rnd} of a failure in round {ev[3]!r}")
        faults.check(*ev)


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


def write_metrics_csv(trace: ExecutionTrace, path):
    """Per-round rows: round, edge, queue length and the total queued."""
    rows = ["round,edge,queue_len,q_total\n"]
    for rnd, (sizes, total) in enumerate(zip(trace.queue_sizes(), trace.q_totals), 1):
        if not sizes:
            rows.append(f"{rnd},,0,{total}\n")
            continue
        for edge in sorted(sizes):
            rows.append(f"{rnd},{edge},{sizes[edge]},{total}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))
