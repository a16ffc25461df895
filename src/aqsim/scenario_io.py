"""Scenario file format, trace export and import.

Scenarios are strict JSON: unknown keys and mistyped values are rejected
anywhere, naming the field, because a scenario file is an experiment
record and a typo that parses silently corrupts results. Rationals travel
as "num/den" strings and never pass through floating point. Failures that
``promote_after_tau`` adds are written as failures, without the switch.

A scenario document (format ``aqsim-scenario``, version 2) stores the
injection script as columns: a table of the distinct paths, in the order
the script first uses them, and lists of rounds and path indices, with
priority and id lists only where some injection sets them. Each stall
row holds an edge's stall rounds and, lined up with them, their
annihilation delays, null where the scenario gives none. Columns are
type-checked whole, over the distinct types of their entries; only a
failing check walks them to name the first bad entry. A document without
a version (version 1) is refused.

A trace file (version 6) is line-delimited JSON: one header record
binding the trace to the scenario (content hash plus the embedded
scenario itself), one line per event, holding the event's compact JSON
array ``[kind, round, ...]``, then a ``{"q_totals": [...]}`` record with
the total queued after each round. The header line is the compact,
key-sorted JSON of the header record, and the hash is the SHA-256 of the
scenario's compact, key-sorted JSON as it stands in that line, so a load
hashes the stored bytes and never encodes the scenario again. The events
are those the checkers read: inject, transmit, stall, group, annihilate,
absorb, reroute, fail, fail_notify and recover. Per-edge queue lengths
and packet records are not stored; they are functions of the events
(``ExecutionTrace.queue_sizes``, ``ExecutionTrace.packets``). The file
carries everything needed to reproduce the run.

Loading reads each line on its own, exactly as ``json.loads`` reads it,
and checks the file against itself. Every event must be well formed, in
round order and by the horizon (an annihilate by the end of the drain
rounds that follow it), and must move a packet that is queued where the
event says: no second inject of one packet, no transmit, stall, reroute
or absorb of a packet that was never injected or is already absorbed.
Every edge an event names must be in the network, an inject's priority
must be one of the policy's levels, each stall must be followed directly
by its group, holding the edges its packet has still to cross, and an
annihilate must end a group that was created and is not yet annihilated.
A fail, fail_notify or recover must be the header scenario's, in its
round, and fail a live edge or recover a failed one, and every fail and
recover the scenario schedules must be there, with every fail_notify due
by the horizon, once. A reroute must leave a failed edge and name the
round it last failed. The running count of injections minus absorptions
must equal the stored total after every round, so an edited total or a
dropped event is refused with the first round where they disagree, and
the totals record must be the last. Bytes that are not UTF-8 are refused
with the line that holds them. Files of versions 1 to 5 are refused as an
unsupported format.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import partial
from itertools import repeat

from .buckets import FORCED, VOLUNTARY, AdversaryType
from .engine import ExecutionTrace, FailureEvent, Injection, RecoveryEvent, ScenarioConfig
from .netmodel import Edge, Network
from .policies import POLICY_NAMES, Prioritized, parse_policy

SCENARIO_FORMAT = "aqsim-scenario"
SCENARIO_VERSION = 2
TRACE_FORMAT = "aqsim-trace"
TRACE_VERSION = 6


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
    the kind of its value (see ``_fits``): the required keys, every key it
    allows, the required keys as a set, and the (key, kind) pairs."""
    kinds = {**required, **(optional or {})}
    return tuple(required), frozenset(kinds), frozenset(required), tuple(kinds.items())


_NULL = type(None)


def _fits(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a type itself (no bool is an int),
    one of a tuple of types, or, where ``kind`` is a list of one kind, a
    list of values of that kind. A list of plain values is checked over the
    distinct types of its entries, without a call per entry."""
    if type(kind) is tuple:
        return type(value) in kind
    if type(kind) is not list:
        return type(value) is kind
    if type(value) is not list:
        return False
    entry = kind[0]
    if type(entry) is list:
        return all(_fits(v, entry) for v in value)
    return set(map(type, value)) <= (set(entry) if type(entry) is tuple else {entry})


def _shown(kind) -> str:
    if type(kind) is list:
        entry = kind[0]
        return ("a list of lists of " + _shown(entry[0]) if type(entry) is list
                else "a list of " + _shown(entry))
    if type(kind) is tuple:
        return " or ".join(_shown(k) for k in kind)
    return "null" if kind is _NULL else kind.__name__


def _mistyped(value, kind, where: str) -> ParseError:
    """The error for a ``value`` that does not fit ``kind``, naming the
    first entry of a list that does not fit, at any depth."""
    if type(kind) is list and type(value) is list:
        for i, v in enumerate(value):
            if not _fits(v, kind[0]):
                return _mistyped(v, kind[0], f"{where}[{i}]")
    return ParseError(f"{where}: expected {_shown(kind)}, got {value!r}")


def _require(mapping, where, keys):
    required, allowed, _, kinds = keys
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ParseError(f"{where}: missing key {key!r}")
    for key, kind in kinds:
        if key in mapping and not _fits(mapping[key], kind):
            raise _mistyped(mapping[key], kind, f"{where}.{key}")
    return mapping


def _entries(entries: list, where: str, keys) -> list:
    """``entries``, each of which must pass ``_require``.

    The key sets of the entries, then the values of each key, are checked
    over the distinct key sets and value types, without a call per entry;
    only when a check fails are the entries required one by one, so that
    the first bad one is named.
    """
    _required, allowed, required, kinds = keys
    fits = set(map(type, entries)) <= {dict} and all(
        allowed >= key_set >= required for key_set in set(map(frozenset, entries)))
    if fits:
        fits = all(_fits([entry[key] for entry in entries if key in entry], [kind])
                   for key, kind in kinds)
    if not fits:
        for i, entry in enumerate(entries):
            _require(entry, f"{where}[{i}]", keys)
    return entries


_SCENARIO_KEYS = _keys({"format": str, "version": int,
                        **dict.fromkeys(("network", "adversary", "policy", "schedules", "run"),
                                        dict)})
_NETWORK_KEYS = _keys({"nodes": [str], "edges": list})
_EDGE_KEYS = _keys({"id": str, "tail": str, "head": str}, {"slowness": int})
_ADVERSARY_KEYS = _keys({"r": str, "b": int, "delta": int, "tau": int, "tau_prime": int})
_POLICY_KEYS = _keys({"name": str}, {"priorities": int})
_SCHEDULES_KEYS = _keys({}, {"paths": [[str]], "injections": dict, "stalls": list,
                             "failures": list, "recoveries": list})
_INJECTION_KEYS = _keys({"round": [int], "path": [int]}, {"priority": [int], "id": [int]})
_STALL_KEYS = _keys({"edge": str, "rounds": [int], "delays": [(int, _NULL)]})
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
    paths: dict[tuple, int] = {}  # each distinct path -> its index, in first-use order
    script = config.injections
    injections = {"round": [inj.round for inj in script],
                  "path": [paths.setdefault(inj.path, len(paths)) for inj in script]}
    if any(inj.priority for inj in script):
        injections["priority"] = [inj.priority for inj in script]
    if any(inj.id is not None for inj in script):
        injections["id"] = [inj.id for inj in script]
    delays = config.annihilation_delays
    stalls = []
    for edge in sorted(config.stalls):
        rounds = sorted(config.stalls[edge])
        stalls.append({"edge": edge, "rounds": rounds,
                       "delays": [delays.get((edge, rnd)) for rnd in rounds]})
    run = {"horizon": config.horizon}
    if config.seed is not None:
        run["seed"] = config.seed
    if not config.enforce_buckets:
        run["enforce_buckets"] = False
    return {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
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
            "paths": [list(path) for path in paths],
            "injections": injections,
            "stalls": stalls,
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

    A document of another format or version is refused first. Every key
    must be known and every value of its type, or a ParseError names the
    field: a mistyped value never reaches the model.
    """
    if isinstance(doc, dict) and "version" not in doc:
        raise ParseError("unsupported scenario format v1: the document has no version; "
                         f"v{SCENARIO_VERSION} is read")
    _require(doc, "scenario", _SCENARIO_KEYS)
    if doc["format"] != SCENARIO_FORMAT or doc["version"] != SCENARIO_VERSION:
        raise ParseError(f"unsupported scenario format {doc['format']!r} v{doc['version']}")
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
    stalls, delays = _stall_rows(sched.get("stalls", []))
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
        injections=_injection_columns(sched),
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


# Builds an Injection from its four fields, all in C: every tuple of the
# columns' zip has exactly the four.
_injection = partial(tuple.__new__, Injection)


def _injection_columns(sched: dict) -> tuple[Injection, ...]:
    """The injections of the schedules' columns, each path looked up in the
    path table. The columns must be of one length, and every path index
    must be in the table."""
    if "injections" not in sched:
        return ()
    columns = _require(sched["injections"], "injections", _INJECTION_KEYS)
    rounds, at = columns["round"], columns["path"]
    n = len(rounds)
    for key, column in columns.items():
        if len(column) != n:
            raise ParseError(
                f"injections.{key} has {len(column)} entries, injections.round has {n}")
    paths = [tuple(path) for path in sched.get("paths", [])]
    if at and not (min(at) >= 0 and max(at) < len(paths)):
        i = next(i for i, p in enumerate(at) if not 0 <= p < len(paths))
        raise ParseError(
            f"injections.path[{i}]: {at[i]} is not an index of the {len(paths)} paths")
    return tuple(map(_injection, zip(rounds, map(paths.__getitem__, at),
                                     columns.get("priority", repeat(0, n)),
                                     columns.get("id", repeat(None, n)))))


def _stall_rows(rows: list) -> tuple[dict, dict]:
    """The stall rounds per edge, and the annihilation delays per stalled
    (edge, round), of the stall rows. Each row's delays line up with its
    rounds, a null where the scenario gives none; an edge has one row, and
    a round is listed once."""
    stalls: dict[str, frozenset] = {}
    delays: dict[tuple[str, int], int] = {}
    for i, row in enumerate(_entries(rows, "stalls", _STALL_KEYS)):
        edge, rounds, row_delays = row["edge"], row["rounds"], row["delays"]
        if len(row_delays) != len(rounds):
            raise ParseError(f"stalls[{i}]: {len(row_delays)} delays for {len(rounds)} rounds")
        if edge in stalls:
            raise ParseError(f"stalls[{i}]: a second row for edge {edge!r}")
        stalls[edge] = frozenset(rounds)
        if len(stalls[edge]) != len(rounds):
            raise ParseError(f"stalls[{i}].rounds: a round is listed twice")
        delays.update(((edge, rnd), delay) for rnd, delay in zip(rounds, row_delays)
                      if delay is not None)
    return stalls, delays


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
# The fast path of the trace line decoder (``_read_records``): ``_scan(line,
# 0)`` gives the JSON value that starts the line and the index where it ends.
_scan = json.JSONDecoder().scan_once
# Events encoded per json call: one call per event would cost more in calls
# than in JSON, one for the whole trace more in memory.
_CHUNK_EVENTS = 1024
# Where the next event starts in the compact JSON of an event list: a list
# of a kind and a round. A path is a list of strings, never followed by a
# number, and a string holds no bare quote, so nowhere else in an event.
_NEXT_EVENT = re.compile(r'\],(?=\["[a-z_]+",\d)')


def trace_digest(trace: ExecutionTrace) -> str:
    """Hash of the dynamic record: events plus per-round queue totals.

    SHA-256 over the compact JSON of the event list followed by the compact
    JSON of ``q_totals``, the events encoded ``_CHUNK_EVENTS`` at a time.
    Per-edge queue lengths are a function of the events, so the digest
    covers them too. A saved and reloaded trace keeps its digest.
    """
    h = hashlib.sha256(b"[")
    events = trace.events
    for start in range(0, len(events), _CHUNK_EVENTS):
        if start:
            h.update(b",")
        h.update(_encode_compact(events[start:start + _CHUNK_EVENTS])[1:-1].encode())
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


def save_trace(trace: ExecutionTrace, path) -> str:
    """Write the trace file; returns the trace's digest (``trace_digest``),
    hashed from the same encoded chunks as the file."""
    scenario = _scenario_text(trace.config)
    scenario_sha = hashlib.sha256(scenario.encode()).hexdigest()
    events = trace.events
    digest = hashlib.sha256(b"[")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER_HEAD + scenario + _HEADER_HASH + scenario_sha + _HEADER_TAIL + "\n")
        for start in range(0, len(events), _CHUNK_EVENTS):
            chunk = _encode_compact(events[start:start + _CHUNK_EVENTS])[1:-1]
            if start:
                digest.update(b",")
            digest.update(chunk.encode())
            # Each line is then what encoding its event alone would give.
            fh.write(_NEXT_EVENT.sub("]\n", chunk) + "\n")
        totals = _encode_compact(trace.q_totals)
        fh.write('{"q_totals":' + totals + "}\n")
    digest.update(b"]")
    digest.update(totals.encode())
    return digest.hexdigest()


def load_trace(path) -> ExecutionTrace:
    # Bytes that are not UTF-8 are read as lone surrogates, which UTF-8 text
    # never holds, so the line that holds them is found where it is decoded.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        trace = ExecutionTrace(_read_header(fh.readline()))
        net, q_totals = _read_records(trace, fh)
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


def _decode_line(line: str, lineno: int):
    """The record of a line as ``json.loads`` reads it, or a ParseError
    naming the line: bytes that are not UTF-8 first, then bad JSON."""
    if _undecodable(line):
        raise ParseError(f"line {lineno}: bytes that are not UTF-8")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: {exc.msg}") from None


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


def _read_records(trace: ExecutionTrace, lines):
    """Decode and check the lines after the header and fold their events
    into ``trace``.

    One pass. Each line is decoded as ``json.loads`` decodes it on its own,
    by the fast path of ``_scan`` when the value fills the line. Each event
    must be well formed, in round order, by the horizon (an annihilate by
    the end of the drain rounds) and move a packet that is queued where the
    event says; ``ahead`` maps each injected packet to the edges it has
    still to cross (``None`` once absorbed). An inject's priority must be
    one of the policy's levels, and each stall must be followed directly by
    its group, which holds the edges its packet has still to cross. The
    event, its lists made tuples, is then appended and counted in its
    round's injections minus absorptions. The totals record ends the
    records: a line after it is refused. Each fault event the scenario
    schedules by the horizon must then have been seen. Returns the
    per-round counts and the stored totals.

    Well-typed transmit, absorb and inject events, most of any trace, take
    a lane of their own that runs their checks in the same order. An event
    a lane does not accept goes on, untouched, to the generic checks, the
    only ones that raise, so a refusal reads the same whichever way the
    event came.
    """
    config = trace.config
    edges = set(config.network.edges)
    levels = config.policy.levels if isinstance(config.policy, Prioritized) else 1
    horizon = config.horizon
    drained = config.last_round  # the last round of an annihilate
    append = trace.events.append
    ahead: dict[int, tuple | None] = {}
    groups: dict[int, bool] = {}  # group id -> not yet annihilated
    faults = _Faults(config)
    net: dict[int, int] = {}  # round -> injections minus absorptions
    q_totals = None
    last_round = 1
    stalled = None  # the stall event whose group is the next record
    numbered = enumerate(lines, 2)
    for lineno, line in numbered:
        try:
            ev, end = _scan(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end is None or line[end:] != "\n" or not line.isascii() and _undecodable(line):
            ev = _decode_line(line, lineno)
        if stalled is None and type(ev) is list:
            n = len(ev)
            if n == 4:
                kind, rnd, edge, pid = ev
                if (kind == "transmit" and type(rnd) is int and last_round <= rnd <= horizon
                        and type(pid) is int):
                    rest = ahead.get(pid)
                    if rest and rest[0] == edge:
                        ahead[pid] = rest[1:]
                        last_round = rnd
                        append(("transmit", rnd, edge, pid))
                        continue
            elif n == 3:
                kind, rnd, pid = ev
                if (kind == "absorb" and type(rnd) is int and last_round <= rnd <= horizon
                        and type(pid) is int and ahead.get(pid) == ()):
                    ahead[pid] = None
                    net[rnd] = net.get(rnd, 0) - 1
                    last_round = rnd
                    append(("absorb", rnd, pid))
                    continue
            elif n == 5:
                kind, rnd, pid, path, priority = ev
                if (kind == "inject" and type(rnd) is int and last_round <= rnd <= horizon
                        and type(pid) is int and pid not in ahead
                        and type(path) is list and path
                        and all(type(e) is str and e in edges for e in path)
                        and type(priority) is int and 0 <= priority < levels):
                    path = tuple(path)
                    ahead[pid] = path
                    net[rnd] = net.get(rnd, 0) + 1
                    last_round = rnd
                    append(("inject", rnd, pid, path, priority))
                    continue
        try:
            if type(ev) is not list:
                if not (type(ev) is dict and "q_totals" in ev):
                    raise ParseError("unknown record")
                if stalled is not None:
                    raise _unpaired(stalled)
                q_totals = ev["q_totals"]
                break
            if not (len(ev) >= 2 and type(ev[0]) is str and type(ev[1]) is int):
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
            if rnd > horizon:
                if kind != "annihilate":
                    raise ParseError(f"{kind} event of round {rnd}, after the horizon {horizon}")
                if rnd > drained:
                    raise ParseError(f"annihilate event of round {rnd}, after the drain "
                                     f"rounds {horizon + 1}..{drained}")
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
            append(ev)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    for lineno, _line in numbered:
        raise ParseError(f"line {lineno}: a record after the q_totals record")
    faults.check_complete()
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
    name the round that edge last failed. Every scheduled fail and recover,
    and every fail_notify due by the horizon, must be read, a fail_notify
    once.
    """

    def __init__(self, config: ScenarioConfig):
        self.notified_in = {(ev.edge, ev.round): ev.round + ev.notify_delay
                            for ev in config.failures}
        self.recoveries = {(ev.edge, ev.round) for ev in config.recoveries}
        self.failed: dict[str, int] = {}  # failed edge -> the round it failed
        # The scheduled fault events not read yet, as (round, kind, edge,
        # failure round); a fail or recover names its own round last.
        self.due = {(ev.round, "fail", ev.edge, ev.round) for ev in config.failures}
        self.due.update((rnd, "fail_notify", edge, fail_round)
                        for (edge, fail_round), rnd in self.notified_in.items()
                        if rnd <= config.horizon)
        self.due.update((ev.round, "recover", ev.edge, ev.round) for ev in config.recoveries)

    def check(self, kind: str, rnd: int, edge: str, fail_round=None):
        """Check a fail, fail_notify or recover event and apply it."""
        if kind == "fail_notify":
            if self.notified_in.get((edge, fail_round)) != rnd:
                raise ParseError(
                    f"fail_notify in round {rnd} of a failure of edge {edge!r} in round "
                    f"{fail_round}, which the scenario does not notify in that round")
            if (rnd, kind, edge, fail_round) not in self.due:
                raise ParseError(f"fail_notify in round {rnd} of the failure of edge {edge!r} "
                                 f"in round {fail_round} is repeated")
            self.due.remove((rnd, kind, edge, fail_round))
            return
        self.due.discard((rnd, kind, edge, rnd))
        if kind == "fail":
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

    def check_complete(self):
        """Refuse the trace if a scheduled fault event was never read."""
        if self.due:
            rnd, kind, edge, fail_round = min(self.due)
            of = f" of its failure in round {fail_round}" if kind == "fail_notify" else ""
            raise ParseError(f"trace has no {kind} of edge {edge!r} in round {rnd}{of}, "
                             "which the scenario schedules")


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
