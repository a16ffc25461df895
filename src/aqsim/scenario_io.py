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

A trace file (version 8) is two lines of JSON: a header record binding
the trace to its scenario (content hash plus the embedded scenario
itself), then a ``{"q_totals": [...]}`` record with the total queued after
each round. The header line is the compact, key-sorted JSON of the header
record, and the hash is the SHA-256 of the scenario's compact, key-sorted
JSON as it stands in that line, so a load hashes the stored bytes and
never encodes the scenario again. The events are not stored: a run is a
deterministic function of its scenario, so ``load_trace`` runs the
header's scenario once and returns that run, and the checkers read
exactly the events the engine acted on (``load_trace(path).events``).

A load refuses, with a ParseError: bytes that are not UTF-8, naming their
line; a header of another format or version (files of versions 1 to 7
are refused as unsupported), laid out otherwise than ``save_trace`` writes
it, whose hash does not match its scenario, or whose scenario does not
parse; a totals record that is missing, mistyped or not one int per round
of the horizon; any line after it; and totals that differ from the
replay's, naming the first round where they differ. A scenario that the
engine cannot run raises what the run raises. The digest of a trace
(``trace_digest``), which ``save_trace`` returns, is not stored.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import repeat

from .buckets import AdversaryType
from .engine import (ExecutionTrace, FailureEvent, Injection, RecoveryEvent, ScenarioConfig,
                     _injection, run)
from .netmodel import Edge, Network
from .policies import POLICY_NAMES, Prioritized, parse_policy

SCENARIO_FORMAT = "aqsim-scenario"
SCENARIO_VERSION = 2
TRACE_FORMAT = "aqsim-trace"
TRACE_VERSION = 8


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
_TOTALS_KEYS = _keys({"q_totals": [int]})


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
# Events encoded per json call: one call per event would cost more in calls
# than in JSON, one for the whole trace more in memory.
_CHUNK_EVENTS = 1024


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
    """Write the trace file, its header and its totals; returns the trace's
    digest (``trace_digest``), which the file does not hold."""
    scenario = _scenario_text(trace.config)
    scenario_sha = hashlib.sha256(scenario.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER_HEAD + scenario + _HEADER_HASH + scenario_sha + _HEADER_TAIL + "\n")
        fh.write('{"q_totals":' + _encode_compact(trace.q_totals) + "}\n")
    return trace_digest(trace)


def load_trace(path) -> ExecutionTrace:
    """The run of the scenario in a trace file's header, once its stored
    totals are found to be the run's.

    The header and the totals record are read and checked first, then the
    scenario runs once (``engine.run``); a scenario the engine cannot run
    raises what the run raises. The totals must then equal the run's, or a
    ParseError names the first round where they differ.
    """
    # Bytes that are not UTF-8 are read as lone surrogates, which UTF-8 text
    # never holds, so the line that holds them is found where it is read.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        config = _read_header(fh.readline())
        stored = _read_totals(fh.readline(), config.horizon)
        if fh.readline():
            raise ParseError("line 3: a line after the q_totals record")
    trace = run(config)
    for rnd, (kept, replayed) in enumerate(zip(stored, trace.q_totals), 1):
        if kept != replayed:
            raise ParseError(f"q_totals disagrees with the replay of its scenario from round "
                             f"{rnd}: {kept} stored, {replayed} replayed")
    return trace


def _read_header(line: str) -> ScenarioConfig:
    """The scenario of a trace header, which must be of this version and hash.

    The line must be laid out as ``save_trace`` writes it, and its hash
    must be the SHA-256 of the scenario's bytes between the fixed head and
    tail; the scenario is then read from the decoded header.
    """
    header = _decode(line, 1)
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


def _read_totals(line: str, horizon: int) -> list[int]:
    """The totals of the record on the line after the header: one int per
    round of the horizon."""
    if not line:
        raise ParseError("trace has no q_totals record")
    totals = _require(_decode(line, 2), "line 2", _TOTALS_KEYS)["q_totals"]
    if len(totals) != horizon:
        raise ParseError(f"q_totals has {len(totals)} rounds, the horizon is {horizon}")
    return totals


def _decode(line: str, lineno: int):
    """The JSON value of a line, or a ParseError naming the line: bytes that
    are not UTF-8 first, then bad JSON."""
    if not line.isascii():
        try:
            line.encode()
        except UnicodeEncodeError:
            raise ParseError(f"line {lineno}: bytes that are not UTF-8") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: {exc.msg}") from None


def write_metrics_csv(trace: ExecutionTrace, path):
    """Per-round rows: round, edge, queue length and the total queued."""
    rows = ["round,edge,queue_len,q_total\n"]
    # The fold updates one dict in place; each round's rows are written
    # before the next round's events are folded.
    for rnd, (sizes, total) in enumerate(zip(trace._fold_queues(), trace.q_totals), 1):
        if not sizes:
            rows.append(f"{rnd},,0,{total}\n")
            continue
        for edge in sorted(sizes):
            rows.append(f"{rnd},{edge},{sizes[edge]},{total}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))
