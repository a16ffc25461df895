"""Scheduling-policy catalog and the priority wrapper.

Each policy is a deterministic choice among the packets waiting at one
queue in one round. All residual ties break on minimum packet id, so a
choice never depends on candidate ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation

FIFO = "FIFO"
NTG = "NTG"  # nearest to go: fewest edges remaining
FTG = "FTG"  # farthest to go: most edges remaining
NFS = "NFS"  # nearest from source: fewest edges traversed
FFS = "FFS"  # farthest from source: most edges traversed
SIS = "SIS"  # shortest in system: most recent injection
LIS = "LIS"  # longest in system: earliest injection (extra control policy)
SPL_NFS = "SPL-NFS"  # slowest previous link, ties by NFS

POLICY_NAMES = (FIFO, NTG, FTG, NFS, FFS, SIS, LIS, SPL_NFS)

# A packet has crossed idx edges of its path and has len(path) - idx left.
_KEYS = {
    FIFO: lambda p: (p.arrival_round, p.id),
    NTG: lambda p: (len(p.path) - p.idx, p.id),
    FTG: lambda p: (p.idx - len(p.path), p.id),
    NFS: lambda p: (p.idx, p.id),
    FFS: lambda p: (-p.idx, p.id),
    SIS: lambda p: (-p.injected_at, p.id),
    LIS: lambda p: (p.injected_at, p.id),
    SPL_NFS: lambda p: (-p.prev_slowness, p.idx, p.id),
}


@dataclass(frozen=True)
class Prioritized:
    """Wrapper: restrict to the highest priority present, then apply base."""

    base: str
    levels: int = 2

    def __post_init__(self):
        if self.base not in _KEYS:
            raise ContractViolation(f"unknown base policy {self.base!r}")
        if self.levels < 2:
            raise ContractViolation("priority count must be >= 2")

    def __str__(self):
        return f"{self.base}+{self.levels}pri"


def parse_policy(name: str, priorities: int | None = None):
    if name not in _KEYS:
        raise ContractViolation(f"unknown policy {name!r}")
    if priorities is None:
        return name
    return Prioritized(name, priorities)


def packet_key(policy):
    """The total order the policy transmits in, as a key on one packet.

    Every field it reads stays fixed while the packet waits in one queue,
    and every key ends in the unique id, so a heap keyed on it serves the
    queue exactly. Prioritized ranks the highest priority first.
    """
    if isinstance(policy, Prioritized):
        base = _KEYS[policy.base]
        return lambda p: (-p.priority, *base(p))
    return _KEYS[policy]


def select_packet(policy, candidates):
    """Pick the packet the policy transmits; candidates share one queue."""
    if not candidates:
        raise ContractViolation("cannot select from an empty queue")
    return min(candidates, key=packet_key(policy))
