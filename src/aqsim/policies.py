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

_KEYS = {
    FIFO: lambda p: (p.arrival_round, p.id),
    NTG: lambda p: (p.remaining, p.id),
    FTG: lambda p: (-p.remaining, p.id),
    NFS: lambda p: (p.traversed, p.id),
    FFS: lambda p: (-p.traversed, p.id),
    SIS: lambda p: (-p.injected_at, p.id),
    LIS: lambda p: (p.injected_at, p.id),
    SPL_NFS: lambda p: (-p.prev_slowness, p.traversed, p.id),
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


def select_packet(policy, candidates):
    """Pick the packet the policy transmits; candidates share one queue."""
    if not candidates:
        raise ContractViolation("cannot select from an empty queue")
    if isinstance(policy, Prioritized):
        top = max(c.priority for c in candidates)
        candidates = [c for c in candidates if c.priority == top]
        key = _KEYS[policy.base]
    else:
        key = _KEYS[policy]
    return min(candidates, key=key)
