"""Simulator and verification workbench for adversarial packet routing
with delayed stall feedback and permanent link failures."""

from .buckets import AdversaryType, BucketSystem
from .engine import (Engine, ExecutionTrace, FailureEvent, Injection,
                     RecoveryEvent, ScenarioConfig, run, validate_recovery)
from .errors import ContractViolation, ModelViolation, ScenarioError
from .netmodel import Edge, Network, Packet, shortest_path_avoiding, validate_path
from .policies import Prioritized, parse_policy

__all__ = [
    "AdversaryType",
    "BucketSystem",
    "ContractViolation",
    "Edge",
    "Engine",
    "ExecutionTrace",
    "FailureEvent",
    "Injection",
    "ModelViolation",
    "Network",
    "Packet",
    "Prioritized",
    "RecoveryEvent",
    "ScenarioConfig",
    "ScenarioError",
    "parse_policy",
    "run",
    "shortest_path_avoiding",
    "validate_path",
    "validate_recovery",
]
