"""Stob: stack-level traffic obfuscation (the paper's §4).

Stob hooks the three transport decisions that shape the wire packet
sequence — per-packet size, TSO segment size, and departure time — and
lets *obfuscation actions* perturb them, under a safety constraint:
the resulting traffic is never more aggressive than what congestion
control decided (packets only shrink, departures only delay).

Components
----------
:mod:`~repro.stob.policy`
    Declarative obfuscation policies (histogram-backed distributions
    of packet sizes and inter-departure gaps).
:mod:`~repro.stob.registry`
    The shared policy table keyed by destination/flow, the paper's
    "shared memory between the application and stack".
:mod:`~repro.stob.actions`
    Packet-sequence actions: the paper's splitting and delaying
    countermeasures (§3), the Figure-3 size/TSO sweep, histogram-driven
    obfuscation, and composition.
:mod:`~repro.stob.controller`
    :class:`~repro.stob.controller.StobController` — the object a
    :class:`~repro.stack.tcp.TcpEndpoint` consults for every segment;
    enforces constraints and congestion-phase gating (§5.1).
:mod:`~repro.stob.constraints`
    The safety clamps and violation accounting.
"""

from repro.stob.policy import GapDistribution, ObfuscationPolicy, SizeDistribution
from repro.stob.registry import PolicyRegistry
from repro.stob.controller import StobController, attach_stob, split_delay_controller
from repro.stob.actions import (
    ComposedAction,
    DelayAction,
    HistogramAction,
    NoOpAction,
    SizeSweepAction,
    SplitAction,
    StobAction,
)
from repro.stob.constraints import ConstraintReport, PhaseGate

__all__ = [
    "ObfuscationPolicy",
    "SizeDistribution",
    "GapDistribution",
    "PolicyRegistry",
    "StobController",
    "attach_stob",
    "split_delay_controller",
    "StobAction",
    "NoOpAction",
    "SplitAction",
    "DelayAction",
    "SizeSweepAction",
    "HistogramAction",
    "ComposedAction",
    "ConstraintReport",
    "PhaseGate",
]
