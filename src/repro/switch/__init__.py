"""Programmable-switch substrate (the paper's Tofino prototype, modelled).

The DART prototype is ~1K lines of P4_16 plus 150 lines of control-plane
Python (paper section 6).  No ASIC is available here, so this package
models the pieces the prototype is built from, at the level of abstraction
P4 programs see:

- :mod:`repro.switch.externs` -- register arrays, the native RNG and I2E
  mirror sessions.
- :mod:`repro.switch.pipeline` -- the exact-match match-action table with
  SRAM accounting.
- :mod:`repro.switch.dart_switch` -- the DART egress logic: turn a
  telemetry event into fully formed RoCEv2 report frames.
- :mod:`repro.switch.control_plane` -- the control-plane script that
  installs collector lookup entries and initialises PSN registers.
"""

from repro.switch.externs import MirrorSession, RegisterArray, TofinoRng
from repro.switch.pipeline import MatchActionTable, MatchKind, TableEntry
from repro.switch.dart_switch import DartSwitch, SwitchCounters
from repro.switch.control_plane import SwitchControlPlane

__all__ = [
    "DartSwitch",
    "MatchActionTable",
    "MatchKind",
    "MirrorSession",
    "RegisterArray",
    "SwitchControlPlane",
    "SwitchCounters",
    "TableEntry",
    "TofinoRng",
]
