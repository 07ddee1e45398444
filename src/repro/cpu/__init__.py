"""Processor models: out-of-order (21264-like) and in-order (21164-like)."""

from repro.cpu.config import FunctionalUnits, MachineConfig
from repro.cpu.dynops import DynInst
from repro.cpu.functional import FunctionalProfiler, FunctionalRun
from repro.cpu.inorder.core import InOrderCore
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.smt import SmtCore, smt_speedup
from repro.cpu.probes import (SLOT_EMPTY, SLOT_INST, SLOT_OFFPATH, FetchGroup,
                              FetchSlot, Probe)

__all__ = [
    "DynInst",
    "FetchGroup",
    "FetchSlot",
    "FunctionalProfiler",
    "FunctionalRun",
    "FunctionalUnits",
    "InOrderCore",
    "MachineConfig",
    "OutOfOrderCore",
    "Probe",
    "SLOT_EMPTY",
    "SLOT_INST",
    "SLOT_OFFPATH",
    "SmtCore",
    "smt_speedup",
]
