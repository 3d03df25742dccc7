"""The paper's primary contribution: the software-radio satellite payload.

This package assembles the substrates (DSP, coding, FPGA, radiation,
network) into the system of the paper:

- :mod:`repro.core.registry` -- the catalogue of loadable digital
  functions ("personalities"): CDMA/TDMA modems, the three UMTS decoder
  options, each with a gate budget and a synthesized bitstream.
- :mod:`repro.core.equipment` -- a reconfigurable payload equipment: an
  FPGA hosting one function, with the behavioural model attached.
- :mod:`repro.core.payload` -- the Fig. 2 regenerative payload (Rx
  chain ADC -> half-band -> DBFN+DEMUX -> demod -> decod, baseband
  packet switch, Tx chain) and the Fig. 1 platform/payload split.
- :mod:`repro.core.bitstore` -- on-board bitstream library management.
- :mod:`repro.core.obc` -- the on-board processor controller
  (TC/TM dispatch, equipment addressing).
- :mod:`repro.core.services` -- the §3.2 reconfiguration and validation
  services.
- :mod:`repro.core.reconfig` -- the §3.1 five-step reconfiguration
  sequence with outage accounting and rollback.
"""

from .registry import FunctionDesign, FunctionRegistry, default_registry
from .equipment import ReconfigurableEquipment
from .bitstore import BitstreamLibrary
from .obc import OnBoardController, Telecommand, Telemetry
from .services import ReconfigurationService, ValidationService, ServiceError
from .reconfig import ReconfigurationManager, ReconfigurationReport
from .payload import RegenerativePayload, PayloadConfig, Platform
from .housekeeping import (
    HousekeepingLog,
    RadiationExposure,
    ScrubProcess,
    ValidationProcess,
)
from .linkbudget import LinkComparison, compare_payloads
from .redundancy import RedundantEquipment
from .sumts import check_mode_compatibility

__all__ = [
    "BitstreamLibrary",
    "HousekeepingLog",
    "LinkComparison",
    "RedundantEquipment",
    "check_mode_compatibility",
    "compare_payloads",
    "RadiationExposure",
    "ScrubProcess",
    "ValidationProcess",
    "FunctionDesign",
    "FunctionRegistry",
    "OnBoardController",
    "PayloadConfig",
    "Platform",
    "ReconfigurableEquipment",
    "ReconfigurationManager",
    "ReconfigurationReport",
    "ReconfigurationService",
    "RegenerativePayload",
    "ServiceError",
    "Telecommand",
    "Telemetry",
    "ValidationService",
    "default_registry",
]
