"""The §3.1 reconfiguration sequence with rollback.

"The configuration process can be detailed as follows:
 - load of the binary file representing the new configuration in an
   on-board memory,
 - switch off the FPGA to be reconfigured (and so also of services
   through this FPGA),
 - load of the new configuration on the FPGA through a specific
   interface (e.g. JTAG),
 - send back telemetry to attest the new configuration (e.g. CRC of
   the new configuration of the FPGA),
 - switch on the FPGA and services.

This scenario authorizes services interruption; a real-time
reconfiguration is not mandatory."

:class:`ReconfigurationManager` executes that sequence against one
equipment, accounts the **service outage window** (from switch-off to
validated switch-on) and rolls back to the previous configuration when
the validation CRC fails ("the system should be able to come back to
the previous configuration in case of failure of the process").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..fpga.bitstream import Bitstream
from ..obs.probes import probe as _obs_probe
from .bitstore import BitstreamLibrary
from .equipment import ReconfigurableEquipment
from .services import (
    ReconfigurationService,
    ServiceError,
    StepLog,
    ValidationService,
)

__all__ = ["ReconfigurationManager", "ReconfigurationReport"]


@dataclass
class ReconfigurationReport:
    """Outcome and time accounting of one reconfiguration."""

    equipment: str
    requested_function: str
    success: bool
    rolled_back: bool
    final_function: Optional[str]
    outage_seconds: float
    total_seconds: float
    crc_telemetry: Optional[int]
    steps: list[StepLog] = field(default_factory=list)

    def summary(self) -> str:
        """One-line operator summary (goes to telemetry)."""
        state = "OK" if self.success else ("ROLLED-BACK" if self.rolled_back else "FAILED")
        return (
            f"{self.equipment}: {self.requested_function} -> {state}, "
            f"outage {self.outage_seconds:.3f}s, total {self.total_seconds:.3f}s"
        )


class ReconfigurationManager:
    """Drives the five-step sequence on one equipment."""

    def __init__(
        self,
        library: BitstreamLibrary,
        reconfig_service: Optional[ReconfigurationService] = None,
        validation_service: Optional[ValidationService] = None,
    ) -> None:
        self.library = library
        self.reconfig = reconfig_service or ReconfigurationService(library)
        self.validation = validation_service or ValidationService()
        self.history: list[ReconfigurationReport] = []
        #: fault-injection hook applied to *every* execute() when the
        #: call-site passes none (a scenario's ``seu.load`` fault models
        #: a persistent SEU environment this way); ``corrupt_hook``
        #: arguments win.
        self.default_corrupt_hook = None
        self._probe = _obs_probe("core.reconfig")

    def execute(
        self,
        equipment: ReconfigurableEquipment,
        function: str,
        version: Optional[int] = None,
        corrupt_hook=None,
    ) -> ReconfigurationReport:
        """Reconfigure ``equipment`` to ``function``; rollback on failure.

        ``corrupt_hook(fpga)`` is a fault-injection point invoked between
        configuration and validation (used by tests/benchmarks to model
        an upset during loading).
        """
        p = self._probe
        if p is not None:
            p.count("attempts")
            p.event(
                "reconfig.start", equipment=equipment.name, function=function
            )
        steps: list[StepLog] = []
        prev_design = equipment.loaded_design
        prev_bitstream: Optional[Bitstream] = None
        if prev_design is not None:
            # the previous image is usually recoverable from the library
            # (possibly corrupted there -- ValueError/IOError) or, failing
            # that, re-rendered from the design registry.  When *both*
            # sources are gone the sequence still proceeds: rollback will
            # degrade to "rollback-none" instead of crashing the OBC.
            try:
                prev_bitstream = self.library.fetch(prev_design)
            except (KeyError, ValueError, IOError):
                try:
                    prev_bitstream = equipment.registry.get(
                        prev_design
                    ).bitstream_for(
                        equipment.fpga.rows,
                        equipment.fpga.cols,
                        equipment.fpga.bits_per_clb,
                    )
                except KeyError:
                    prev_bitstream = None  # unrecoverable previous image

        # step 2: switch off (outage starts)
        equipment.unload()
        steps.append(StepLog("switch-off", 0.01, "services interrupted"))
        outage = 0.01
        crc_telemetry: Optional[int] = None
        success = False
        rolled_back = False

        try:
            bitstream, svc_steps = self.reconfig.execute(equipment, function, version)
            steps.extend(svc_steps)
            outage += sum(s.duration for s in svc_steps)
            hook = corrupt_hook if corrupt_hook is not None else self.default_corrupt_hook
            if hook is not None:
                hook(equipment.fpga)
            passed, val_steps = self.validation.execute(equipment, bitstream)
            steps.extend(val_steps)
            outage += sum(s.duration for s in val_steps)
            crc_telemetry = equipment.fpga.config_crc32()
            success = passed
        except ServiceError as exc:
            steps.append(StepLog("service-error", 0.0, str(exc)))

        if not success:
            rolled_back = self._rollback(equipment, prev_design, prev_bitstream, steps)
            outage += sum(s.duration for s in steps if s.step.startswith("rollback"))

        if p is not None:
            if success:
                p.count("success")
            else:
                p.count("failures")
                if rolled_back:
                    p.count("rollbacks")
            p.observe("outage_seconds", outage)
            p.event(
                "reconfig.done",
                equipment=equipment.name,
                function=function,
                success=success,
                rolled_back=rolled_back,
                outage=outage,
            )

        report = ReconfigurationReport(
            equipment=equipment.name,
            requested_function=function,
            success=success,
            rolled_back=rolled_back,
            final_function=equipment.loaded_design,
            outage_seconds=outage,
            total_seconds=outage,  # upload time is accounted by the NCC side
            crc_telemetry=crc_telemetry,
            steps=steps,
        )
        self.history.append(report)
        return report

    def _rollback(
        self,
        equipment: ReconfigurableEquipment,
        prev_design: Optional[str],
        prev_bitstream: Optional[Bitstream],
        steps: list[StepLog],
    ) -> bool:
        """Restore the previous configuration; returns True on success."""
        if prev_design is None or prev_bitstream is None:
            equipment.unload()
            steps.append(StepLog("rollback-none", 0.0, "no previous configuration"))
            return False
        try:
            load_t = equipment.fpga.config_load_seconds(prev_bitstream)
            equipment.load(prev_design, prev_bitstream)
            steps.append(StepLog("rollback-configure", load_t, prev_design))
            return True
        except Exception as exc:  # rollback is best-effort
            equipment.unload()
            steps.append(StepLog("rollback-failed", 0.0, str(exc)))
            return False
