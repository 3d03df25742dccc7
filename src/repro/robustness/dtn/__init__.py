"""Disruption-tolerant ground segment operations.

The one fault every satellite link is guaranteed to see is the ground
station disappearing -- end of pass, rain blackout, handover.  This
package hardens the §3 operations stack against scheduled and
unscheduled link absence:

- :mod:`~repro.robustness.dtn.contact` -- deterministic contact plans,
  unscheduled outage events, and the :class:`LinkScheduler` that drives
  the simnet link hard-down/up;
- :mod:`~repro.robustness.dtn.recorder` -- the bounded onboard
  :class:`SolidStateRecorder` (store-and-forward with
  lowest-priority-first overflow shedding and ground-driven playback);
- :mod:`~repro.robustness.dtn.transfer` -- CFDP-style checkpointed
  resumable uploads over the existing TFTP/FTP/SCPS clients.

A :class:`repro.scenarios.ContactSchedule` wires all three into a
mission run by the scenario runner; the outage acceptance sweep is
:func:`repro.scenarios.outage_sweep`.
"""

from .contact import ContactPlan, ContactWindow, LinkScheduler, OutageEvent
from .recorder import PRIORITY_CLASSES, SolidStateRecorder
from .transfer import (
    ResumableReceiver,
    ResumableUploader,
    TransferError,
    TransferState,
    restart_from_zero_upload,
    segment_name,
)

__all__ = [
    "ContactPlan",
    "ContactWindow",
    "LinkScheduler",
    "OutageEvent",
    "PRIORITY_CLASSES",
    "ResumableReceiver",
    "ResumableUploader",
    "SolidStateRecorder",
    "TransferError",
    "TransferState",
    "restart_from_zero_upload",
    "segment_name",
]
