"""Mission-scenario conformance engine.

A :class:`~repro.scenarios.spec.ScenarioSpec` declares a whole mission
-- duration, per-carrier traffic mix, fade/SEU/fault schedule,
reconfiguration plan and link budget -- and the runner compiles it onto
the :mod:`repro.sim` kernel, driving the full stack (ground segment,
TC/TM, payload, DSP, coding, FDIR) under one deterministic obs trace.

Three verification layers ride on top:

- the **golden-trace corpus** (:mod:`repro.scenarios.corpus`): frozen
  trace hashes + summary metrics for the canonical missions, with
  readable drift diffs and a ``--regen`` CLI;
- **differential oracles** (:mod:`repro.scenarios.oracles`): batched vs
  scalar decode, modem personality A/B, AD vs BD virtual channels;
- the **seeded soak sweep** (``tests/scenarios/test_soak.py``):
  randomized scenario grids over multiple seeds, checked against the
  cross-cutting invariants in
  :func:`~repro.scenarios.runner.result_violations`;
- the **acceptance sweeps**, mission x seed through the same runner
  and checker: :func:`~repro.scenarios.catalog.fdir_sweep` (the
  traffic-plane fault missions, each with the recovery actions it must
  and must never take), :func:`~repro.scenarios.catalog.tctm_sweep`
  (campaign faults on the TC/TM reconfiguration path),
  :func:`~repro.scenarios.catalog.overload_sweep`
  (demand surges, judged against their
  :func:`~repro.scenarios.catalog.nominal_twin`) and
  :func:`~repro.scenarios.catalog.outage_sweep` (lost contacts, resumed
  uploads, store-and-forward telemetry).

Every mission runs on the traffic-plane world of
:mod:`repro.scenarios.world`.
"""

from .catalog import (
    canonical_scenarios,
    catalog_by_name,
    fdir_sweep,
    nominal_twin,
    outage_sweep,
    overload_sweep,
    soak_grid,
    tctm_sweep,
)
from .corpus import (
    GoldenRecord,
    default_golden_dir,
    diff_records,
    load_corpus,
    record_of,
    regen_corpus,
)
from .oracles import (
    BatchScalarDecodeOracle,
    CdmaBatchScalarOracle,
    ModemABOracle,
    OracleReport,
    TdmaBatchScalarOracle,
    VcModeOracle,
    run_default_oracles,
)
from .runner import ScenarioResult, ScenarioRunner, result_violations, run_scenario
from .spec import (
    ContactSchedule,
    FadeSegment,
    FaultEvent,
    GroundLink,
    LinkBudget,
    ReconfigAction,
    ScenarioError,
    ScenarioSpec,
    SurgeProfile,
    TrafficMix,
)
from .world import TrafficWorld, build_traffic_world

__all__ = [
    "BatchScalarDecodeOracle",
    "CdmaBatchScalarOracle",
    "ContactSchedule",
    "FadeSegment",
    "FaultEvent",
    "GoldenRecord",
    "GroundLink",
    "LinkBudget",
    "ModemABOracle",
    "OracleReport",
    "ReconfigAction",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SurgeProfile",
    "TdmaBatchScalarOracle",
    "TrafficMix",
    "TrafficWorld",
    "VcModeOracle",
    "build_traffic_world",
    "canonical_scenarios",
    "catalog_by_name",
    "default_golden_dir",
    "diff_records",
    "fdir_sweep",
    "load_corpus",
    "nominal_twin",
    "outage_sweep",
    "overload_sweep",
    "record_of",
    "regen_corpus",
    "result_violations",
    "run_default_oracles",
    "run_scenario",
    "soak_grid",
    "tctm_sweep",
]
