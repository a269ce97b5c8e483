"""RL007: demand-derived state must not reach release-timing math.

Camouflage's security argument (docs/security.md, paper section III)
is one invariant: the externally visible request/response *timing* is
a function of the precomputed shaping distribution alone — bin
credits, epoch schedule, the seeded jitter stream — never of demand
traffic.  A release-time computation that reads the real queue's
occupancy or contents, request addresses, or per-tenant demand
counters reopens exactly the channel the shapers exist to close
(Gong & Kiyavash's scheduler coupling; Braun et al.'s "timing must
not depend on secrets" discipline).

The checker runs the interprocedural taint engine over the whole
project:

* **sources** — demand-derived attribute reads: real-queue buffers
  (``*._buffer``, ``*._queue``), occupancy probes, request addresses
  and creation cycles, per-epoch demand counters;
* **sinks** — the shaper layer's timing surface: every
  ``repro.core.*`` ``next_event_cycle``/``earliest_*``/
  ``can_release_*`` return, the columnar horizon reductions, and
  writes to the timing registers (``_next_slot``,
  ``_jitter_hold_until``, ``_next_replenish``, ``_last_release``);
* **sanitizers** — the sanctioned credit/bin/epoch interfaces
  (``BinShaper.release_*``/``replenish_if_due``, the
  ``EpochRateController.maybe_advance_*`` boundary methods), declared
  here and via ``# repro-lint: sanitizer=RL007`` pragmas at the defs.

Only *explicit* data flows are reported.  Control dependence —
``return cycle if self._buffer else None``, or selecting one of the
fixed rate-set intervals by comparing against observed demand — is
deliberately out of scope: choosing *among sanctioned constants* is
the accounted ``E × log2(R)``-style channel (Fletcher'14), whereas
computing a timing value *from* demand data is the defect this
checker exists to catch.  See docs/static-analysis.md for the full
threat-model discussion.

Sinks are scoped to the shaper layer on purpose: DRAM bank timing,
NoC arbitration, and the engines' own next-event scheduling
legitimately depend on demand — that internal timing is what the
shapers hide.  The trust boundary RL007 polices is the shaper
interface, not the memory system behind it.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.findings import Finding
from repro.lint.registry import FlowChecker, register

_SOURCE_ATTRS = [
    "*._buffer",
    "*._queue",
    "*.occupancy",
    "*.address",
    "*.created_cycle",
    "*._demand_this_epoch",
]

_SINK_RETURNS = [
    "repro.core.*.next_event_cycle",
    "repro.core.*.earliest_real_release",
    "repro.core.*.earliest_fake_release",
    "repro.core.*._earliest_eligible",
    "repro.core.*.can_release_*",
    "repro.sim.columnar.ColumnarEngine.next_target",
]

#: Class-qualified on purpose: ``FixedServiceScheduler`` keeps its own
#: ``_next_slot`` register, but that is memory-controller-internal
#: timing the shapers hide, not shaper surface.
_SINK_ATTR_WRITES = [
    "EpochRateShaper._next_slot",
    "BinShaper._jitter_hold_until",
    "BinShaper._next_replenish",
    "BinShaper._last_release",
]

#: The simulator clock is shared infrastructure: every component reads
#: it and the engines advance it from their (legitimately
#: demand-dependent) internal next-event targets.  Field-based attr
#: tracking would otherwise make it a taint hub that marks every
#: ``cycle`` parameter in the project.  Shaper outputs are checked
#: where they are *computed* (the sink returns/registers above), so
#: dropping clock taint loses no true flows.
_CLEAN_ATTRS = [
    "*.current_cycle",
]

#: The sanctioned interfaces demand is *allowed* to cross: the credit
#: machinery consumes demand only to debit precomputed registers, and
#: the epoch controller's demand→rate coupling is the explicitly
#: accounted Fletcher'14 channel (``EpochRateShaper.leakage_bound_bits``).
#: The epoch methods also carry ``# repro-lint: sanitizer=RL007``
#: pragmas at their defs — config and pragma vocabularies are unioned.
_SANITIZERS = [
    "repro.core.shaper.BinShaper.release_real",
    "repro.core.shaper.BinShaper.release_fake",
    "repro.core.shaper.BinShaper.replenish_if_due",
    "repro.core.epoch_shaper.EpochRateController.maybe_advance_epoch",
    "repro.core.epoch_shaper.EpochRateController.maybe_advance_with_feedback",
]

_KIND_TEXT = {
    "return": "is returned from release-timing function",
    "attr-write": "is written to timing register",
    "call-arg": "is passed to timing interface",
}

_HINT = (
    "release timing must be a function of the precomputed shaping "
    "distribution only; route demand through the credit/bin/epoch "
    "interfaces (declare one with '# repro-lint: sanitizer=RL007' "
    "and justify it in docs/static-analysis.md)"
)


@register
class SecretIndependenceChecker(FlowChecker):
    id = "RL007"
    name = "secret-independence"
    description = (
        "demand-derived state must not flow into shaper release-timing "
        "computations except through sanctioned interfaces"
    )

    def check_project(self, project) -> Iterable[Finding]:
        from repro.lint.flow.taint import TaintSpec, run_taint

        opts = project.options_for(self.id)
        flow_opts = project.options_for("flow")
        spec = TaintSpec(
            checker_id=self.id,
            source_attrs=opts.get("source-attrs", _SOURCE_ATTRS),
            source_calls=opts.get("source-calls", []),
            sink_returns=opts.get("sink-returns", _SINK_RETURNS),
            sink_attr_writes=opts.get("sink-attr-writes", _SINK_ATTR_WRITES),
            sink_call_args=opts.get("sink-call-args", []),
            clean_attrs=opts.get("clean-attrs", _CLEAN_ATTRS),
            sanitizers=(
                list(opts.get("sanitizers", _SANITIZERS))
                + list(flow_opts.get("sanitizers", []))
            ),
        )
        findings: List[Finding] = []
        for hit in run_taint(project, spec):
            source = hit.source_note or "demand-derived state"
            findings.append(
                project.finding(
                    self.id,
                    hit.func.path,
                    hit.node,
                    f"{source} {_KIND_TEXT.get(hit.kind, 'reaches')} "
                    f"'{hit.detail}'",
                    hint=_HINT,
                    key=f"{hit.func.qualname}.{hit.kind}.{hit.detail}",
                    flow=hit.flow,
                    default_severity=self.default_severity,
                )
            )
        return findings
