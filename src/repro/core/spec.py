"""Speculative machine family: branch + value prediction limit study.

The paper stops at real-dependency resolution ("we have not incorporated
any type of guessing or branch prediction"), yet branch resolution is a
first-order limit in every table.  This module follows *On the
Performance Potential of Speculative Execution based on Branch and Value
Prediction* and extends the RUU discipline (Section 5.3) with
speculation:

* **branch prediction** -- any predictor from :mod:`repro.predict`, plus
  the two oracle bounds (``perfect`` / ``wrong``).  A correctly
  predicted conditional branch (and, under any predictor, an
  unconditional branch -- its target is known at decode) redirects fetch
  in one cycle; a misprediction stalls correct-path issue until
  resolution (A0 available + branch time) plus a configurable *recovery
  penalty*, and emits a ``FLUSH`` event whose ``cycles`` field carries
  the whole wrong-path fetch window.
* **value prediction** -- the long-latency floating-point producers
  (``FP_MULTIPLY``, ``FP_RECIPROCAL``: the reciprocal/multiply divide
  chains) may have their results predicted at issue.  The model is a
  deterministic warm-up idealisation of a last-value / stride predictor:
  the first (``vp=last``) or first two (``vp=stride``) dynamic instances
  of each static producer mispredict, every later instance hits.  A hit
  publishes the destination tag one cycle after issue (consumers read
  the predicted value; verification at completion succeeds, and in-order
  commit already orders the producer before its consumers).  A miss is
  verified wrong when the real result returns: consumers are squashed
  and re-execute, modelled as the destination value becoming available
  ``value_penalty`` cycles late, with a ``FLUSH``
  (``reason="VALUE_MISPREDICT"``) anchored at the producer's commit.

**Limit-study timing.**  Like the speculation paper (and unlike the
paper's RUU, which contends for FU acceptance and the FU->RUU return
bus), the speculative family is contention-free past the issue stage: an
instruction begins execution the cycle after its operands are available
and its result returns exactly ``latency`` cycles later.  What remains
are the paper's first-order limits -- issue width, window size, in-order
commit bandwidth (the N-Bus / 1-Bus choice), operand dependences, and
branch resolution.  This is a deliberate modelling choice with a big
payoff: every timing dependence in the machine is *isotone* (max/+ over
earlier issue, availability and commit times), so relaxing any branch's
issue-resume window can never slow the machine down.  The oracle's
per-seed partial order

    perfect  <=  real predictor  <=  always-wrong  <=  no speculation

therefore holds by construction (each step is a pointwise relaxation of
per-branch resume constraints), not just empirically -- greedy contended
schedulers admit Graham anomalies that would make per-seed assertions
flaky.

Wrong-path instructions never enter the window (the trace is the correct
path), so no architectural state is ever polluted -- the cost of
speculation is carried entirely by the issue-resume window and the
``FLUSH`` accounting, which :mod:`repro.verify.invariants` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import A0, FunctionalUnit, Register
from ..obs.events import EventKind, SimEvent, hook_installed
from ..predict import (
    AlwaysTakenPredictor,
    BackwardTakenPredictor,
    OneBitPredictor,
    OraclePredictor,
    TwoBitPredictor,
)
from ..trace import Trace
from . import fastpath
from .base import Simulator, require_scalar_trace
from .buses import BusKind
from .config import MachineConfig
from .result import SimulationResult

_UNKNOWN = -1

#: Guard against livelock bugs during development.
_MAX_CYCLES = 10_000_000

Tag = Tuple[Register, int]


def _perfect_predictor() -> OraclePredictor:
    return OraclePredictor(True)


def _wrong_predictor() -> OraclePredictor:
    return OraclePredictor(False)


#: Predictor vocabulary for the ``spec`` registry grammar.  ``None``
#: disables speculation entirely (non-speculative branch handling,
#: exactly the RUU's: even unconditional branches pay the full branch
#: latency, so the machine is the family's no-speculation baseline).
PREDICTOR_FACTORIES = {
    "none": None,
    "always": AlwaysTakenPredictor,
    "btfn": BackwardTakenPredictor,
    "1bit": OneBitPredictor,
    "2bit": TwoBitPredictor,
    "perfect": _perfect_predictor,
    "wrong": _wrong_predictor,
}

#: Value predictor vocabulary: warm-up instances before hits begin.
VALUE_PREDICTORS = ("off", "last", "stride")
_VP_WARMUP = {"last": 1, "stride": 2}

#: Long-latency producers eligible for value prediction (the divide
#: chain).  Unit-based, so the hit/miss pattern is identical across the
#: M11/M5 x BR5/BR2 configurations and across every spec machine.
VP_UNITS = (FunctionalUnit.FP_MULTIPLY, FunctionalUnit.FP_RECIPROCAL)

_SPEC_OPTION_KEYS = ("units", "bus", "rp", "vp", "vpp")


@dataclass(frozen=True)
class SpecParams:
    """Parsed ``spec[:window][:predictor][:key=value...]`` parameters."""

    window: int = 50
    predictor: str = "2bit"
    units: int = 4
    bus: str = "nbus"
    recovery_penalty: int = 0
    value_predictor: str = "off"
    value_penalty: int = 3


def parse_spec_params(params: Sequence[str]) -> SpecParams:
    """Parse the parameter tokens of a ``spec`` registry spec.

    Grammar: up to one bare integer (the window size), up to one bare
    predictor name, then ``key=value`` options: ``units=<n>``,
    ``bus=nbus|1bus``, ``rp=<recovery penalty>``,
    ``vp=off|last|stride``, ``vpp=<value misprediction penalty>``.
    Raises :class:`ValueError` with a human-readable reason.
    """
    window: Optional[int] = None
    predictor: Optional[str] = None
    options: Dict[str, str] = {}
    for token in params:
        if "=" in token:
            key, _, value = token.partition("=")
            if key not in _SPEC_OPTION_KEYS:
                raise ValueError(
                    f"unknown spec option {key!r} (options: "
                    f"{', '.join(_SPEC_OPTION_KEYS)})"
                )
            if key in options:
                raise ValueError(f"duplicate spec option {key!r}")
            options[key] = value
            continue
        if token.isdigit() and window is None and predictor is None:
            window = int(token)
            continue
        if token in PREDICTOR_FACTORIES and predictor is None:
            predictor = token
            continue
        raise ValueError(
            f"bad spec parameter {token!r} (expected a window size, a "
            f"predictor from {sorted(PREDICTOR_FACTORIES)}, or key=value)"
        )

    def _int_option(key: str, default: int, minimum: int) -> int:
        raw = options.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"spec option {key}= needs an integer") from None
        if value < minimum:
            raise ValueError(f"spec option {key}= must be >= {minimum}")
        return value

    bus = options.get("bus", "nbus")
    if bus not in ("nbus", "1bus"):
        raise ValueError("spec option bus= must be nbus or 1bus")
    value_predictor = options.get("vp", "off")
    if value_predictor not in VALUE_PREDICTORS:
        raise ValueError(
            f"spec option vp= must be one of {VALUE_PREDICTORS}"
        )
    resolved = SpecParams(
        window=50 if window is None else window,
        predictor="2bit" if predictor is None else predictor,
        units=_int_option("units", 4, 1),
        bus=bus,
        recovery_penalty=_int_option("rp", 0, 0),
        value_predictor=value_predictor,
        value_penalty=_int_option("vpp", 3, 0),
    )
    if resolved.window < 1:
        raise ValueError("spec window must be >= 1")
    return resolved


@dataclass
class _Entry:
    """One window entry."""

    seq: int
    unit: FunctionalUnit
    latency: int
    dest_tag: Optional[Tag]
    pending: int  # sources whose availability is not yet known
    operands_ready: int  # max(issue cycle + 1, known source avails)
    result_cycle: int = _UNKNOWN
    vp_hit: bool = False
    vp_miss: bool = False


class SpecMachine(Simulator):
    """The speculative window machine: N issue units, a window of R
    entries, branch prediction and optional value prediction.

    Args:
        issue_units: issue width N.
        window: window size R (entries issued but not yet committed).
        bus_kind: ``N_BUS`` (commit bandwidth N) or ``ONE_BUS``
            (commit bandwidth 1).
        predictor: branch predictor name (:data:`PREDICTOR_FACTORIES`);
            ``"none"`` disables speculation (the family baseline).
        recovery_penalty: extra wrong-path recovery cycles beyond the
            normal branch resolution on a mispredict.
        value_predictor: ``"off"``, ``"last"`` or ``"stride"``
            (see the module docstring for the warm-up model).
        value_penalty: squash/re-execute cycles a value misprediction
            adds to the producer's result availability.
    """

    def __init__(
        self,
        issue_units: int = 4,
        window: int = 50,
        bus_kind: BusKind = BusKind.N_BUS,
        *,
        predictor: str = "2bit",
        recovery_penalty: int = 0,
        value_predictor: str = "off",
        value_penalty: int = 3,
    ) -> None:
        if issue_units < 1:
            raise ValueError("need at least one issue unit")
        if window < 1:
            raise ValueError("the window needs at least one entry")
        if bus_kind is BusKind.X_BAR:
            raise ValueError(
                "the spec machine models N-Bus and 1-Bus organisations"
            )
        if predictor not in PREDICTOR_FACTORIES:
            raise ValueError(
                f"unknown predictor {predictor!r} "
                f"(known: {sorted(PREDICTOR_FACTORIES)})"
            )
        if recovery_penalty < 0:
            raise ValueError("recovery penalty cannot be negative")
        if value_predictor not in VALUE_PREDICTORS:
            raise ValueError(
                f"unknown value predictor {value_predictor!r} "
                f"(known: {VALUE_PREDICTORS})"
            )
        if value_penalty < 0:
            raise ValueError("value misprediction penalty cannot be negative")
        self.issue_units = issue_units
        self.window = window
        self.bus_kind = bus_kind
        self.predictor_name = predictor
        self.predictor_factory = PREDICTOR_FACTORIES[predictor]
        self.recovery_penalty = recovery_penalty
        self.value_predictor = value_predictor
        self.value_penalty = value_penalty

    @classmethod
    def from_params(
        cls, params: SpecParams, bus_kind: BusKind
    ) -> "SpecMachine":
        return cls(
            params.units,
            params.window,
            bus_kind,
            predictor=params.predictor,
            recovery_penalty=params.recovery_penalty,
            value_predictor=params.value_predictor,
            value_penalty=params.value_penalty,
        )

    @property
    def path_width(self) -> int:
        """Commit bandwidth (window -> register file path)."""
        return 1 if self.bus_kind is BusKind.ONE_BUS else self.issue_units

    @property
    def vp_warmup(self) -> Optional[int]:
        """Cold instances per static producer before value hits begin
        (``None`` when value prediction is off)."""
        return _VP_WARMUP.get(self.value_predictor)

    @property
    def name(self) -> str:
        extras = [f"predict:{self.predictor_name}"]
        if self.recovery_penalty:
            extras.append(f"rp={self.recovery_penalty}")
        if self.value_predictor != "off":
            extras.append(f"vp:{self.value_predictor}+{self.value_penalty}")
        return (
            f"Spec x{self.issue_units} W={self.window} "
            f"({self.bus_kind}, {', '.join(extras)})"
        )

    # ------------------------------------------------------------------
    def simulate(self, trace: Trace, config: MachineConfig) -> SimulationResult:
        # The spec fast loop models the predictors (they are
        # deterministic), so a predictor never forces the reference
        # loop -- only an installed event hook does.  hook_installed is
        # re-read per call so a hook attached after construction always
        # gets the event-emitting loop.
        if fastpath.enabled() and not hook_installed(self):
            return fastpath.python_backend.simulate_spec_fast(self, trace, config)
        return self._simulate(trace, config, self.on_event)

    def reference_simulate(
        self, trace: Trace, config: MachineConfig
    ) -> SimulationResult:
        """The event-capable speculative loop, hook plumbing disabled.

        The differential tests and the cross-machine oracle use this as
        the baseline the compiled fast loop must match bit-for-bit.
        """
        return self._simulate(trace, config, None)

    # ------------------------------------------------------------------
    def _speculate(
        self, t_entry, cycle, branch_latency, predictor, predicted_correct,
        operand_tag, tag_ready,
    ):
        """Handle one branch under speculation at the issue stage.

        Returns ``(handled, issue_resume)``.  ``handled`` is False when a
        mispredicted branch is still waiting for its A0 instance -- the
        issue stage stalls (wrong-path work is being fetched, which the
        trace cannot represent, so correct-path issue halts exactly as in
        the non-speculative machine).  Predictions route through
        ``predict_outcome`` so the oracle bounds (perfect / always-wrong)
        work without special casing.
        """
        instr = t_entry.instruction
        seq = t_entry.seq

        if not instr.is_conditional_branch:
            # Unconditional: the target is known at decode; one-cycle
            # fetch redirect.
            return True, cycle + 1

        if seq not in predicted_correct:
            backward = bool(t_entry.backward)
            taken = bool(t_entry.taken)
            prediction = predictor.predict_outcome(
                t_entry.static_index, backward, taken
            )
            correct = predictor.record(prediction, taken)
            predictor.update(t_entry.static_index, taken)
            predicted_correct[seq] = correct

        if predicted_correct[seq]:
            # Fetch already went the right way; continue next cycle.
            return True, cycle + 1

        # Misprediction: correct-path issue resumes only at resolution
        # (A0 available + branch time) plus the recovery penalty.
        a0_ready = tag_ready(operand_tag(A0))
        if a0_ready == _UNKNOWN or a0_ready > cycle:
            return False, 0
        return True, cycle + branch_latency + self.recovery_penalty

    def _simulate(
        self, trace: Trace, config: MachineConfig, emit
    ) -> SimulationResult:
        require_scalar_trace(trace, self.name)
        latencies = config.latencies
        branch_latency = config.branch_latency
        width = self.path_width
        #: Wrong-path fetch window a misprediction costs: the branch
        #: resolution plus the configured recovery penalty.  Carried on
        #: the FLUSH event so flush accounting is checkable.
        recovery_window = branch_latency + self.recovery_penalty
        vp_warmup = self.vp_warmup
        value_penalty = self.value_penalty

        latest_instance: Dict[Register, int] = {}
        tag_avail: Dict[Tag, int] = {}
        waiting_on: Dict[Tag, List[_Entry]] = {}

        # The window: program-ordered ring of live entries.
        ring: List[_Entry] = []
        head = 0
        live = 0

        predictor = (
            self.predictor_factory() if self.predictor_factory else None
        )
        predicted_correct: Dict[int, bool] = {}

        #: static index -> dynamic instances of this value producer seen.
        vp_seen: Dict[int, int] = {}
        vp_hits = 0
        vp_misses = 0

        occupancy_sum = 0
        full_stall_cycles = 0
        branch_stall_cycles = 0

        entries = trace.entries
        n_entries = len(entries)
        pos = 0
        issue_resume = 0
        cycle = 0
        last_commit = 0

        def operand_tag(reg: Register) -> Tag:
            return (reg, latest_instance.get(reg, 0))

        def tag_ready(tag: Tag) -> int:
            if tag[1] == 0 and tag not in tag_avail:
                return 0  # initial register contents
            return tag_avail.get(tag, _UNKNOWN)

        def settle(entry: _Entry) -> None:
            """All operands known: fix the entry's execution timing and
            propagate availability through waiting dependents.

            Contention-free limit timing: execution begins the cycle
            after the operands are available (``operands_ready`` already
            folds in "the cycle after issue") and the result returns
            ``latency`` cycles later.
            """
            stack = [entry]
            while stack:
                settled = stack.pop()
                result = settled.operands_ready + settled.latency
                settled.result_cycle = result
                if settled.dest_tag is None or settled.vp_hit:
                    # No register result, or the (correct) predicted
                    # value was already published at issue.
                    continue
                avail = result
                if settled.vp_miss:
                    # Verify-at-complete fails: consumers of the
                    # predicted value squash and re-execute.
                    avail += value_penalty
                tag_avail[settled.dest_tag] = avail
                for dependent in waiting_on.pop(settled.dest_tag, ()):
                    dependent.pending -= 1
                    if avail > dependent.operands_ready:
                        dependent.operands_ready = avail
                    if dependent.pending == 0:
                        stack.append(dependent)

        while pos < n_entries or live > 0:
            if cycle > _MAX_CYCLES:  # pragma: no cover - bug trap
                raise RuntimeError("spec simulation failed to make progress")

            # ---- commit: retire in order from the head -------------------
            commits = 0
            while live > 0 and commits < width:
                entry = ring[head]
                if entry.result_cycle == _UNKNOWN or entry.result_cycle > cycle:
                    break
                head += 1
                live -= 1
                commits += 1
                if cycle > last_commit:
                    last_commit = cycle
                if emit is not None:
                    emit(SimEvent(EventKind.COMPLETE, entry.seq, cycle))
                    if entry.vp_miss:
                        emit(SimEvent(
                            EventKind.FLUSH, entry.seq, cycle,
                            reason="VALUE_MISPREDICT",
                            cycles=value_penalty,
                        ))
            if head > 4096 and head * 2 > len(ring):
                del ring[:head]
                head = 0

            # ---- issue: up to N instructions, in program order ----------
            issued = 0
            while (
                pos < n_entries
                and issued < self.issue_units
                and cycle >= issue_resume
                and live < self.window
            ):
                t_entry = entries[pos]
                instr = t_entry.instruction

                if instr.is_branch:
                    if predictor is not None:
                        handled, resume = self._speculate(
                            t_entry, cycle, branch_latency, predictor,
                            predicted_correct, operand_tag, tag_ready,
                        )
                        if not handled:
                            break  # mispredicted branch awaiting A0
                        issue_resume = resume
                        if issue_resume > last_commit:
                            last_commit = issue_resume
                        if emit is not None:
                            emit(SimEvent(EventKind.ISSUE, t_entry.seq, cycle))
                            if not predicted_correct.get(t_entry.seq, True):
                                emit(SimEvent(
                                    EventKind.FLUSH, t_entry.seq, cycle,
                                    reason="MISPREDICT",
                                    cycles=recovery_window,
                                ))
                        pos += 1
                        issued += 1
                        break
                    a0_tag = operand_tag(A0)
                    a0_ready = tag_ready(a0_tag) if instr.is_conditional_branch else 0
                    if a0_ready == _UNKNOWN or a0_ready > cycle:
                        break  # branch waits at the issue stage
                    issue_resume = cycle + branch_latency
                    if issue_resume > last_commit:
                        # Branches never commit; their resolution still
                        # bounds the machine's finish time.
                        last_commit = issue_resume
                    if emit is not None:
                        emit(SimEvent(EventKind.ISSUE, t_entry.seq, cycle))
                    pos += 1
                    issued += 1
                    break  # nothing issues behind an unresolved branch

                latency = instr.latency(latencies)
                src_tags = [operand_tag(r) for r in instr.source_registers]
                dest_tag: Optional[Tag] = None
                if instr.dest is not None:
                    instance = latest_instance.get(instr.dest, 0) + 1
                    latest_instance[instr.dest] = instance
                    dest_tag = (instr.dest, instance)

                entry = _Entry(
                    seq=pos,
                    unit=instr.unit,
                    latency=latency,
                    dest_tag=dest_tag,
                    pending=0,
                    operands_ready=cycle + 1,
                )
                if (
                    vp_warmup is not None
                    and dest_tag is not None
                    and instr.unit in VP_UNITS
                ):
                    seen = vp_seen.get(t_entry.static_index, 0)
                    vp_seen[t_entry.static_index] = seen + 1
                    if seen >= vp_warmup:
                        vp_hits += 1
                        entry.vp_hit = True
                        # Predicted broadcast: consumers may read the
                        # (correct) predicted value next cycle.
                        tag_avail[dest_tag] = cycle + 1
                    else:
                        vp_misses += 1
                        entry.vp_miss = True
                for tag in src_tags:
                    ready = tag_ready(tag)
                    if ready == _UNKNOWN:
                        entry.pending += 1
                        waiting_on.setdefault(tag, []).append(entry)
                    elif ready > entry.operands_ready:
                        entry.operands_ready = ready
                ring.append(entry)
                live += 1
                if emit is not None:
                    emit(SimEvent(EventKind.ISSUE, entry.seq, cycle))
                pos += 1
                issued += 1
                if entry.pending == 0:
                    settle(entry)

            occupancy_sum += live
            if pos < n_entries and issued == 0:
                if cycle < issue_resume:
                    branch_stall_cycles += 1
                    if emit is not None:
                        emit(SimEvent(
                            EventKind.STALL, pos, cycle,
                            reason="BRANCH", cycles=1,
                        ))
                elif live >= self.window:
                    full_stall_cycles += 1
                    if emit is not None:
                        emit(SimEvent(
                            EventKind.STALL, pos, cycle,
                            reason="RUU_FULL", cycles=1,
                        ))
            cycle += 1

        cycles = max(last_commit, 1)
        detail = {
            "window_occupancy_mean": occupancy_sum / max(cycle, 1),
            "window_full_stall_cycles": float(full_stall_cycles),
            "branch_stall_cycles": float(branch_stall_cycles),
        }
        if predictor is not None:
            detail["prediction_accuracy"] = predictor.stats.accuracy
        if vp_warmup is not None:
            total = vp_hits + vp_misses
            detail["vp_accuracy"] = vp_hits / total if total else 0.0
        return SimulationResult(
            trace_name=trace.name,
            simulator=self.name,
            config=config,
            instructions=n_entries,
            cycles=cycles,
            detail=detail,
        )
