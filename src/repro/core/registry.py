"""A name-based registry of the paper's machine organisations.

Convenient for examples and CLI-style exploration: build any simulator the
paper studies from a short specification string, e.g. ``"simple"``,
``"cray"``, ``"inorder:4:1bus"``, ``"ooo:8"``, ``"ruu:2:50:nbus"``.
The modelling switches the extension studies flip are spellings too:
``"ooo:4:war=off"`` (WAR hazards ignored), ``"ruu:4:50:bypass=off"``,
``"ruu:4:50:mem=ordered"`` (loads and stores kept in program order) and
``"cray-unchained"`` (no vector chaining).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .base import Simulator
from .buses import BusKind
from .cdc6600 import CDC6600Machine
from .inorder_multi import InOrderMultiIssueMachine
from .ooo_multi import OutOfOrderMultiIssueMachine
from .ruu import RUUMachine
from .scoreboard import (
    ScoreboardMachine,
    cray_like_machine,
    non_segmented_machine,
    serial_memory_machine,
)
from .simple import SimpleMachine
from .tomasulo import TomasuloMachine

_BUS_NAMES = {
    "nbus": BusKind.N_BUS,
    "1bus": BusKind.ONE_BUS,
    "xbar": BusKind.X_BAR,
}


class UnknownSpecError(ValueError):
    """An unrecognised or malformed simulator specification string.

    Carries the offending spec, the reason (for a known head with bad
    parameters) and the accepted grammar, so callers (CLI, ``repro.api``)
    can print an actionable message instead of a bare
    ``KeyError``/``ValueError``.  :func:`build_simulator` raises this for
    *every* rejected spec -- unknown heads and malformed parameters
    alike -- so spec consumers need exactly one except clause.
    """

    def __init__(self, spec: str, reason: Optional[str] = None) -> None:
        self.spec = spec
        self.reason = reason
        self.valid = available_specs()
        detail = (
            f"bad simulator spec {spec!r}: {reason}"
            if reason
            else f"unknown simulator spec {spec!r}"
        )
        super().__init__(f"{detail}; accepted: {self.valid}")

_FIXED: Dict[str, Callable[[], Simulator]] = {
    "simple": SimpleMachine,
    "serialmemory": serial_memory_machine,
    "nonsegmented": non_segmented_machine,
    "cray": cray_like_machine,
    "cray-like": cray_like_machine,
    "cray-unchained": lambda: ScoreboardMachine(
        fu_pipelined=True, memory_interleaved=True, vector_chaining=False
    ),
    "cdc6600": CDC6600Machine,
    "tomasulo": TomasuloMachine,
}


#: Parameterised spec templates accepted alongside the fixed names.
SPEC_TEMPLATES = (
    "inorder:<units>[:<bus>]",
    "ooo:<units>[:<bus>][:war=on|off]",
    "ruu:<units>:<ruu-size>[:<bus>][:fu=<copies>][:bypass=on|off]"
    "[:mem=free|ordered]",
    "spec[:<window>][:<predictor>][:<key>=<value>...]",
    "cache:<words>[:<hit>:<miss>]",
    "banked:<banks>[:<busy>]",
)


def list_specs() -> tuple:
    """Every accepted specification: fixed names plus templates."""
    return tuple(sorted(_FIXED)) + SPEC_TEMPLATES


def available_specs() -> str:
    """Human-readable description of accepted specification strings."""
    return (
        "simple | serialmemory | nonsegmented | cray | cray-unchained | "
        "cdc6600 | tomasulo | inorder:<units>[:<bus>] | "
        "ooo:<units>[:<bus>][:war=on|off] | "
        "ruu:<units>:<ruu-size>[:<bus>][:fu=<copies>][:bypass=on|off]"
        "[:mem=free|ordered] | "
        "spec[:<window>][:<predictor>][:<key>=<value>...] | "
        "cache:<words>[:<hit>:<miss>] | banked:<banks>[:<busy>]"
        "  (bus: nbus, 1bus, xbar; spec predictors: none, always, btfn, "
        "1bit, 2bit, perfect, wrong; spec keys: units, bus, rp, vp, vpp)"
    )


@dataclass(frozen=True)
class ParsedSpec:
    """A specification string split into its head and parameters.

    The single parsing point shared by :func:`build_simulator` and
    spec-keyed consumers (the verification layer derives per-machine
    event profiles from the same normalised form, so the two can never
    disagree about what a spec means).
    """

    head: str
    params: Tuple[str, ...]


def parse_spec(spec: str) -> ParsedSpec:
    """Normalise a spec string: lowercase, strip, split on ``:``."""
    parts = [part.strip() for part in spec.lower().split(":")]
    return ParsedSpec(head=parts[0], params=tuple(parts[1:]))


def _parse_bus(token: str, default: BusKind) -> BusKind:
    if not token:
        return default
    try:
        return _BUS_NAMES[token.lower()]
    except KeyError:
        raise ValueError(
            f"unknown bus kind {token!r}; expected one of {sorted(_BUS_NAMES)}"
        ) from None


def _parse_trailing(
    tokens: Tuple[str, ...], keys: Dict[str, Optional[Tuple[str, ...]]]
) -> Tuple[BusKind, Dict[str, str]]:
    """Trailing spec tokens: at most one bus name plus ``key=value``
    options, in any order, each key at most once.  *keys* maps each
    accepted key to its allowed values (None: any value)."""
    bus = ""
    options: Dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            if bus:
                raise ValueError(f"unexpected parameter {token!r}")
            bus = token
            continue
        if key not in keys:
            raise ValueError(f"unknown parameter {token!r}")
        if key in options:
            raise ValueError(f"duplicate {key}= parameter")
        allowed = keys[key]
        if allowed is not None and value not in allowed:
            raise ValueError(
                f"{key}= takes {' or '.join(allowed)}, got {value!r}"
            )
        options[key] = value
    return _parse_bus(bus, BusKind.N_BUS), options


def build_simulator(spec: str) -> Simulator:
    """Build a simulator from a specification string (see module docstring).

    Any rejected spec -- unknown head or malformed parameters -- raises
    :class:`UnknownSpecError` (a ``ValueError`` subclass).
    """
    try:
        return _build_simulator(spec)
    except UnknownSpecError:
        raise
    except ValueError as exc:
        raise UnknownSpecError(spec, reason=str(exc)) from None


def _build_simulator(spec: str) -> Simulator:
    parsed = parse_spec(spec)
    head, parts = parsed.head, (parsed.head,) + parsed.params

    if head in _FIXED:
        if len(parts) > 1:
            raise ValueError(f"{head!r} takes no parameters")
        return _FIXED[head]()

    if head in ("inorder", "ooo"):
        if len(parts) < 2:
            raise ValueError(f"{head!r} needs an issue-unit count")
        units = int(parts[1])
        if head == "inorder":
            bus, _ = _parse_trailing(parts[2:], {})
            return InOrderMultiIssueMachine(units, bus)
        bus, options = _parse_trailing(parts[2:], {"war": ("on", "off")})
        return OutOfOrderMultiIssueMachine(
            units, bus, enforce_war=options.get("war", "on") == "on"
        )

    if head == "ruu":
        if len(parts) < 3:
            raise ValueError("'ruu' needs issue units and an RUU size")
        units = int(parts[1])
        size = int(parts[2])
        bus, options = _parse_trailing(parts[3:], {
            "fu": None,
            "bypass": ("on", "off"),
            "mem": ("free", "ordered"),
        })
        try:
            fu_copies = int(options.get("fu", "1"))
        except ValueError:
            raise ValueError(
                f"fu= needs an integer copy count, got {options['fu']!r}"
            ) from None
        return RUUMachine(
            units, size, bus,
            bypass=options.get("bypass", "on") == "on",
            ordered_memory=options.get("mem", "free") == "ordered",
            fu_copies=fu_copies,
        )

    if head == "spec":
        from .spec import SpecMachine, parse_spec_params

        params = parse_spec_params(parsed.params)
        return SpecMachine.from_params(params, _parse_bus(params.bus, BusKind.N_BUS))

    if head == "cache":
        from ..memsys import Cache, CachedMemory, MemoryAwareMachine

        if len(parts) < 2:
            raise ValueError("'cache' needs a size in words")
        words = int(parts[1])
        hit = int(parts[2]) if len(parts) > 2 else 5
        miss = int(parts[3]) if len(parts) > 3 else 11
        return MemoryAwareMachine(
            lambda: CachedMemory(Cache(words), hit_latency=hit, miss_latency=miss)
        )

    if head == "banked":
        from ..memsys import BankedMemory, ConflictMemory, MemoryAwareMachine

        if len(parts) < 2:
            raise ValueError("'banked' needs a bank count")
        banks = int(parts[1])
        busy = int(parts[2]) if len(parts) > 2 else 4
        return MemoryAwareMachine(
            lambda: ConflictMemory(BankedMemory(banks, busy), 11)
        )

    raise UnknownSpecError(spec)
