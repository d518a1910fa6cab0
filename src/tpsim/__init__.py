"""Executable model of OS time protection against microarchitectural timing channels.

The package simulates a small multi-domain kernel on top of an explicit
microarchitectural state (a flushable on-core part, a set-associative
partitionable part, and a cycle clock).  Hardware interaction is reified as
traces of five operations, kernel steps track the addresses a domain may have
touched, and domain switches scrub and pad exactly the way a time-protection
kernel would.  On top of that sit a two-run confidentiality checker and a
prime-and-probe harness that measures covert-channel capacity.

Importing the package loads none of its modules: each name below, and each
submodule, is imported on first access and then kept in the package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channel": ("CapacityReport", "ChannelMatrix", "apparent_capacity_M0", "measure_channel",
                "mutual_information", "prefetch_experiment", "run_prime_probe"),
    "checks": ("CheckResult", "run_suite"),
    "config": ("Input", "RunConfig", "load_config", "parse_config", "validate_config"),
    "confidentiality": ("ConfidentialityReport", "check_confidentiality"),
    "core": ("AddressMap", "CacheGeometry", "ConfigError", "DomainPolicy", "DomainSpec",
             "KERNEL_DOMAIN", "ModelError", "PolicyError", "TranslationFault"),
    "kernel": ("RunOptions", "StepRecord", "SystemRunner", "partition_subset_invariant"),
    "microarch": ("CacheSet", "CostModel", "MicroArchState", "NondetOracle", "OffCoreFlush",
                  "OnCoreFlush", "PadTo", "Read", "VisibleProjection", "Write", "adheres",
                  "apply_op", "apply_trace", "visible_projection"),
    "selector": ("perturb_invisible", "select_trace", "select_trace_peeking"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
