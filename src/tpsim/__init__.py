"""Executable model of OS time protection against microarchitectural timing channels.

The package simulates a small multi-domain kernel on top of an explicit
microarchitectural state (a flushable on-core part, a set-associative
partitionable part, and a cycle clock).  Hardware interaction is reified as
traces of five operations, kernel steps track the addresses a domain may have
touched, and domain switches scrub and pad exactly the way a time-protection
kernel would.  On top of that sit a two-run confidentiality checker and a
prime-and-probe harness that measures covert-channel capacity.
"""

from .channel import (
    CapacityReport,
    ChannelMatrix,
    apparent_capacity_M0,
    measure_channel,
    mutual_information,
    prefetch_experiment,
    run_prime_probe,
)
from .checks import CheckResult, run_suite
from .config import RunConfig, load_config, parse_config, validate_config
from .confidentiality import (
    ConfidentialityReport,
    check_confidentiality,
)
from .core import (
    AddressMap,
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    DomainSpec,
    KERNEL_DOMAIN,
    ModelError,
    PolicyError,
    TranslationFault,
)
from .kernel import (
    Input,
    RunOptions,
    RunResult,
    StepRecord,
    SystemRunner,
    partition_subset_invariant,
    run_system,
)
from .microarch import (
    CacheSet,
    CostModel,
    MicroArchState,
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    Read,
    VisibleProjection,
    Write,
    adheres,
    apply_op,
    apply_trace,
    visible_projection,
)
from .selector import perturb_invisible, select_trace, select_trace_peeking

__version__ = "0.1.0"
