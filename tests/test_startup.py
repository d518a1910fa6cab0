"""Start-up: the package and each command load only the modules they run,
and the package's names resolve, on first use, to their submodules' objects."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import tpsim

ROOT = pathlib.Path(__file__).resolve().parent.parent
WATCHED = ("tpsim.channel", "tpsim.checks", "tpsim.confidentiality", "tpsim.kernel",
           "tpsim.selector", "multiprocessing", "numpy")

# What the package exported when it imported every submodule up front.
EXPORTS = {
    "channel": ["CapacityReport", "ChannelMatrix", "apparent_capacity_M0", "measure_channel",
                "mutual_information", "prefetch_experiment", "run_prime_probe"],
    "checks": ["CheckResult", "run_suite"],
    "config": ["Input", "RunConfig", "load_config", "parse_config", "validate_config"],
    "confidentiality": ["ConfidentialityReport", "check_confidentiality"],
    "core": ["AddressMap", "CacheGeometry", "ConfigError", "DomainPolicy", "DomainSpec",
             "KERNEL_DOMAIN", "ModelError", "PolicyError", "TranslationFault"],
    "kernel": ["RunOptions", "StepRecord", "SystemRunner", "partition_subset_invariant"],
    "microarch": ["CacheSet", "CostModel", "MicroArchState", "NondetOracle", "OffCoreFlush",
                  "OnCoreFlush", "PadTo", "Read", "VisibleProjection", "Write", "adheres",
                  "apply_op", "apply_trace", "visible_projection"],
    "selector": ["perturb_invisible", "select_trace", "select_trace_peeking"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def loaded_after(script: str) -> set[str]:
    """The WATCHED modules a fresh interpreter has loaded after script."""
    script = f"import sys\n{script}\nprint(*(m for m in {WATCHED!r} if m in sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_loading_a_config_loads_no_runner():
    assert loaded_after(
        "import tpsim\n"
        "tpsim.validate_config(tpsim.load_config('configs/reference.yaml'))\n"
    ) == set()


def test_building_the_parser_loads_no_command():
    loaded = loaded_after(
        "import tpsim.cli\n"
        "tpsim.cli.build_parser()\n"
    )
    assert not loaded & (set(WATCHED) - {"tpsim.selector"})


def test_check_loads_neither_channel_nor_numpy():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from tpsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', 'configs/reference.yaml', '--trials', '3',\n"
        "                 '--no-timestamp']) == 0\n"
    )
    assert "tpsim.checks" in loaded
    assert not loaded & {"tpsim.channel", "numpy"}


@pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
def test_every_exported_name_is_its_submodule_object(module, name):
    assert getattr(tpsim, name) is getattr(importlib.import_module(f"tpsim.{module}"), name)


def test_from_imports_and_dir_see_every_exported_name():
    from tpsim import SystemRunner, check_confidentiality
    from tpsim.kernel import SystemRunner as runner
    assert SystemRunner is runner and callable(check_confidentiality)
    star: dict = {}
    exec("from tpsim import *", star)
    names = [name for _, name in NAMES]
    assert set(names) <= set(star) and set(names) <= set(dir(tpsim))
    assert all(star[name] is getattr(tpsim, name) for name in names)


def test_submodules_resolve_without_an_import():
    assert loaded_after(
        "import tpsim\n"
        "assert callable(tpsim.checks.check_selector_dependency)\n"
        "assert tpsim.checks is sys.modules['tpsim.checks']\n"
    ) == {"tpsim.checks", "tpsim.kernel", "tpsim.selector"}


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'tpsim' has no attribute 'no_such_name'"):
        tpsim.no_such_name
    with pytest.raises(ImportError):
        from tpsim import no_such_name  # noqa: F401
