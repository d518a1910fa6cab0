"""Command line behaviour: exit codes, determinism, and output files."""

import os
import pathlib
import subprocess
import sys

import pytest

from tpsim.channel import measure_channel
from tpsim.checks import run_suite
from tpsim.cli import main
from tpsim.core import ConfigError

REF = "configs/reference.yaml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_small_suite(capsys, config_dir):
    code, out, err = run_cli(
        capsys, "check", str(config_dir / "reference.yaml"),
        "--suite", "properties", "--trials", "25", "--no-timestamp",
    )
    assert code == 0
    assert out.count("PASS") == 6
    assert "6/6 checks passed" in out
    assert "# generated" not in out


def test_confidentiality_honest_and_mutated(capsys, config_dir):
    cfgp = str(config_dir / "reference.yaml")
    code, out, _ = run_cli(
        capsys, "confidentiality", cfgp, "--trials", "10", "--no-timestamp",
    )
    assert code == 0 and "violations: 0" in out

    code, out, _ = run_cli(
        capsys, "confidentiality", cfgp, "--trials", "200",
        "--mutation", "no-pad", "--no-timestamp",
    )
    assert code == 1
    assert "first witness" in out and "micro.clock" in out


def test_unsatisfied_hypothesis_is_exit_1(capsys, tmp_path, config_dir):
    """No violation found is no pass when the hypothesis does not hold."""
    cfgp = str(config_dir / "reference.yaml")
    code, out, _ = run_cli(
        capsys, "confidentiality", cfgp, "--variant", "u", "--mutation", "no-pad",
        "--trials", "20", "--no-timestamp",
    )
    assert "violations: 0" in out and "hypothesis: NOT SATISFIED" in out
    assert code == 1

    import yaml
    doc = yaml.safe_load((config_dir / "reference.yaml").read_text())
    doc["policy"]["slice_length"] = 500        # no input fits a slot
    short = tmp_path / "short.yaml"
    short.write_text(yaml.safe_dump(doc))
    # Such a config no longer loads; tests/test_confidentiality.py still runs
    # one past validation and requires the hypothesis to fail.
    code, out, err = run_cli(capsys, "confidentiality", str(short), "--no-timestamp")
    assert out == "" and "policy.slice_length" in err
    assert code == 2


def test_a_deadline_the_dirty_phase_misses_is_exit_2(capsys, tmp_path, config_dir):
    import yaml
    doc = yaml.safe_load((config_dir / "reference.yaml").read_text())
    doc["policy"]["use_dirty_phase"] = True    # two image walks more than 320 allows
    dirty = tmp_path / "dirty.yaml"
    dirty.write_text(yaml.safe_dump(doc))
    code, out, err = run_cli(capsys, "check", str(dirty), "--trials", "1", "--no-timestamp")
    assert out == "" and "policy.switch_deadline: 320 is below 1298" in err
    assert code == 2


def _edited(tmp_path, config_dir, section, key, value):
    """Path of a copy of the reference config with section.key set to value."""
    import yaml
    doc = yaml.safe_load((config_dir / "reference.yaml").read_text())
    doc[section][key] = value
    path = tmp_path / f"{section}-{key}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "slices", 0),      # no transitions to compare: no clean verdict
    ("scenario", "slices", -3),
    ("analysis", "trace_budget", 0),
    ("analysis", "samples_per_symbol", 0),
    ("analysis", "trials", 0),
    ("cost_model", "oncore_flush_spread", 0),
    ("cost_model", "writeback_cost", -1),
    ("cost_model", "oncore_flush_base", -1),
    ("cost_model", "offcore_flush_base", -1),
], ids=str)
def test_counts_and_costs_out_of_range_are_exit_2(capsys, tmp_path, config_dir,
                                                   section, key, value):
    """Rejected at load, naming the field, not at first use (or never)."""
    path = _edited(tmp_path, config_dir, section, key, value)
    code, out, err = run_cli(capsys, "confidentiality", path, "--trials", "1", "--no-timestamp")
    assert (code, out) == (2, "") and f"{section}.{key}: must be >= " in err


@pytest.mark.parametrize("key, value", [
    ("objects", 5), ("objects", None),
    ("inputs", [1]), ("inputs", None),
    ("initial_cache", 3), ("initial_cache", None),
], ids=str)
def test_scenario_lists_of_the_wrong_type_are_exit_2(capsys, tmp_path, config_dir, key, value):
    """Named at load, not a TypeError or AttributeError from the parser."""
    path = _edited(tmp_path, config_dir, "scenario", key, value)
    code, out, err = run_cli(capsys, "check", path, "--trials", "1", "--no-timestamp")
    assert (code, out) == (2, "") and f"scenario.{key}: expected a " in err


def test_unknown_mutation_is_an_argparse_error(config_dir):
    with pytest.raises(SystemExit) as e:
        main(["confidentiality", str(config_dir / "reference.yaml"),
              "--mutation", "rowhammer"])
    assert e.value.code == 2


def test_attack_writes_csv_and_is_deterministic(capsys, tmp_path, config_dir):
    cfgp = str(config_dir / "reference.yaml")
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    outs = []
    for p in (csv1, csv2):
        code, out, _ = run_cli(
            capsys, "attack", cfgp, "--protection", "on", "--samples", "12",
            "--out-csv", str(p), "--no-timestamp",
        )
        assert code == 0
        outs.append(out.replace(str(p), "CSV"))
    assert outs[0] == outs[1]
    assert csv1.read_text() == csv2.read_text()
    lines = csv1.read_text().strip().splitlines()
    assert len(lines) == 3   # header plus one row per symbol
    assert lines[0].startswith("symbol,")
    assert "M_bits=0.0" in outs[0]


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_attack_checks_the_csv_path_before_measuring(capsys, tmp_path, config_dir,
                                                     monkeypatch, where):
    """A CSV path that cannot be written is exit 2 before any sample runs."""
    calls = []
    monkeypatch.setattr("tpsim.cli.measure_channel", lambda *a, **k: calls.append(a))
    target = tmp_path / "no-such-dir" / "m.csv" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "attack", str(config_dir / "reference.yaml"),
                             "--out-csv", str(target), "--no-timestamp")
    assert code == 2 and calls == [] and out == ""
    assert err.startswith("error: ") and str(target.parent if where == "missing-dir" else target) in err


def test_attack_rejects_zero_samples(capsys, config_dir, ref_cfg):
    # The command line refuses the count before it loads anything ...
    with pytest.raises(SystemExit) as e:
        main(["attack", str(config_dir / "reference.yaml"),
              "--samples", "0", "--no-timestamp"])
    assert e.value.code == 2
    assert "--samples" in capsys.readouterr().err
    # ... and the library refuses it too, naming the field.
    with pytest.raises(ConfigError, match="samples_per_symbol"):
        measure_channel(ref_cfg, "on", 1, samples_per_symbol=0)


@pytest.mark.parametrize("argv", [
    ["check", "--trials", "-5"],
    ["check", "--trials", "0"],
    ["check", "--jobs", "0"],
    ["confidentiality", "--trials", "0"],
    ["confidentiality", "--jobs", "-1"],
    ["attack", "--jobs", "-3"],
    ["attack", "--samples", "-2"],
    ["attack", "--samples", "ten"],
    ["prefetch-experiment", "--samples", "0"],
    ["prefetch-experiment", "--jobs", "0"],
], ids=" ".join)
def test_non_positive_counts_are_usage_errors(capsys, config_dir, argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as e:
        main([command, str(config_dir / "reference.yaml"), *rest, "--no-timestamp"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and rest[0] in err


def test_jobs_is_accepted_by_every_command(capsys, config_dir):
    cfgp = str(config_dir / "reference.yaml")
    for argv in (["check", cfgp, "--suite", "invariants", "--trials", "20"],
                 ["confidentiality", cfgp, "--trials", "2"],
                 ["attack", cfgp, "--samples", "4"],
                 ["prefetch-experiment", cfgp, "--samples", "4"]):
        code, out, _ = run_cli(capsys, *argv, "--jobs", "2", "--no-timestamp")
        assert code == 0, argv
        assert (code, out) == run_cli(capsys, *argv, "--jobs", "1", "--no-timestamp")[:2], argv


def test_run_suite_rejects_no_trials(ref_cfg):
    for trials in (0, -5):
        with pytest.raises(ConfigError, match="trials"):
            run_suite(ref_cfg, "all", trials, 1)


def test_missing_config_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "/does/not/exist.yaml")
    assert code == 2 and "not found" in err


def test_invalid_policy_is_exit_2(capsys, tmp_path, config_dir):
    import yaml
    doc = yaml.safe_load((config_dir / "reference.yaml").read_text())
    doc["policy"]["domains"][1]["colours"] = [1, 2]
    bad = tmp_path / "overlap.yaml"
    bad.write_text(yaml.safe_dump(doc))
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "already claimed" in err


def test_prefetch_command_smoke(capsys, config_dir):
    code, out, _ = run_cli(
        capsys, "prefetch-experiment", str(config_dir / "adversarial.yaml"),
        "--samples", "6", "--no-timestamp",
    )
    assert code == 0
    assert "M_prefetch" in out and "M_flush" in out


def test_timestamp_header_present_by_default(capsys, config_dir):
    code, out, _ = run_cli(
        capsys, "check", str(config_dir / "reference.yaml"),
        "--suite", "invariants", "--trials", "20",
    )
    assert code == 0
    assert out.startswith("# generated ")


def test_check_and_confidentiality_never_import_numpy(config_dir):
    """numpy loads with the first M0 and not before: the commands without a
    channel measurement start faster and smaller."""
    cfg = str(config_dir / "reference.yaml")
    script = (
        "import contextlib, io, sys\n"
        "from tpsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['check', {cfg!r}, '--trials', '3', '--no-timestamp']),\n"
        f"             main(['confidentiality', {cfg!r}, '--trials', '2', '--no-timestamp'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] False"
