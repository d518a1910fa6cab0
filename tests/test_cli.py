"""Command line behaviour: exit codes, determinism, and output files."""

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
