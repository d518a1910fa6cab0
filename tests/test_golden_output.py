"""Speed never changes results: pinned digests of the command line's output.

Each case runs one command at seed 1 with --no-timestamp and compares the
sha256 of its stdout, and its exit status, with the recorded value.  A change
that only makes the model faster must leave every digest as it is; a change
that means to alter output updates the digest and says why.

The digests pin output on the Python where they were recorded (Python 3.11).
The oracle words and trace selections are SHAKE-128 streams of their keys and
the selection keys hash marshal's version 2 encoding, both fixed formats; the
schedules, property-check states and M0's label shuffles draw from the random
module.  Those streams and Python's float formatting are all that is pinned
beyond the model itself.
"""

import hashlib

import pytest

from tpsim.cli import main

GOLDEN = [
    (("attack", "reference", "--protection", "on", "--samples", "60"), 0,
     "f53a9597674660e6c3714939f793324487edfbef40ee54b309d30f7c632a857e"),
    (("attack", "reference", "--protection", "off", "--samples", "60"), 0,
     "3633ebc21b6a9f5a728af705e4f553d2285eddcdb45f5177c2c2b0c1888ad52f"),
    (("attack", "reference", "--protection", "prefetch", "--samples", "60"), 0,
     "ed2ea88d2d4b9e0c72466a6ff6aa66ea84fc8944d484359f3bb411adc1493830"),
    (("attack", "reference", "--protection", "targeted-flush", "--samples", "60"), 0,
     "2fad592e2c571c92e51243202a8650f364846fb9958ac742610abbe5a31d4b6a"),
    (("prefetch-experiment", "adversarial", "--samples", "60"), 0,
     "cb66c4db51450ce21173e1f465791196e3d252ba7309e1680cbd59e8aa6d418c"),
    (("confidentiality", "reference", "--trials", "30"), 0,
     "c91ba9739de73771f89708294b82ac26abd6605bd6fe99afe89f73261440b8c4"),
    # The two runs of a trial advance in lockstep, so its notes end at its divergence.
    (("confidentiality", "reference", "--trials", "30", "--mutation", "no-pad"), 1,
     "a8aeadbeccfc5f4073f36896ec1a16b5069ce03d5212d44873cf3fbfddd969ca"),
    # --jobs changes how samples are collected, never the report.
    (("attack", "reference", "--protection", "off", "--samples", "60", "--jobs", "2"), 0,
     "3633ebc21b6a9f5a728af705e4f553d2285eddcdb45f5177c2c2b0c1888ad52f"),
    (("prefetch-experiment", "adversarial", "--samples", "60", "--jobs", "2"), 0,
     "cb66c4db51450ce21173e1f465791196e3d252ba7309e1680cbd59e8aa6d418c"),
    (("confidentiality", "reference", "--variant", "u", "--trials", "30"), 0,
     "5ad6b54bd8c383f76a4a99ccea7356474f08ed08db34acdffba3cdaedbcee445"),
    (("check", "reference", "--suite", "all", "--trials", "100"), 0,
     "4b58ac7145322cc236b3e593338f7cc86fd064a5638417e639695cec483ee41e"),
    # --jobs spreads checks and trials too, and the digests stay the serial ones.
    (("check", "reference", "--suite", "all", "--trials", "100", "--jobs", "2"), 0,
     "4b58ac7145322cc236b3e593338f7cc86fd064a5638417e639695cec483ee41e"),
    (("confidentiality", "reference", "--trials", "30", "--jobs", "2"), 0,
     "c91ba9739de73771f89708294b82ac26abd6605bd6fe99afe89f73261440b8c4"),
    (("confidentiality", "reference", "--trials", "30", "--mutation", "no-pad", "--jobs", "2"), 1,
     "a8aeadbeccfc5f4073f36896ec1a16b5069ce03d5212d44873cf3fbfddd969ca"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(a[:1] + a[2:]) for a, _, _ in GOLDEN])
def test_output_digest(capsys, config_dir, argv, code, digest):
    command, config, *rest = argv
    got = main([command, str(config_dir / f"{config}.yaml"), *rest,
                "--seed", "1", "--no-timestamp"])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
