"""Speed never changes results: pinned digests of the command line's output.

Each case runs one command at seed 1 with --no-timestamp and compares the
sha256 of its stdout, and its exit status, with the value recorded before
apply_trace folded over a working copy.  A change that only makes the model
faster must leave every digest as it is; a change that means to alter output
updates the digest and says why.

The digests pin output on the Python where they were recorded (Python 3.11):
every draw, M0's label shuffles included, comes from the random module, so
its streams and Python's float formatting are all that is pinned beyond the
model itself.
"""

import hashlib

import pytest

from tpsim.cli import main

GOLDEN = [
    (("attack", "reference", "--protection", "on", "--samples", "60"), 0,
     "55d3937e295278aeb357ce8b957c54e21becb42385a4a7da55cbf16ee11ac860"),
    (("attack", "reference", "--protection", "off", "--samples", "60"), 0,
     "8fb32cee3a2d24c4d7bde826b5bf43b1122aa09c76cf3221cc9b224a946945a1"),
    (("attack", "reference", "--protection", "prefetch", "--samples", "60"), 0,
     "3d666d777649d7d66f9534c754bfb4487e84bfeef7e153811fb8ac5cd9d1f3c3"),
    (("attack", "reference", "--protection", "targeted-flush", "--samples", "60"), 0,
     "30465e9005a6ea7e89e2c2a3dd94c2c32fe00f724a56e3e9e2ae2a73c62562cf"),
    (("prefetch-experiment", "adversarial", "--samples", "60"), 0,
     "c1c5abbf95c3bbcdc67f0b48e52405ea4b2820ca97fe0dcb25e4d9016f0fc590"),
    (("confidentiality", "reference", "--trials", "30"), 0,
     "c91ba9739de73771f89708294b82ac26abd6605bd6fe99afe89f73261440b8c4"),
    # The two runs of a trial advance in lockstep, so its notes end at its divergence.
    (("confidentiality", "reference", "--trials", "30", "--mutation", "no-pad"), 1,
     "7dfcb16a0d39836bb2c577b9374c93a42e45b94b5a2be064e160d9bdfe004b43"),
    # --jobs changes how samples are collected, never the report.
    (("attack", "reference", "--protection", "off", "--samples", "60", "--jobs", "2"), 0,
     "8fb32cee3a2d24c4d7bde826b5bf43b1122aa09c76cf3221cc9b224a946945a1"),
    (("prefetch-experiment", "adversarial", "--samples", "60", "--jobs", "2"), 0,
     "c1c5abbf95c3bbcdc67f0b48e52405ea4b2820ca97fe0dcb25e4d9016f0fc590"),
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
     "7dfcb16a0d39836bb2c577b9374c93a42e45b94b5a2be064e160d9bdfe004b43"),
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
