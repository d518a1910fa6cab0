"""Speed never changes results: pinned digests of the command line's output.

Each case runs one command at seed 1 with --no-timestamp and compares the
sha256 of its stdout, and its exit status, with the value recorded before
apply_trace folded over a working copy.  A change that only makes the model
faster must leave every digest as it is; a change that means to alter output
updates the digest and says why.

The digests pin output on the Python and numpy installed where they were
recorded (Python 3.11, numpy 2.4): the random module's streams and numpy's
shuffles and float formatting are part of what is pinned.
"""

import hashlib

import pytest

from tpsim.cli import main

GOLDEN = [
    (("attack", "reference", "--protection", "on", "--samples", "60"), 0,
     "dd89b1c6bbbfff668d0029e44ac31fea2950df1ec71bb787b6db63cf73d53927"),
    (("attack", "reference", "--protection", "off", "--samples", "60"), 0,
     "83ac74b39691ac4ced0e48bcda758b9185938467ef697fda5ce904e168d090de"),
    (("attack", "reference", "--protection", "prefetch", "--samples", "60"), 0,
     "b7bd5d4ee7b9411449b6ed50c507180509fd110c459ef063613fcf1503ac6f98"),
    (("attack", "reference", "--protection", "targeted-flush", "--samples", "60"), 0,
     "3722eafdc255abae74d3ce7efc837491dd2ed1738a3967e22b714ba0db151cae"),
    (("prefetch-experiment", "adversarial", "--samples", "60"), 0,
     "52b451e0245079c9aafa7d1400aabb383fca5c0eea042b4e14ab1db00980432f"),
    (("confidentiality", "reference", "--trials", "30"), 0,
     "c91ba9739de73771f89708294b82ac26abd6605bd6fe99afe89f73261440b8c4"),
    # The two runs of a trial advance in lockstep, so its notes end at its divergence.
    (("confidentiality", "reference", "--trials", "30", "--mutation", "no-pad"), 1,
     "7dfcb16a0d39836bb2c577b9374c93a42e45b94b5a2be064e160d9bdfe004b43"),
    # --jobs changes how samples are collected, never the report.
    (("attack", "reference", "--protection", "off", "--samples", "60", "--jobs", "2"), 0,
     "83ac74b39691ac4ced0e48bcda758b9185938467ef697fda5ce904e168d090de"),
    (("prefetch-experiment", "adversarial", "--samples", "60", "--jobs", "2"), 0,
     "52b451e0245079c9aafa7d1400aabb383fca5c0eea042b4e14ab1db00980432f"),
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
