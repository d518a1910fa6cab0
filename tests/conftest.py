import pathlib

import pytest

from tpsim import load_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def ref_cfg():
    """The reference two-domain system.  Runs never mutate it."""
    return load_config(CONFIG_DIR / "reference.yaml")


@pytest.fixture(scope="session")
def three_cfg():
    """Three domains on an 8-colour cache; domain 2 sits between the trojan
    and the spy's next slice."""
    return load_config(CONFIG_DIR / "three-domain.yaml")


@pytest.fixture(scope="session")
def adv_cfg():
    return load_config(CONFIG_DIR / "adversarial.yaml")


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
