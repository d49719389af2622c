"""Argument parsing of scripts/calibrate.py."""

import importlib.util
from pathlib import Path

import pytest

from crowdmix.vmp import BayesConfig

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"
_SPEC = importlib.util.spec_from_file_location("calibrate", _PATH)
calibrate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate)


def test_values_parse_by_the_type_of_each_field():
    settings, config = calibrate.parse_args(
        [
            "n_components=5", "epochs=3", "lr=0.01", "hidden=20,30", "seeds=2", "annotated=0",
        ]
    )
    assert settings == {"seeds": 2, "annotated": 0, "quiet": 0}
    assert config == BayesConfig(n_components=5, epochs=3, lr=0.01, hidden=(20, 30))
    assert calibrate.parse_args([]) == (calibrate.SCRIPT_KEYS, BayesConfig())


@pytest.mark.parametrize(
    "args, message",
    [
        (["seeds=0"], "seeds must be at least 1"),
        (["bogus=1"], "unknown key 'bogus'"),
        (["epochs=x"], "epochs: cannot parse 'x' as int"),
        (["hidden=4,a"], "hidden: cannot parse"),
        (["epochs"], "expected key=value"),
        (["kl_warmup=2"], "unknown key 'kl_warmup'"),
        (["alpha0=0.2"], "unknown key 'alpha0'"),
    ],
)
def test_bad_arguments_are_named(args, message):
    with pytest.raises(SystemExit, match=message):
        calibrate.parse_args(args)
