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
            "local_sweeps=2", "epochs=3", "net_lr=0.01", "hidden=20,30",
            "worker_init=5,1.5", "alpha0=0.2", "annotation_batch_size=40",
            "seeds=2", "annotated=0",
        ]
    )
    assert settings == {"seeds": 2, "annotated": 0, "quiet": 0}
    assert config == BayesConfig(
        local_sweeps=2, epochs=3, net_lr=0.01, hidden=(20, 30),
        worker_init=(5.0, 1.5), alpha0=0.2, annotation_batch_size=40,
    )
    assert calibrate.parse_args([]) == (calibrate.SCRIPT_KEYS, BayesConfig())


@pytest.mark.parametrize(
    "args, message",
    [
        (["seeds=0"], "seeds must be at least 1"),
        (["bogus=1"], "unknown key 'bogus'"),
        (["epochs=x"], "epochs: cannot parse 'x' as int"),
        (["hidden=4,a"], "hidden: cannot parse"),
        (["epochs"], "expected key=value"),
        (["global_step=2"], "global_step must lie"),
    ],
)
def test_bad_arguments_are_named(args, message):
    with pytest.raises(SystemExit, match=message):
        calibrate.parse_args(args)
