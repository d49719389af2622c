"""scripts/scorecard.py at smoke size: 2 seeds, 2 epochs, two protocols."""

import importlib.util
import json
import math
import os
from pathlib import Path
from unittest import mock

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scorecard.py"
_SPEC = importlib.util.spec_from_file_location("scorecard", _PATH)
scorecard = importlib.util.module_from_spec(_SPEC)
# the script sets the BLAS thread variables as it loads; this process keeps its own
with mock.patch.dict(os.environ):
    _SPEC.loader.exec_module(scorecard)

RUN_FIELDS = {"seed", "accuracy", "nmi", "used_k", "effective_k", "objective", "diverged"}
SUMMARY_FIELDS = {
    "accuracy_median", "accuracy_min", "below_pass", "diverged",
    "nmi_median", "used_k_median", "effective_k_median",
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A 2-seed, 2-epoch scorecard of the paper protocol and the mixed pool,
    and its file."""
    out = tmp_path_factory.mktemp("scorecard") / "quality.json"
    doc = scorecard.main(["seeds=2", "epochs=2", "protocols=paper,mixed", f"out={out}"])
    return doc, out


def test_every_run_and_summary_field_is_present_and_finite(smoke):
    doc, out = smoke
    assert json.loads(out.read_text()) == doc
    assert doc["settings"] == {"seeds": 2, "epochs": 2, "protocols": "paper,mixed"}
    assert doc["local_sweeps"] == scorecard.vmp.LOCAL_SWEEPS
    assert list(doc["protocols"]) == ["paper", "mixed"]
    for name, entry in doc["protocols"].items():
        # recovery is defined only where the pool's workers differ
        ranked = name == "mixed"
        runs = entry["runs"]
        assert [r["seed"] for r in runs] == [0, 1]
        for r in runs:
            assert set(r) == RUN_FIELDS | ({"recovery"} if ranked else set())
            assert r["diverged"] is False
            assert all(math.isfinite(v) for k, v in r.items() if k != "diverged")
            assert 0.0 <= r["accuracy"] <= 1.0 and 1 <= r["used_k"] <= 15
        summary = entry["summary"]
        assert set(summary) == SUMMARY_FIELDS | ({"recovery_median"} if ranked else set())
        assert all(math.isfinite(v) for v in summary.values())
        assert summary["accuracy_min"] == min(r["accuracy"] for r in runs)
    # neither protocol has its unannotated twin here
    assert doc["twins"] == {}


def test_against_gives_the_paired_summary_of_two_saved_files(smoke, tmp_path, capsys):
    """The saved file moves seed 0 down by 0.2 and seed 1 up by 0.1 on the
    paper protocol, and holds no mixed pool: this run reads them back as
    +0.2 and -0.1, one seed up and one down."""
    doc, _ = smoke
    saved = json.loads(json.dumps(doc))
    del saved["protocols"]["mixed"]
    runs = saved["protocols"]["paper"]["runs"]
    runs[0]["accuracy"] -= 0.2
    runs[1]["accuracy"] += 0.1
    (tmp_path / "saved.json").write_text(json.dumps(saved))
    again = scorecard.main([
        "seeds=2", "epochs=2", "protocols=paper,mixed",
        f"out={tmp_path / 'again.json'}", f"against={tmp_path / 'saved.json'}",
    ])
    assert again["protocols"] == doc["protocols"]
    diff = again["against"]["protocols"]
    assert list(diff) == ["paper"]
    assert diff["paper"]["seeds"] == 2
    assert diff["paper"]["mean"] == pytest.approx(0.05, abs=1e-12)
    assert diff["paper"]["median"] == pytest.approx(0.05, abs=1e-12)
    assert (diff["paper"]["up"], diff["paper"]["down"]) == ([0], [1])
    assert again["against"]["file"] == "saved.json"
    assert "against saved.json, paper: mean +0.050, median +0.050, 1 up / 1 down" in (
        capsys.readouterr().out
    )


def test_paired_diffs_count_moves_of_exactly_the_threshold():
    """Accuracies of 500 items differ by multiples of 0.002, whose float
    subtraction can land a last bit below 0.1."""
    old = [{"seed": s, "accuracy": a} for s, a in ((0, 0.852), (1, 0.5), (2, 0.7))]
    new = [{"seed": s, "accuracy": a} for s, a in ((0, 0.952), (1, 0.402), (3, 0.1))]
    assert 0.952 - 0.852 < 0.1
    diff = scorecard.paired(new, old)
    assert (diff["seeds"], diff["up"], diff["down"]) == (2, [0], [])
    with pytest.raises(ValueError, match="no seed in common"):
        scorecard.paired(new[2:], old)


@pytest.mark.parametrize(
    "args, message",
    [
        (["seeds=0"], "seeds must be at least 1"),
        (["jobs=0"], "jobs must be at least 1"),
        (["bogus=1"], "unknown key 'bogus'"),
        (["epochs=x"], "epochs: cannot parse 'x' as int"),
        (["protocols=paper,curved"], r"protocols: unknown \['curved'\]"),
        (["protocols=,"], "protocols: unknown"),
        (["seeds"], "expected key=value"),
    ],
)
def test_bad_arguments_are_named(args, message):
    with pytest.raises(SystemExit, match=message):
        scorecard.parse_args(args)
