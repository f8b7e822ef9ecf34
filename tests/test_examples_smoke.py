"""Smoke tests: every example must run clean end to end.

Each script in ``examples/`` runs as a subprocess, so a refactor cannot
silently break a documented entry point, and the scripts that print a
claim must still print it: the poison and SPV examples are the only
end-to-end checks of fraud-proof and light-client signatures.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

CLAIMS = {
    "doublespend_poison.py": "the fraud did not pay.",
    "light_client.py": "a forged 500-coin proof is rejected ✓",
    "payment_network.py": "(all agree)",
}


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert CLAIMS.get(script, "") in result.stdout


def test_all_examples_present():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in scripts
    assert set(CLAIMS) <= scripts
    assert len(scripts) >= 5  # the deliverable floor, with room above
