"""Every example shows one paper claim, and tier-1 checks that it holds.

Each script in ``examples/`` runs as a subprocess and must print the
line it prints only once its claim is asserted.  An example with no
entry in ``CLAIMS`` fails ``test_all_examples_present``: a script that
shows nothing the paper claims keeps no code alive, since the use audit
counts every example as a reader.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: script -> (paper section, a line printed only once the claim holds)
CLAIMS = {
    "doublespend_poison.py": ("§4.5", "the fraud did not pay."),
    "power_variation.py": (
        "§5.2",
        "microblocks keep the ledger moving while only leader election",
    ),
    "frequency_tradeoff.py": ("§8", "at 0.5 blocks/s NG keeps utilization"),
    "ghost_ambiguity.py": (
        "Appendix A",
        "no node's local choice matches the global main chain: True",
    ),
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
    _, claim = CLAIMS[script]
    assert claim in result.stdout


def test_all_examples_present():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    assert set(CLAIMS) == scripts
