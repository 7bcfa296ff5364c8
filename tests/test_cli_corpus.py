"""The committed CLI corpus: every call still matches the pins recorded at the
parent of the change that added it (scripts/cli_corpus.py)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "cli_corpus.py"
_SPEC = importlib.util.spec_from_file_location("cli_corpus", _PATH)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)
CORPUS = corpus.load()


def test_every_command_of_the_script_is_pinned_once():
    commands = [entry["command"] for entry in CORPUS["calls"]]
    assert sorted(commands) == sorted(set(corpus.CALLS)) and len(commands) == len(set(commands))


@pytest.mark.parametrize("entry", CORPUS["calls"], ids=[entry["command"] for entry in CORPUS["calls"]])
def test_call_matches_its_pins(entry):
    assert corpus.check(entry, CORPUS["files"]) == []
