"""Seeded CLI output stays byte-identical: every pin of pins.txt, in-process."""

import hashlib
from pathlib import Path

import pytest

from cvphase import cli


def _pins():
    for line in (Path(__file__).parent / "pins.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            digest, *argv = line.split()
            yield pytest.param(digest, argv, id=" ".join(argv))


@pytest.mark.parametrize("digest, argv", _pins())
def test_pinned_output(digest, argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
