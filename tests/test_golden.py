"""Golden reports: the CLI's output bytes are pinned by sha256.

Refactors of the partition, enumeration or matching code must leave every
report byte-identical; a changed hash means a changed report.
"""

import hashlib

import pytest

from rank3affine.cli import main

GOLDEN = {
    "lemma40-classes": (
        ["verify", "--lemma", "--n-max", "40", "--classes"],
        "e8d5d383f10537341a3cba7097698eb921fa763f15e144e87789d02f79dc7f1c"),
    "theorem256": (
        ["verify", "--theorem", "--q-max", "256"],
        "ef0fab67e7236618cc947f5aeb82ae2267e81f758d9ed49a1a4c102114590919"),
    "classify81-json": (
        ["classify", "--p", "3", "--r", "4"],
        "0690658092a35cfb1dc247a0fc8fbd268543f41faaac96b2a92fa120ba828949"),
    "classify81-text": (
        ["classify", "--p", "3", "--r", "4", "--format", "text"],
        "3295b9c228696d9a4a9a99234f9ee7b62b9b58af48170e23581ff0aaf4d28760"),
    "classify64-text": (
        ["classify", "--p", "2", "--r", "6", "--format", "text"],
        "ccb563d244e615d67926d06ec5af2b90063983b4152250ebef2b10fb838876a2"),
}


@pytest.mark.parametrize("argv, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_report_bytes_match_golden_sha256(argv, digest, tmp_path, capsys):
    report = tmp_path / "report"
    assert main(argv + ["--output", str(report)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
