"""Golden reports: the CLI's output bytes are pinned by sha256.

Refactors of the partition, enumeration, matching or graph code must leave
every report byte-identical; a changed hash means a changed report.
"""

import hashlib

import pytest

from rank3affine.classify import prime_powers_up_to, verify_theorem
from rank3affine.cli import main
from rank3affine.fields import FiniteField
from rank3affine.znaction import verify_lemma

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
    "construct7-directed": (
        ["construct", "--family", "vls", "--p", "7", "--r", "1", "--ell", "2",
         "--allow-directed"],
        "108adf2b3949286382755e57446bb6c514d30aa59b0c95af76dc2ff33fed9ef9"),
}

CONSTRUCTIONS = {
    "paley13": ["--family", "paley", "--p", "13", "--r", "1"],
    "vls16": ["--family", "vls", "--p", "2", "--r", "4", "--ell", "3"],
    "peisert81": ["--family", "peisert", "--p", "3", "--r", "4",
                  "--variant", "3"],
    "vls1024": ["--family", "vls", "--p", "2", "--r", "10", "--ell", "3"],
    "peisert729": ["--family", "peisert", "--p", "3", "--r", "6",
                   "--variant", "3"],
    "paley53": ["--family", "paley", "--p", "53", "--r", "1"],
}
CONSTRUCT_DIGESTS = {
    ("paley13", "json"):
        "c69c99bd24cbf1958a2ff034a88dee53218f210acd6da6779b19f9e74318ab11",
    ("paley13", "graph6"):
        "9ef54215ac86fcb70ebc6fefc900af318bdd3d159bd9600cd88a000e8115a5b0",
    ("paley13", "text"):
        "031fe8f5a4a9cdb23ea2a929ed508d9b254bd856980d6a3328c5ee5d0f0ea0ef",
    ("paley13", "edges"):
        "93082706c326f3b9c6bb33a9ec0497b2ecf3bacee7aeaf4932999d127c0c4cf8",
    ("vls16", "json"):
        "49ca7f96c70d14e5a462afa5e273c884c20bfb479fb55f59bd77edc468a83307",
    ("vls16", "graph6"):
        "01d36344f051ae1bb82148016ba92a7649da0ba1ed84ca8b46a68a3f372416b2",
    ("vls16", "text"):
        "272a83e6018c5f419f23fb0fab880e91d4640a26d81d0827de29e4a80abd5037",
    ("vls16", "edges"):
        "02b3ba00b36933ab405862da009864908d9bd00aaef58cc7e15b99f06a3f1266",
    ("peisert81", "json"):
        "a0ade6b587cbf71de497773590225a8fac0c67515dd36f86cf8d0112c56f92ad",
    ("peisert81", "graph6"):
        "bbca8b9b6c4b8273c695b086cee7017f297c15098861437d775c0e1e6c6e9fb7",
    ("peisert81", "text"):
        "5abf072bc6d60164bb49567e111af81a7e74d5a2a288da6c344569f8426a6842",
    ("peisert81", "edges"):
        "93c61cd45ba6f92fe5a2a37f6729d862baf3f60ffcbd5e56b42e508f2ddc0de9",
    ("vls1024", "graph6"):
        "61f9e1d06d0539197de3bbd65fa28543fd7296fe79897fbb1212724f4bdcd222",
    ("peisert729", "graph6"):
        "c2f3b3a63eb773d90fff44cbb56df6d9b8c1b014c72b85a6d2ed09573af6ac3d",
    ("paley53", "edges"):
        "e5ad75404d8e19b693719c10c3e8a0b6b97bb745ea5b63ccbc2ec2ca1a0de725",
}
for (name, fmt), digest in CONSTRUCT_DIGESTS.items():
    GOLDEN[f"construct-{name}-{fmt}"] = (
        ["construct", *CONSTRUCTIONS[name], "--format", fmt], digest)


def report_sha256(argv, tmp_path, capsys):
    report = tmp_path / "report"
    assert main(argv + ["--output", str(report)]) == 0
    capsys.readouterr()
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_report_bytes_match_golden_sha256(argv, digest, tmp_path, capsys):
    assert report_sha256(argv, tmp_path, capsys) == digest


@pytest.mark.parametrize("name", ["theorem256", "classify81-json"])
def test_verify_and_classify_never_walk_the_powers(name, tmp_path, capsys,
                                                   monkeypatch):
    def no_walk(self):
        raise AssertionError("the powers of omega were walked")

    monkeypatch.setattr(FiniteField, "powers", no_walk)
    argv, digest = GOLDEN[name]
    assert report_sha256(argv, tmp_path, capsys) == digest


# sha256 of the verify --lemma --n-max 400 report (78 MB, 48,677 contexts)
LEMMA400_SHA256 = (
    "f826c8c95f82b229a1024ee9deb2207ac91d28f2c9b086d9fafcf1cc9bf26b1b")
# and of the verify --theorem --q-max 4096 report (7.3 MB, 604 fields)
THEOREM4096_SHA256 = (
    "676517923d1527697e83644a4850456a715a491c70f6be416dd6383b267b0ae9")


class Sha256Sink:
    """A write-only text stream that keeps only the digest of its bytes."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("ascii"))


def test_lemma400_stream_matches_pinned_sha256():
    sink = Sha256Sink()
    verify_lemma(400, sink=sink)
    assert sink.hash.hexdigest() == LEMMA400_SHA256


def test_theorem4096_stream_matches_pinned_sha256():
    # GF(4096) lists the classes of three odd primes, 13, 5 and 3, in
    # report order as enumerated
    sink = Sha256Sink()
    verify_theorem(prime_powers_up_to(4096), sink=sink)
    assert sink.hash.hexdigest() == THEOREM4096_SHA256
