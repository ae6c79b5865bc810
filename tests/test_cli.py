import errno
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading

import pytest

import oracles
from rank3affine.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# a child python that imports the package from this checkout
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_vls_graph6(capsys):
    code, out, err = run(capsys, "construct", "--family", "vls", "--p", "2",
                         "--r", "4", "--ell", "3", "--format", "graph6")
    assert code == 0
    v, edges = oracles.decode_graph6(out.strip().encode("ascii"))
    assert v == 16 and len(edges) == 16 * 5 // 2
    assert "srg(v=16, k=5, lambda=0, mu=2)" in err


def test_construct_paley_bad_residue(capsys):
    code, _, err = run(capsys, "construct", "--family", "paley", "--p", "7", "--r", "1")
    assert code == 2
    assert "3 mod 4" in err


def test_construct_peisert_gf9_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "peisert", "--p", "3",
                       "--r", "2", "--variant", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["srg"] == {"v": 9, "k": 4, "lambda": 1, "mu": 2}
    assert doc["connection_set"]["indices"] == [0, 1, 4, 5]
    field_desc = doc["connection_set"]["field"]
    assert field_desc["p"] == 3 and field_desc["r"] == 2
    v, edges = oracles.decode_graph6(doc["graph6"].encode("ascii"))
    assert v == 9 and len(edges) == 18


def test_construct_vls_requires_ell(capsys):
    code, _, err = run(capsys, "construct", "--family", "vls", "--p", "2", "--r", "4")
    assert code == 2
    assert "--ell" in err


STRAY_CONSTRUCT_FLAGS = [
    (["--family", "paley", "--p", "13", "--r", "1", "--ell", "3"],
     "--ell does not apply to --family paley"),
    (["--family", "peisert", "--p", "7", "--r", "2", "--ell", "5"],
     "--ell does not apply to --family peisert"),
    (["--family", "vls", "--p", "2", "--r", "4", "--ell", "3",
      "--variant", "3"],
     "--variant does not apply to --family vls"),
    (["--family", "paley", "--p", "13", "--r", "1", "--variant", "3"],
     "--variant does not apply to --family paley"),
    (["--family", "paley", "--p", "13", "--r", "1", "--allow-directed"],
     "--allow-directed does not apply to --family paley"),
    (["--family", "peisert", "--p", "3", "--r", "2", "--allow-directed"],
     "--allow-directed does not apply to --family peisert"),
]


@pytest.mark.parametrize("args, message", STRAY_CONSTRUCT_FLAGS,
                         ids=[" ".join(args) for args, _ in
                              STRAY_CONSTRUCT_FLAGS])
def test_construct_flag_of_another_family_is_usage_error(
        capsys, monkeypatch, args, message):
    import rank3affine.fields as fields

    def no_field(*_args, **_kwargs):
        raise AssertionError("the field was built")

    monkeypatch.setattr(fields, "build_field", no_field)
    code, out, err = run(capsys, "construct", *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_construct_edges_format(capsys):
    code, out, _ = run(capsys, "construct", "--family", "paley", "--p", "5",
                       "--r", "1", "--format", "edges")
    assert code == 0
    assert out == "0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_construct_text_format(capsys):
    code, out, _ = run(capsys, "construct", "--family", "paley", "--p", "13",
                       "--r", "1", "--format", "text")
    assert code == 0
    assert "GF(13)" in out and "srg(v=13, k=6, lambda=2, mu=3)" in out


def test_construct_directed_escape_hatch(capsys):
    code, out, _ = run(capsys, "construct", "--family", "vls", "--p", "7",
                       "--r", "1", "--ell", "2", "--allow-directed")
    assert code == 0
    doc = json.loads(out)
    assert doc["srg"] is None
    assert len(doc["arcs"]) == 21


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_gf9(capsys):
    code, out, err = run(capsys, "classify", "--p", "3", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["unmatched"] == 0 and len(doc["partitions"]) == 3
    assert doc["families"] == ["paley", "peisert(1)", "peisert(3)"]


def test_classify_degenerate_q2(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2", "--r", "1")
    assert code == 0
    assert json.loads(out)["partitions"] == []


def test_classify_gf16_families(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2", "--r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["families"] == ["generalized-paley(3,2)", "generalized-paley(5,1)"]
    assert doc["unmatched"] == 0


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--r", "2",
                       "--format", "text")
    assert code == 0
    assert "unmatched 0" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_lemma_small(capsys, tmp_path):
    report = tmp_path / "lemma.json"
    code, _, err = run(capsys, "verify", "--lemma", "--n-max", "20",
                       "--output", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["violation_count"] == 0
    assert "0 violations" in err


def test_verify_theorem_explicit_fields(capsys, tmp_path):
    report = tmp_path / "thm.json"
    code, _, err = run(capsys, "verify", "--theorem", "--q", "9", "--q", "49",
                       "--output", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["unmatched_total"] == 0 and len(doc["fields"]) == 2


def test_verify_requires_exactly_one_mode(capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "--lemma", "--theorem", "--n-max", "5")[0] == 2
    assert run(capsys, "verify", "--lemma")[0] == 2  # missing --n-max


VACUOUS_BOUNDS = [
    ("--theorem", "--q-max", "0"),
    ("--theorem", "--q-max", "1"),
    ("--theorem", "--q-max", "-5"),
    ("--lemma", "--n-max", "1"),
    ("--lemma", "--n-max", "0"),
]


@pytest.mark.parametrize("mode, flag, value", VACUOUS_BOUNDS)
def test_vacuous_sweep_bound_is_usage_error(capsys, mode, flag, value):
    code, out, err = run(capsys, "verify", mode, flag, value)
    assert code == 2 and out == ""
    assert f"ModulusOutOfRange: {flag} {value} checks nothing" in err


STRAY_FLAGS = [
    (["--lemma", "--n-max", "3", "--q", "9"], "--q does not apply to --lemma"),
    (["--lemma", "--n-max", "3", "--q-max", "0"],
     "--q-max does not apply to --lemma"),
    (["--lemma", "--n-max", "3", "--q", "9", "--q-max", "0"],
     "--q does not apply to --lemma"),
    (["--theorem", "--q", "9", "--n-max", "0"],
     "--n-max does not apply to --theorem"),
    (["--theorem", "--q", "9", "--classes"],
     "--classes does not apply to --theorem"),
    (["--theorem", "--q-max", "16", "--n-max", "40", "--classes"],
     "--n-max does not apply to --theorem"),
    (["--theorem", "--q", "9", "--q-max", "16"],
     "--q-max does not apply beside --q"),
]


@pytest.mark.parametrize("args, message", STRAY_FLAGS,
                         ids=[" ".join(args) for args, _ in STRAY_FLAGS])
def test_flag_of_the_other_mode_is_usage_error(capsys, args, message):
    code, out, err = run(capsys, "verify", *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_lemma_cap_guard(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "--n-max", "1000000000")
    assert code == 2
    assert "CapExceeded" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_config_byte_identical_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["classify", "--p", "2", "--r", "4",
                     "--output", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.txt", tmp_path / "d.txt"
    for path in (c, d):
        assert main(["construct", "--family", "paley", "--p", "13", "--r", "1",
                     "--output", str(path)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()


# ---------------------------------------------------------------------------
# bad input and partial reports
# ---------------------------------------------------------------------------

def test_verify_theorem_non_prime_power_is_usage_error(capsys):
    for q in ("6", "1"):
        code, out, err = run(capsys, "verify", "--theorem", "--q", "9", "--q", q)
        assert code == 2
        assert "NotPrimePower" in err
        assert out == ""


def test_classify_cap_checked_before_building(capsys, monkeypatch):
    import rank3affine.fields as fields

    def no_build(*args, **kwargs):
        raise AssertionError("build_field called before the cap check")

    monkeypatch.setattr(fields, "build_field", no_build)
    for r in ("16", "1000000000"):
        code, _, err = run(capsys, "classify", "--p", "2", "--r", r)
        assert code == 2
        assert "CapExceeded" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "paley", "--p", "3", "--r", "30000000"],
    ["construct", "--family", "paley",
     "--p", "1000000000000000000000000000057", "--r", "1"],
    ["verify", "--theorem", "--q", "1000000000000000000000000007"],
    ["verify", "--theorem", "--cap", "1000000000000000000000000000000",
     "--q", "1000000000000000000000000007"],
], ids=["huge-r", "huge-p", "huge-q", "huge-q-under-huge-cap"])
def test_huge_input_is_capped_before_any_number_theory(argv):
    # p^r, a primality test of p or a factorisation of q would not end
    done = subprocess.run([sys.executable, "-m", "rank3affine", *argv],
                          env=SRC_ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: CapExceeded: ")


@pytest.mark.parametrize("ell", ["1000000000000000003", "1000000000000000000"])
def test_huge_ell_fails_the_degree_condition_at_once(ell):
    # ell > q cannot meet (ell - 1) | r; a primality test of ell or the
    # factorisation of ell - 1 would not end
    done = subprocess.run(
        [sys.executable, "-m", "rank3affine", "construct", "--family", "vls",
         "--p", "3", "--r", "4", "--ell", ell],
        env=SRC_ENV, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: DegreeCondition: (ell - 1) = {int(ell) - 1} "
                           f"does not divide r = 4\n")


def test_huge_p_with_degree_zero_is_not_tested_for_primality():
    # the cap bounds p only for r >= 1; for r < 1 a p over the cap gets the
    # degree error without a primality test of p, which would not end
    done = subprocess.run(
        [sys.executable, "-m", "rank3affine", "construct", "--family", "paley",
         "--p", "1000000000000000000000000000057", "--r", "0"],
        env=SRC_ENV, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: DegreeOutOfRange: extension degree r = 0 "
                           "must be >= 1\n")


def test_huge_q_max_fails_on_the_first_prime_power_over_the_cap():
    # listing every prime power up to 10^11 would not end; the sweep stops at
    # the same first q over the cap as a --q-max just above it
    errors = []
    for q_max in ("9000", "100000000000"):
        done = subprocess.run(
            [sys.executable, "-m", "rank3affine", "verify", "--theorem",
             "--q-max", q_max],
            env=SRC_ENV, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        errors.append(done.stderr)
    assert errors == ["error: CapExceeded: q = 4099 exceeds the "
                      "classification cap 4096\n"] * 2


def test_cap_failures_leave_no_report(capsys, tmp_path):
    f, g = tmp_path / "f", tmp_path / "g"
    assert run(capsys, "verify", "--theorem", "--q", "5", "--cap", "3",
               "--output", str(f))[0] == 2
    assert run(capsys, "verify", "--lemma", "--n-max", "5", "--cap", "3",
               "--output", str(g))[0] == 2
    for mode, flag, value in VACUOUS_BOUNDS:
        assert run(capsys, "verify", mode, flag, value,
                   "--output", str(f))[0] == 2
    for args, _ in STRAY_FLAGS:
        assert run(capsys, "verify", *args, "--output", str(f))[0] == 2
    for args, _ in STRAY_CONSTRUCT_FLAGS:
        assert run(capsys, "construct", *args, "--output", str(f))[0] == 2
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_report_keeps_previous_file(capsys, tmp_path, monkeypatch):
    import rank3affine.classify as classify
    from rank3affine.errors import CapExceeded

    real = classify.classify_field

    def fail_on_49(field, cap):
        if field.q == 49:
            raise CapExceeded("injected")
        return real(field, cap=cap)

    monkeypatch.setattr(classify, "classify_field", fail_on_49)
    report = tmp_path / "thm.json"
    report.write_text("previous\n")
    code, _, err = run(capsys, "verify", "--theorem", "--q", "9", "--q", "49",
                       "--output", str(report))
    assert code == 2 and "injected" in err
    assert report.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [report]


def test_failing_verdict_still_writes_report(capsys, tmp_path, monkeypatch):
    import rank3affine.classify as classify
    from rank3affine.families import Unmatched

    monkeypatch.setattr(classify, "_match_family",
                        lambda field, case: (Unmatched(), 0))
    report = tmp_path / "thm.json"
    code, _, _ = run(capsys, "verify", "--theorem", "--q", "9",
                     "--output", str(report))
    assert code == 1
    doc = json.loads(report.read_text())
    assert doc["unmatched_total"] == 3 and doc["all_matched"] is False
    assert list(tmp_path.iterdir()) == [report]


def assert_output_not_writable(capsys, target):
    code, out, err = run(capsys, "verify", "--lemma", "--n-max", "5",
                         "--output", str(target))
    assert code == 2 and out == ""
    assert f"OutputNotWritable: cannot write {target}:" in err
    assert "Traceback" not in err and ".tmp" not in err


def test_output_in_missing_directory_is_usage_error(capsys, tmp_path):
    assert_output_not_writable(capsys, tmp_path / "missing" / "x.json")
    assert list(tmp_path.iterdir()) == []


def test_output_onto_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    (target / "keep").write_text("kept\n")
    assert_output_not_writable(capsys, target)
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == [target / "keep"]
    assert (target / "keep").read_text() == "kept\n"


def _read_fifo(fifo, keep):
    # a reader on a thread: it reads the FIFO to its end, or with keep
    # False leaves as soon as a writer has opened it
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read() if keep else b"")

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread, got


def test_output_onto_fifo_writes_through_it(capsys, tmp_path):
    # a FIFO, like a device or /dev/stdout, is written in place and stays
    # what it is; it is not replaced by a regular file
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.json"
    os.mkfifo(fifo)
    args = ("verify", "--lemma", "--n-max", "3", "--classes")
    thread, got = _read_fifo(fifo, keep=True)
    assert run(capsys, *args, "--output", str(fifo))[0] == 0
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert run(capsys, *args, "--output", str(plain))[0] == 0
    assert got == [plain.read_bytes()]
    assert sorted(tmp_path.iterdir()) == [fifo, plain]


def test_output_onto_closed_fifo_is_usage_error(capsys, tmp_path):
    # the reader leaves without reading; the report outgrows the pipe's
    # buffer, so a write fails with EPIPE whatever the timing
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    thread, _ = _read_fifo(fifo, keep=False)
    code, out, err = run(capsys, "verify", "--lemma", "--n-max", "100",
                         "--output", str(fifo))
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert code == 2 and out == ""
    assert err == (f"error: OutputNotWritable: cannot write {fifo}: "
                   f"{os.strerror(errno.EPIPE)}\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_output_through_symlink_writes_its_target(capsys, tmp_path):
    # a link to a regular file stays a link, and the file it names, in
    # another directory, is replaced by the report
    data, link, plain = tmp_path / "data", tmp_path / "link.json", \
        tmp_path / "plain.json"
    data.mkdir()
    target = data / "report.json"
    target.write_text("old\n")
    link.symlink_to(target)
    args = ("verify", "--lemma", "--n-max", "5")
    assert run(capsys, *args, "--output", str(link))[0] == 0
    assert run(capsys, *args, "--output", str(plain))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(tmp_path.iterdir()) == [data, link, plain]
    assert list(data.iterdir()) == [target]


def test_output_onto_dev_stdout_pipe_writes_through_it(tmp_path):
    # /dev/stdout on a pipe is a link to a FIFO that resolves to no path,
    # so it is written in place, not resolved
    args = ["verify", "--lemma", "--n-max", "5"]
    piped = subprocess.run(
        [sys.executable, "-m", "rank3affine", *args, "--output", "/dev/stdout"],
        env=SRC_ENV, capture_output=True, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "rank3affine", *args],
                           env=SRC_ENV, capture_output=True, timeout=120)
    assert piped.returncode == plain.returncode == 0, piped.stderr
    assert piped.stdout == plain.stdout != b""


def test_report_file_mode_matches_plain_open(capsys, tmp_path):
    report, plain = tmp_path / "thm.json", tmp_path / "plain"
    plain.write_text("")
    assert run(capsys, "verify", "--theorem", "--q", "9",
               "--output", str(report))[0] == 0
    assert report.stat().st_mode == plain.stat().st_mode


def test_closed_stdout_pipe_is_usage_error(tmp_path):
    # the reader leaves after 100 bytes, as `| head -c 100` does
    with open(tmp_path / "stderr", "w+") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rank3affine", "verify", "--lemma",
             "--n-max", "200"],
            env=SRC_ENV, stdout=subprocess.PIPE, stderr=stderr)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        stderr.seek(0)
        err = stderr.read()
    assert err == (f"error: OutputNotWritable: cannot write stdout: "
                   f"{os.strerror(errno.EPIPE)}\n")


def test_full_disk_mid_report_is_usage_error(capsys, tmp_path, monkeypatch):
    import rank3affine.cli as cli

    written = []

    class FullDisk:
        """The report file, on a disk with room for 1000 characters."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.room = 1000

        def write(self, s):
            if len(s) > self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.room -= len(s)
            written.append(s)
            return self.fh.write(s)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    target = tmp_path / "lemma.json"
    code, out, err = run(capsys, "verify", "--lemma", "--n-max", "50",
                         "--output", str(target))
    assert code == 2 and out == "" and written
    assert err == (f"error: OutputNotWritable: cannot write {target}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# numpy, dataclasses and inspect are never loaded
# ---------------------------------------------------------------------------

CONSTRUCT_PALEY13 = ["construct", "--family", "paley", "--p", "13", "--r", "1"]


@pytest.mark.parametrize("argv", [
    None,
    ["verify", "--lemma", "--n-max", "5"],
    ["verify", "--theorem", "--q", "9"],
    ["classify", "--p", "3", "--r", "2"],
    CONSTRUCT_PALEY13,
    CONSTRUCT_PALEY13 + ["--format", "graph6"],
    CONSTRUCT_PALEY13 + ["--format", "edges"],
    CONSTRUCT_PALEY13 + ["--format", "text"],
    ["construct", "--family", "vls", "--p", "7", "--r", "1", "--ell", "2",
     "--allow-directed"],
], ids=["import", "verify-lemma", "verify-theorem", "classify", "construct",
        "construct-graph6", "construct-edges", "construct-text",
        "construct-arcs"])
def test_numpy_never_imported(argv, tmp_path):
    lines = ["import sys", "import rank3affine"]
    if argv is not None:
        argv = argv + ["--output", str(tmp_path / "report")]
        lines += ["from rank3affine.cli import main",
                  f"if main({argv!r}) != 0: sys.exit('exit code not 0')"]
    # dataclasses alone, with the inspect it imports, costs every command
    # several milliseconds of start-up
    lines.append("print(*(name in sys.modules for name in "
                 "('numpy', 'dataclasses', 'inspect')))")
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * 3


LAZY_MODULES = ("fields", "families", "graphs", "znaction", "classify")


@pytest.mark.parametrize("argv, idle", [
    (None, LAZY_MODULES),
    (["verify", "--lemma", "--n-max", "5"],
     ("fields", "families", "graphs", "classify")),
    (["verify", "--theorem", "--q", "9"], ("graphs",)),
    (CONSTRUCT_PALEY13, ("znaction", "classify")),
], ids=["import", "verify-lemma", "verify-theorem", "construct"])
def test_command_runs_only_the_modules_it_calls(argv, idle, tmp_path):
    # the lazy modules are in sys.modules from `import rank3affine` on, and
    # each runs on its first attribute access; object.__getattribute__
    # reads a module's dict without that access, and one that never ran
    # holds no name of its own
    lines = ["import sys", "import rank3affine"]
    if argv is not None:
        argv = argv + ["--output", str(tmp_path / "report")]
        # not an assert, which python -O would strip with the call
        lines += ["from rank3affine.cli import main",
                  f"if main({argv!r}) != 0: sys.exit('exit code not 0')"]
    lines += [f"for name in {LAZY_MODULES!r}:",
              "    module = sys.modules['rank3affine.' + name]",
              "    names = object.__getattribute__(module, '__dict__')",
              "    if any(not key.startswith('__') for key in names):",
              "        print(name)"]
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [m for m in LAZY_MODULES if m not in idle]


def test_first_access_from_two_threads_waits_for_the_load():
    # one thread holds fields mid-load while a second reads a name from it;
    # the second must wait for the load, not see a half-run module
    script = "\n".join([
        "import sys, threading, time",
        "import rank3affine",
        "module = sys.modules['rank3affine.fields']",
        "loader = object.__getattribute__(module, '__spec__').loader",
        "run, started = loader.exec_module, threading.Event()",
        "def slow_run(m):",
        "    started.set()",
        "    time.sleep(0.3)",
        "    run(m)",
        "loader.exec_module = slow_run",
        "got = []",
        "first = threading.Thread(",
        "    target=lambda: got.append(rank3affine.fields.FiniteField))",
        "first.start()",
        "started.wait()",
        "print(rank3affine.build_field(3, 2).q)",
        "first.join()",
        "print(got == [rank3affine.FiniteField])",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "9\nTrue\n"
