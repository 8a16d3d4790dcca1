"""CLI driver: exit codes, report determinism, golden report."""

import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import quatheta.brandt
from quatheta import cli
from quatheta.cli import RunConfig, main, run, report_body
from quatheta.fields import field
from quatheta.orders import ideal_classes, standard_order
from quatheta.quaternions import construct

GOLDEN = Path(__file__).parent / "golden"


def test_run_eleven_matches_golden():
    got = report_body(run(RunConfig(d=1, p=11, bound=12)))
    want = json.loads((GOLDEN / "q11_b12.json").read_text())
    assert got == want


def test_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["classes"]["count"] == 2
    assert report["span"]["rank"] == 1
    assert report["all_checks_pass"] is True


def test_exit_code_ramified(capsys):
    rc = main(["--field", "5", "--prime", "5", "--bound", "8"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "RamifiedPrime"


def test_exit_code_level_one_impossible(capsys):
    rc = main(["--field", "5", "--prime", "11", "--mode", "level_one", "--bound", "8"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "LevelOneImpossible"


@pytest.mark.parametrize(
    "flag",
    [
        ["--aux-prime", "4"],
        ["--hecke", "4"],
        ["--hecke", "9"],
        ["--hecke", "2,1"],
        ["--prime", "0"],
        ["--aux-prime", "1"],
        ["--aux-prime", "-3"],
    ],
)
def test_exit_code_composite_prime(flag, capsys):
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "CompositeP"
    assert captured.err == ""


@pytest.mark.parametrize(
    "flag",
    [
        ["--aux-prime", "11"],  # the level
        ["--field", "5", "--aux-prime", "5"],  # ramified in the base field
    ],
)
def test_exit_code_bad_aux_prime(flag, capsys):
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "BadPrime"
    assert captured.err == ""


@pytest.mark.parametrize("d", [1, 5])
def test_prime_two_exits_zero(d, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--field", str(d), "--prime", "2", "--bound", "10", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["all_checks_pass"] is True


@pytest.mark.parametrize(
    "flag",
    [
        ["--hecke", "2,,3"],
        ["--hecke", "x"],
        ["--bound", "-1"],
        ["--workers", "0"],
        ["--workers", "2"],
        # the unit index 1 has trace [L:Q], so B(1) needs a bound of at least that
        ["--bound", "0"],
        ["--field", "5", "--bound", "1"],
    ],
)
def test_exit_code_invalid_config(flag, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("class enumeration must not start for an invalid configuration")

    monkeypatch.setattr("quatheta.cli.ideal_classes", fail)
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "InvalidConfig"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", [["--field", "x"], ["--frobnicate"], ["--cache", "d"], ["--no-cache"]])
def test_malformed_command_line_is_invalid_config(flag, capsys):
    # argparse would print its usage on stderr and exit 2
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "InvalidConfig"
    assert captured.err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--bound" in capsys.readouterr().out


def test_internal_failure_is_not_invalid_config(monkeypatch, capsys):
    # an invariant failing inside the pipeline is reported as such, not blamed on the input
    def fail(cfg):
        raise ArithmeticError("invariant broken")

    monkeypatch.setattr("quatheta.cli.run", fail)
    rc = main(["--field", "1", "--prime", "11", "--bound", "12"])
    assert rc == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"] == "InternalError"
    assert "invariant broken" in payload["message"]
    assert "Traceback" not in captured.err


def test_hecke_prime_dividing_level_is_bad_prime(capsys):
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--hecke", "11"])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "BadPrime"
    assert "Traceback" not in captured.err


def test_dropped_hecke_prime_is_reported():
    r = run(RunConfig(d=1, p=11, bound=12, hecke_primes=(2, 13)))
    assert r["config"]["hecke"] == [[2, 0]]
    assert r["timings"]["hecke_dropped"] == [{"prime": [13, 0], "reason": "index trace 13 > bound 12"}]
    assert run(RunConfig(d=1, p=11, bound=12))["timings"]["hecke_dropped"] == []


# sha256 of json.dumps(report_body(run(cfg)), sort_keys=True), keyed by
# (d, p, mode, bound).  The first two were recorded before lattices and Hom
# modules moved to integer rows, the others before quaternion elements left
# the program; they cover saturation, level one and the fields Q(sqrt2),
# Q(sqrt13) and Q(sqrt17).
REPORT_DIGESTS = {
    (1, 67, "level_p", 50): "2042426df5bc11a50b2625077cd1b828b8984cb72ffcfdbf9ac3e550d4f80fe6",
    (5, 11, "level_p", 12): "4d889e2aa9c25fca20721d53fdc6e845b4bdac288c23591863b0309eff19b32f",
    (5, 2, "level_one", 10): "22d42488464e6269e57608d07cc8008925c86d2a487789ba82fbaa3c62564dba",
    (2, 3, "level_one", 10): "c34871a9153e5e54be17ca67337e6a177f5545e87d7ceec61d6454bdeefc55ff",
    (2, 7, "level_p", 12): "d2a117133d8564fa11c030244033796432f79e5ea7f0eaab2f75dfbb9ff0166f",
    (13, 3, "level_p", 12): "4903863a7e3efe3ad6cdd6351c4e5a8b9f50767e03cc25716f498fa36be44e1d",
    (17, 5, "level_p", 12): "3e8bbd5c9634037e6499fbdadfc5da21c197cb399c01d270d295676c356d86a5",
    (1, 73, "level_p", 50): "4c3cf342dcbee81c08402702415055e4e0a664c56ddd0060e2162c1785c63efc",
    (1, 37, "level_p", 30): "d9b6afda54b8a1090430ddf922ca67e166d325c8221628b75fdefe0f94bc76de",
}


@pytest.mark.parametrize(
    "d,p,mode,bound",
    # the default mode is left out of the test id
    [pytest.param(*key, id="-".join(str(k) for k in key if k != "level_p")) for key in sorted(REPORT_DIGESTS)],
)
def test_report_digest(d, p, mode, bound, monkeypatch):
    # every Brandt matrix of the run, for the checks, the blocks and the
    # Hilbert checks alike, comes from one table built once
    build, builds = cli.brandt_table, []

    def counted(*args):
        builds.append(args)
        return build(*args)

    for module in (cli, quatheta.brandt):
        monkeypatch.setattr(module, "brandt_table", counted)
    body = report_body(run(RunConfig(d=d, p=p, mode=mode, bound=bound)))
    assert len(builds) == 1
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(d, p, mode, bound)]


def test_sqrt2_level_eleven_finishes(tmp_path):
    # the trace forms of its class keys are skewed enough that the search
    # does not finish in minutes on an unreduced Gram
    out = tmp_path / "r.json"
    assert main(["--field", "2", "--prime", "11", "--bound", "12", "--out", str(out)]) == 0
    body = report_body(json.loads(out.read_text()))
    assert body["all_checks_pass"] is True
    assert body["classes"]["count"] == 7
    assert sum(Fraction(1, w) for w in body["classes"]["weights"]) == Fraction(body["mass"]) == Fraction(61, 12)
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == "f7377e8b7d1677a33d42d3f9c60db45243f27d44d9245c7936ec301a00346389"


def test_report_tables_are_shared_while_a_report_holds_them():
    # a caller that keeps many reports holds one object per distinct value
    a = run(RunConfig(d=1, p=11, bound=12))
    values = [e for m in a["hom_modules"] for row in m["gram"] for e in row]
    assert len({id(e) for e in values}) == len({tuple(e) for e in values})
    entries = [e for t in a["theta"]["tables"] for e in t["coefficients"]]
    assert len({id(e) for e in entries}) == len({(id(e["nu"]), e["count"]) for e in entries})
    # a second report of the same configuration holds the same tables, and
    # one of another bound its own
    b = run(RunConfig(d=1, p=11, bound=12))
    assert b["theta"]["tables"] is a["theta"]["tables"]
    assert b["hom_modules"] is a["hom_modules"]
    assert b["brandt"] is a["brandt"] and b["hecke_checks"] is a["hecke_checks"]
    c = run(RunConfig(d=1, p=11, bound=10))
    assert c["theta"]["tables"] is not a["theta"]["tables"]
    assert c["hom_modules"] is a["hom_modules"]
    # a table lives as long as some report holds it
    tables = weakref.ref(a["theta"]["tables"])
    del a, b
    assert tables() is None
    assert json.dumps(report_body(c)) == json.dumps(report_body(run(RunConfig(d=1, p=11, bound=10))))


def test_class_search_counts_reported():
    want = ideal_classes(standard_order(construct(field(1), 37))).search
    assert set(want) == {"candidates", "buckets", "isomorphism_tests", "isomorphism_hits"}
    for _ in range(2):
        assert run(RunConfig(d=1, p=37, bound=8))["timings"]["class_search"] == want


def test_unwritable_out_path_is_invalid_config(tmp_path, monkeypatch, capsys):
    # found before the pipeline runs: a parent that is a regular file, or a directory as --out
    def fail(cfg):
        raise AssertionError("run must not start when --out cannot be written")

    monkeypatch.setattr("quatheta.cli.run", fail)
    blocker = tmp_path / "q11.json"
    blocker.write_text("")
    for out in (blocker / "x.json", tmp_path):
        rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["error"] == "InvalidConfig"
        assert captured.err == ""


def test_repeated_hecke_prime_checked_once(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--hecke", "2,2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["hecke"] == [[2, 0]]


def test_module_entry_point():
    # `python -m quatheta` runs the driver and writes nothing to stderr
    cmd = [sys.executable, "-m", "quatheta", "--field", "1", "--prime", "11", "--bound", "12"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert report_body(json.loads(proc.stdout)) == json.loads((GOLDEN / "q11_b12.json").read_text())


def test_huge_bound_fails_before_the_search_allocates():
    # the lattice-point bound refuses the 2 x 10^5 ball before any entry is built
    cmd = [sys.executable, "-m", "quatheta", "--field", "1", "--prime", "11", "--bound", "100000"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"] == "BoundTooLarge"


def test_import_leaves_sympy_unloaded():
    code = "import sys, quatheta; print('sympy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_serial_import_leaves_pool_modules_unloaded():
    code = "import sys, quatheta; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_explicit_flags():
    r = run(RunConfig(d=1, p=11, bound=12, aux_prime=3, hecke_primes=(2, 3)))
    assert r["config"]["aux_prime"] == [3, 0]
    assert r["config"]["hecke"] == [[2, 0], [3, 0]]
    assert r["all_checks_pass"]


def test_run_quadratic_field_pipeline():
    r = run(RunConfig(d=5, p=11, bound=10))
    assert r["classes"]["count"] == 4
    assert r["classes"]["weights"] == [2, 3, 2, 3]
    assert r["span"]["rank"] == 3
    assert r["hilbert_checks"] is not None
    assert all(c["ok"] for c in r["hilbert_checks"])
    assert r["all_checks_pass"]


def test_run_level_one_pipeline():
    r = run(RunConfig(d=5, p=2, mode="level_one", bound=8))
    assert r["classes"]["count"] == 1
    assert r["classes"]["weights"] == [60]
    assert r["mass"] == "1/60"
    assert r["order"]["reduced_discriminant"] == [1, 0]
    assert r["all_checks_pass"]
