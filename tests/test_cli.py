"""CLI driver: exit codes, report determinism, cache behavior, golden report."""

import hashlib
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from quatheta.cli import RunConfig, cache_lookup, cache_store, main, run, report_body
from quatheta.fields import field
from quatheta.orders import default_aux_prime, ideal_classes, standard_order
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
    "flag", [["--aux-prime", "4"], ["--hecke", "4"], ["--hecke", "9"], ["--hecke", "2,1"], ["--prime", "0"]]
)
def test_exit_code_composite_prime(flag, capsys):
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "CompositeP"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flag", [["--hecke", "2,,3"], ["--hecke", "x"], ["--bound", "-1"], ["--workers", "0"]]
)
def test_exit_code_invalid_config(flag, capsys):
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", *flag])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == "InvalidConfig"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", [["--field", "x"], ["--frobnicate"]])
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


# sha256 of json.dumps(report_body(run(cfg)), sort_keys=True), recorded before
# lattices and Hom modules moved to integer rows
REPORT_DIGESTS = {
    (1, 67, 50): "2042426df5bc11a50b2625077cd1b828b8984cb72ffcfdbf9ac3e550d4f80fe6",
    (5, 11, 12): "4d889e2aa9c25fca20721d53fdc6e845b4bdac288c23591863b0309eff19b32f",
}


@pytest.mark.parametrize("d,p,bound", sorted(REPORT_DIGESTS))
def test_report_digest(d, p, bound):
    body = report_body(run(RunConfig(d=d, p=p, bound=bound, use_cache=False)))
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(d, p, bound)]


def test_sqrt2_level_eleven_finishes(tmp_path):
    # the trace forms of its class keys are skewed enough that the search
    # does not finish in minutes on an unreduced Gram
    out = tmp_path / "r.json"
    assert main(["--field", "2", "--prime", "11", "--bound", "12", "--no-cache", "--out", str(out)]) == 0
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


def test_cache_cold_then_warm_identical(tmp_path):
    cfg = dict(d=1, p=11, bound=10, cache_dir=str(tmp_path))
    a = report_body(run(RunConfig(**cfg)))
    assert list(tmp_path.glob("classes_*.json"))
    b = report_body(run(RunConfig(**cfg)))
    assert json.dumps(a) == json.dumps(b)


def test_cache_corruption_ignored(tmp_path, capsys):
    cfg = dict(d=1, p=11, bound=10, cache_dir=str(tmp_path))
    a = report_body(run(RunConfig(**cfg)))
    for f in tmp_path.glob("classes_*.json"):
        f.write_text("{broken json")
    b = report_body(run(RunConfig(**cfg)))
    assert json.dumps(a) == json.dumps(b)
    assert "corrupted" in capsys.readouterr().err


def test_cache_with_swapped_weights_rejected(tmp_path, capsys):
    # swapping the weights keeps sum 1/w = mass, so only recomputing them catches it
    cfg = dict(d=1, p=11, bound=12, cache_dir=str(tmp_path))
    run(RunConfig(**cfg))
    (entry,) = tmp_path.glob("classes_*.json")
    payload = json.loads(entry.read_text())
    assert [c["weight"] for c in payload["classes"]] == [2, 3]
    payload["classes"][0]["weight"], payload["classes"][1]["weight"] = 3, 2
    entry.write_text(json.dumps(payload))
    report = run(RunConfig(**cfg))
    assert "stale cache entry" in capsys.readouterr().err
    assert report["timings"]["classes_from_cache"] is False
    assert report_body(report) == json.loads((GOLDEN / "q11_b12.json").read_text())


def test_cache_round_trip_over_quadratic_field(tmp_path):
    # over Q(sqrt d) each cached basis row is followed by omega times it
    cfg = RunConfig(d=5, p=11, bound=6, cache_dir=str(tmp_path))
    cold, warm = run(cfg), run(cfg)
    assert warm["timings"]["classes_from_cache"] is True
    assert report_body(cold) == report_body(warm)


def _wrong_norm(payload):
    # (Q,11): the mass and the weights still hold
    assert payload["classes"][1]["norm"] == [2, 0]
    payload["classes"][1]["norm"] = [7, 0]


def _duplicate_class(payload):
    # (Q,37): classes 1 and 2 both have norm 2 and weight 1, so only an isomorphism test tells them apart
    payload["classes"][2]["basis"] = payload["classes"][1]["basis"]


@pytest.mark.parametrize("p,edit", [(11, _wrong_norm), (37, _duplicate_class)])
def test_cache_with_unverified_class_rejected(tmp_path, capsys, p, edit):
    cfg = dict(d=1, p=p, bound=12, cache_dir=str(tmp_path))
    cold = report_body(run(RunConfig(**cfg)))
    (entry,) = tmp_path.glob("classes_*.json")
    payload = json.loads(entry.read_text())
    edit(payload)
    entry.write_text(json.dumps(payload))
    report = run(RunConfig(**cfg))
    assert "stale cache entry" in capsys.readouterr().err
    assert report["timings"]["classes_from_cache"] is False
    assert report_body(report) == cold


def test_class_search_counts_reported_unless_cached(tmp_path):
    cfg = RunConfig(d=1, p=37, bound=8, cache_dir=str(tmp_path))
    cold, warm = run(cfg), run(cfg)
    assert cold["timings"]["class_search"] == ideal_classes(standard_order(construct(field(1), 37))).search
    assert set(cold["timings"]["class_search"]) == {"candidates", "buckets", "isomorphism_tests", "isomorphism_hits"}
    assert warm["timings"]["classes_from_cache"] is True
    assert warm["timings"]["class_search"] is None
    assert report_body(cold) == report_body(warm)


def test_no_cache_flag(tmp_path):
    cfg = RunConfig(d=1, p=11, bound=10, cache_dir=str(tmp_path), use_cache=False)
    run(cfg)
    assert not list(tmp_path.glob("classes_*.json"))


def test_cache_store_replaces_entry_atomically(tmp_path):
    cfg = RunConfig(d=1, p=11, bound=10, cache_dir=str(tmp_path))
    order = standard_order(construct(field(1), 11))
    classes = ideal_classes(order)
    cache_store(cfg, order, classes)
    cache_store(cfg, order, classes)
    assert len(list(tmp_path.glob("classes_*.json"))) == 1
    assert [f.name for f in tmp_path.iterdir() if not f.name.endswith(".json")] == []
    got = cache_lookup(cfg, order, default_aux_prime(field(1), 11))
    assert got is not None and got.weights == classes.weights


def test_cache_path_that_is_a_file_only_warns(tmp_path, capsys):
    blocker = tmp_path / "q11.json"
    blocker.write_text("not a directory")
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--cache", str(blocker)])
    captured = capsys.readouterr()
    assert rc == 0
    assert report_body(json.loads(captured.out)) == json.loads((GOLDEN / "q11_b12.json").read_text())
    assert "warning: could not write cache entry" in captured.err
    assert "Traceback" not in captured.err
    assert blocker.read_text() == "not a directory"


def test_unwritable_out_path_is_invalid_config(tmp_path, monkeypatch, capsys):
    # found before the pipeline runs: a parent that is a regular file, or a directory as --out
    def fail(cfg):
        raise AssertionError("run must not start when --out cannot be written")

    monkeypatch.setattr("quatheta.cli.run", fail)
    blocker = tmp_path / "q11.json"
    blocker.write_text("")
    for out in (blocker / "x.json", tmp_path):
        rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--no-cache", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["error"] == "InvalidConfig"
        assert captured.err == ""


def test_schema_bump_invalidates(tmp_path):
    cfg = dict(d=1, p=11, bound=10, cache_dir=str(tmp_path))
    run(RunConfig(**cfg))
    for f in tmp_path.glob("classes_*.json"):
        payload = json.loads(f.read_text())
        payload["schema"] = 999
        f.write_text(json.dumps(payload))
    b = report_body(run(RunConfig(**cfg)))  # falls back to recomputation
    assert b["classes"]["count"] == 2


def test_worker_counts_do_not_change_body():
    a = report_body(run(RunConfig(d=1, p=11, bound=12, workers=1)))
    b = report_body(run(RunConfig(d=1, p=11, bound=12, workers=8)))
    assert json.dumps(a) == json.dumps(b)


def test_repeated_hecke_prime_checked_once(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["--field", "1", "--prime", "11", "--bound", "12", "--hecke", "2,2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["hecke"] == [[2, 0]]


def test_module_entry_point():
    # `python -m quatheta` runs the driver and writes nothing to stderr
    cmd = [sys.executable, "-m", "quatheta", "--field", "1", "--prime", "11", "--bound", "12", "--no-cache"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert report_body(json.loads(proc.stdout)) == json.loads((GOLDEN / "q11_b12.json").read_text())


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
