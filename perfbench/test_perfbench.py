"""Self-tests of the benchmark: the correctness gate, the tracer's counts
against the values recorded at the commit that introduced the benchmark, and
the tracer's handling of functions a later change may remove.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (puts src on the path)
import quatheta  # noqa: E402
from gate import Gate, body_digest, eichler_class_data, report_body  # noqa: E402
from tracing import Tracer, layer_metrics, span_totals, stage_disagreements  # noqa: E402
from workloads import PREFLIGHT, WORKLOADS, Job, jobs  # noqa: E402


cli, orders, theta_mod, lattices, brandt_mod = (
    importlib.import_module(f"quatheta.{m}") for m in ("cli", "orders", "theta", "lattices", "brandt")
)


@pytest.fixture(scope="module")
def gate():
    return Gate.load(worker.ROOT)


def _perturbed(report):
    bad = copy.deepcopy(report)
    bad["theta"]["tables"][-1]["coefficients"][-1]["count"] += 2
    return bad


def test_preflight_passes_and_perturbed_body_counts_as_failed(gate, monkeypatch):
    runner = worker.Runner(gate)
    runner.run_pass([PREFLIGHT])
    assert (runner.attempted, runner.failed) == (1, 0)
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: _perturbed(real_run(cfg)))
    runner.run_pass([PREFLIGHT])
    assert (runner.attempted, runner.failed) == (2, 1)


def test_digest_mismatch_and_worker_count_check(gate):
    report = worker.execute(PREFLIGHT)
    w2 = Job("run", 1, 11, 12, workers=2)
    local = Gate(gate.golden, {w2.key: body_digest(report_body(report))})
    assert local.check(w2, report) == []
    assert local.check(w2, _perturbed(report)) == ["body differs from the workers=1 body"]
    assert "no recorded digest" in local.check(Job("run", 1, 11, 10), report)[0]


def test_op_that_raises_counts_as_failed(gate, monkeypatch):
    def boom(cfg):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli, "run", boom)
    runner = worker.Runner(gate)
    runner.run_pass([PREFLIGHT, PREFLIGHT])
    assert (runner.attempted, runner.failed) == (2, 2)


def test_eichler_data_matches_golden(gate):
    count, weights, mass = eichler_class_data(11)
    assert count == gate.golden["classes"]["count"]
    assert weights == sorted(gate.golden["classes"]["weights"])
    assert str(mass) == gate.golden["mass"]


def test_jobs_cover_the_pool_in_seed_order():
    for name, pool in WORKLOADS.items():
        assert sorted(jobs(name, 7), key=str) == sorted(pool, key=str)
        assert jobs(name, 7) == jobs(name, 7)
    assert [j.key for j in jobs("theta_q", 3)] == [j.key for j in jobs("theta_q_w2", 3)]


def _traced(job):
    with Tracer() as tracer:
        out = worker.execute(job)
        names = set(tracer.names)
        spans, counts = list(tracer.spans), tracer.counts.copy()
    reports = [out] if job.kind == "run" else []
    return names, spans, counts, reports


def test_seed_counts_theta_q67():
    names, spans, counts, reports = _traced(Job("run", 1, 67, 50))
    m = layer_metrics(names, spans, counts, reports)
    assert m["shortvec.short_vectors.calls"][0] == 72
    assert m["shortvec.vectors"][0] == 13634
    assert m["theta.theta.calls"][0] == 36
    assert m["quadmod.hom_module.calls"][0] == 72
    assert stage_disagreements(spans, reports, 0.05) == []


def test_seed_counts_classes_q227():
    names, spans, counts, reports = _traced(Job("classes", 1, 227))
    m = layer_metrics(names, spans, counts, reports)
    assert m["orders.is_isomorphic.calls"][0] == 368
    assert m["orders.is_isomorphic.hits"][0] == 26
    assert m["lattices.from_generators.calls"][0] == 963
    assert m["orders.new_class_ratio"][0] == 19 / m["orders.candidates"][0]


def test_tracer_restores_every_binding():
    before = (theta_mod.short_vectors, orders.short_vectors, quatheta.run)
    method = vars(lattices.QuaternionLattice)["from_generators"]
    with Tracer():
        assert theta_mod.short_vectors is orders.short_vectors
        assert theta_mod.short_vectors is not before[0]
    assert (theta_mod.short_vectors, orders.short_vectors, quatheta.run) == before
    assert vars(lattices.QuaternionLattice)["from_generators"] is method


def test_missing_function_leaves_its_metric_out(monkeypatch):
    monkeypatch.delattr(orders, "is_isomorphic")
    monkeypatch.delattr(brandt_mod.BrandtMatrix, "charpoly")
    with Tracer() as tracer:
        names = set(tracer.names)
    m = layer_metrics(names, [], tracer.counts, [])
    assert "orders.is_isomorphic.calls" not in m
    assert "orders.iso_hit_ratio" not in m
    assert "brandt.charpoly_s" not in m
    assert m["orders.neighbors.calls"] == (0, "count")


def test_self_time_subtracts_child_spans():
    spans = [
        ("theta.theta", 0.0, 10.0, -1, 0),
        ("shortvec.short_vectors", 1.0, 4.0, 0, 0),
        ("shortvec.short_vectors", 5.0, 9.0, 0, 0),
        ("linalg.det_generic", 11.0, 13.0, -1, 0),
        ("linalg.det_generic", 11.5, 12.0, 3, 0),
    ]
    calls, seconds, self_seconds = span_totals(spans)
    assert self_seconds["theta.theta"] == 3.0
    assert seconds["shortvec.short_vectors"] == 7.0
    assert (calls["linalg.det_generic"], seconds["linalg.det_generic"]) == (2, 2.0)
    assert self_seconds["linalg.det_generic"] == 2.0
