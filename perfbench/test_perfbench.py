"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ltpdr import cli, engine, simplex  # noqa: E402
from ltpdr.engine import PDRAnswer, RunStats, Verdict  # noqa: E402
from ltpdr.lattice import KTSequence  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    first = workloads.build(name, 3, ROOT)
    assert first == workloads.build(name, 3, ROOT)
    assert run.inputs_digest(first) != run.inputs_digest(workloads.build(name, 4, ROOT))


def _models(rng):
    yield workloads.kripke_text, cli.parse_kripke, workloads.chain(rng, 9)
    yield workloads.kripke_text, cli.parse_kripke, workloads.ring(rng, 7)
    yield workloads.kripke_text, cli.parse_kripke, workloads.layered(rng, 3, 4, True)
    for _ in range(20):
        yield workloads.kripke_text, cli.parse_kripke, workloads.random_kripke(rng)
        M = workloads.relabel_mdp(rng, workloads.random_mdp(rng))
        yield workloads.mdp_text, cli.parse_mdp, replace(M, threshold=rng.random())
        R = workloads.random_mrm(rng)
        yield workloads.mrm_text, cli.parse_mrm, replace(R, threshold=rng.random() * 9)
    yield workloads.mdp_text, cli.parse_mdp, workloads.grid_mdp(rng, 3)
    yield workloads.mrm_text, cli.parse_mrm, workloads.reward_chain(rng, 4)


def test_serialise_parse_round_trip():
    for text, parse, model in _models(random.Random(5)):
        assert parse(text(model)) == model


def test_mrm_random_has_the_same_instances_for_every_seed():
    first, other = (workloads.build("mrm-random", seed, ROOT) for seed in (3, 4))
    assert first != other and set(first) == set(other)


def test_relabelling_keeps_the_oracle_value():
    rng = random.Random(6)
    for _ in range(10):
        M = workloads.random_mdp(rng)
        value = workloads._MDP.value(M)
        assert workloads._MDP.value(workloads.relabel_mdp(rng, M)) == pytest.approx(value)


K1 = workloads.Instance("k1", "fkr", "states 3\ninit 0\nsafe 0 1\ntrans\n0 1\n1 1\n2 2\n",
                        expected=True, budget=100)


def _stub(monkeypatch, answer=None, exc=None):
    parse, _, problem = gate.ENTRY["fkr"]

    def solve(model, **kw):
        if exc is not None:
            raise exc
        return answer

    monkeypatch.setitem(gate.ENTRY, "fkr", (parse, solve, problem))


def test_gate_accepts_a_correct_certified_answer():
    outcome = gate.solve(K1)
    assert outcome.verdict == "True" and outcome.error is None and outcome.steps > 0


def test_gate_counts_a_wrong_verdict(monkeypatch):
    witness = engine.KleeneSequence((0b001,), 0)
    _stub(monkeypatch, PDRAnswer(Verdict.FALSE, kleene_witness=witness, stats=RunStats()))
    assert gate.solve(K1).error == gate.WRONG_VERDICT


def test_gate_counts_a_broken_certificate(monkeypatch):
    frames = KTSequence((0, 0b001, 0b111))  # 0b111 holds the unsafe state
    _stub(monkeypatch, PDRAnswer(Verdict.TRUE, kt_witness=frames, stats=RunStats()))
    assert gate.solve(K1).error == gate.BAD_CERTIFICATE
    _stub(monkeypatch, PDRAnswer(Verdict.TRUE, kt_witness=None, stats=RunStats()))
    assert gate.solve(K1).error == gate.BAD_CERTIFICATE


def test_gate_counts_a_raise_by_type(monkeypatch):
    _stub(monkeypatch, exc=simplex.Infeasible())
    outcome = gate.solve(K1)
    assert (outcome.verdict, outcome.error) == ("raised", "Infeasible")
    tally = run.run_passes([K1, K1], 0, gate.solve)
    assert tally.errors == {"Infeasible": 2} and tally.attempted == 2
    assert gate.all_correct(tally.errors)  # a known crash, not a wrong answer


@pytest.mark.parametrize("exc", [engine.EngineInvariantError, engine.HeuristicViolation,
                                 engine.ContractFailure])
def test_gate_counts_an_engine_contract_breach_as_incorrect(monkeypatch, exc):
    _stub(monkeypatch, exc=exc("broken"))
    tally = run.run_passes([K1], 0, gate.solve)
    assert tally.errors == {exc.__name__: 1} and not gate.all_correct(tally.errors)


def test_failures_are_counted_per_instance_not_per_pass():
    tally = run.Tally(2)
    ok = gate.Outcome(0.1, "True", None, steps=3)
    raised = gate.Outcome(0.1, "raised", "Infeasible")
    for _ in range(3):
        for i, outcome in enumerate((ok, raised)):
            tally.record(i, outcome)
        tally.passes += 1
    assert (tally.attempted, len(tally.failed)) == (2, 1)
    assert tally.errors == {"Infeasible": 1} and gate.all_correct(tally.errors)


def test_a_solve_that_does_not_repeat_is_incorrect():
    tally = run.Tally(1)
    tally.record(0, gate.Outcome(0.1, "True", None, steps=3))
    tally.passes = 1
    tally.record(0, gate.Outcome(0.1, "True", None, steps=4))
    assert tally.errors == {gate.NONDETERMINISTIC: 1} and len(tally.failed) == 1
    assert not gate.all_correct(tally.errors)


def test_solve_time_scales_each_pass_by_its_speed_factor():
    tally = run.Tally(1)
    tally.times[0].extend([1.0, 4.0, 3.0])
    tally.factors.extend([2.0, 0.5, 1.0])
    tally.passes = 3
    assert tally.solve_seconds(normalised=False) == 3.0
    assert tally.solve_seconds(normalised=True) == 2.0
    tally = run.run_passes([K1, K1], 0, gate.solve)
    assert len(tally.factors) == tally.passes == 1 and tally.factors[0] > 0


def _traced_counts(instances):
    with spans.Tracer() as tracer:
        outcomes = [gate.solve(inst, around=tracer.span) for inst in instances]
    counted = {name: n for (root, name), n in tracer.calls.items() if root == "bench.solve"}
    return ([(o.verdict, o.error, o.steps, o.rule_counts) for o in outcomes],
            counted, tracer)


def test_same_seed_gives_identical_counts():
    instances = workloads.build("mrm-random", 11, ROOT)[:24]
    first, counted, _ = _traced_counts(instances)
    again, counted_again, _ = _traced_counts(workloads.build("mrm-random", 11, ROOT)[:24])
    assert first == again and counted == counted_again
    assert counted["simplex"] > 0


def test_tracer_self_times_add_up_and_wrappers_come_off():
    original = engine.rule_valid
    instances = workloads.build("kripke-deep", 1, ROOT)[:6]
    _, _, tracer = _traced_counts(instances)
    assert engine.rule_valid is original
    solve = {name: s for (root, name), s in tracer.self_s.items() if root == "bench.solve"}
    total = sum(end - start for name, start, end, _, _ in tracer.records
                if name == "bench.solve")
    assert sum(solve.values()) == pytest.approx(total, rel=1e-9)
    assert solve["kripke.F"] > 0 and solve["lattice.op"] > 0


def test_harness_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "kripke-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0 and res.stdout == ""
