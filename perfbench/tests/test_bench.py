"""The benchmark's own tests:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return workloads.Lib(workloads.import_clsh())


def test_church_op_reduces_through_the_cli(lib):
    src = workloads.church_source("exp", 2, 3)
    t = lib.compile_term(lib.parse(src))
    _, steps, status = lib.normalize_fast(t, lib.FULL, 1000, "ri")
    assert workloads.church_op(lib, src, "ri") == (
        0, workloads.numeral_text(8) + "\n", steps)
    assert status == lib.NORMAL_FORM


def test_trace_steps_are_those_the_trace_prints(lib):
    src = workloads.church_source("mul", 2, 3)
    code, text, steps = lib.cli(["reduce", "--trace", src])
    assert code == 0
    assert steps == len(text.splitlines()) - 2 > 0


def test_oracle_op_counts_the_probes_steps(lib):
    """probe_eq renormalizes what it feeds a fresh variable; the oracle op
    counts those steps with its own."""
    terms, budget = lib.mods["terms"], 50_000
    t = lib.parse(r"\x y. x")
    before = lib.fired.steps
    steps, bad, converged, _ = workloads.oracle_op(
        lib, t, workloads.SampledTotals())
    probed = lib.fired.steps - before
    assert converged and bad == 0 and probed > 0
    ct, direct, _ = lib.normalize_fast(lib.compile_term(t), lib.CL_BASE,
                                       budget)
    bt, bn, _ = lib.beta_normalize_fast(t, budget)
    direct += bn
    for k in (1, 2, 3):
        args = [terms.Var(f"z{i}") for i in range(1, k + 1)]
        direct += lib.normalize_fast(terms.app(ct, *args), lib.CL_BASE,
                                     budget)[1]
        direct += lib.beta_normalize_fast(terms.app(bt, *args), budget)[1]
    assert steps == direct + probed


@pytest.mark.parametrize("seed", [3, 20260814])
def test_sampled_totals_equal_the_experiments(lib, seed):
    n = 150
    rt = lib.mods["randterms"]
    got = workloads.sampled_run(lib, seed, n, workloads.Recorder({}))
    oracle = rt.oracle_agreement_experiment(n=n, seed=seed)
    confluence = rt.confluence_experiment(n=n, seed=seed)
    assert got.checked == oracle.checked
    assert got.nonconverged == list(oracle.nonconverged)
    assert got.mismatches == len(oracle.mismatches)
    assert got.compared == confluence.compared
    assert got.skipped == list(confluence.skipped)
    assert got.counterexamples == len(confluence.counterexamples)


def test_sampled_default_seed_as_recorded(lib):
    want = EXPECTED["sampled_totals"]["default_seed"]
    rec = workloads.Recorder({})
    got = workloads.sampled_run(lib, want["seed"], want["n"], rec)
    assert rec.failed == 0
    assert {"checked": got.checked, "nonconverged": len(got.nonconverged),
            "mismatches": got.mismatches, "compared": got.compared,
            "skipped": len(got.skipped),
            "counterexamples": got.counterexamples} == {
        k: v for k, v in want.items() if k not in ("seed", "n")}


def test_recorded_church_steps_are_the_published_ones():
    church = EXPECTED["church"]
    for term, counts in (("mul 20 20", (5908, 1158, 45)),
                         ("exp 2 10", (32744, 5337, 2050)),
                         ("exp 3 7", (45914, 7852, 2190))):
        got = tuple(church[f"{term}|{e}"][0] for e in ("lo", "ri", "beta"))
        assert got == counts


def test_recorded_catalog_passes_every_check():
    catalog = EXPECTED["catalog"]
    assert sum(k.startswith("plain|") for k in catalog) == 20
    assert sum(k.startswith("expanded|") for k in catalog) == 12
    assert {v[2] for v in catalog.values()} == {"pass"}


def test_every_op_has_a_recorded_outcome(lib):
    checks = lib.mods["checks"]
    catalog = checks.builtin_catalog()
    want = {"catalog": {f"plain|{c.name}" for c in catalog}
            | {f"expanded|{c.name}" for c in catalog
               if checks.expand_check(c) is not None},
            "church": set(), "trace": set()}
    for smoke in (False, True):
        want["church"] |= {f"{label}|{engine}" for label, _, _, engine
                           in workloads.church_inputs(lib, 0, smoke)["ops"]}
        want["trace"] |= {f"{label}|{variant}" for label, _, variant
                          in workloads.trace_inputs(lib, 0, smoke)["ops"]}
    seed = lib.mods["randterms"].DEFAULT_SEED
    want["sampled"] = {f"{name}|{draw}|{i}"
                       for draw in range(seed, seed + workloads.SAMPLED_DRAWS)
                       for name in ("oracle", "confluence")
                       for i in range(workloads.SAMPLED_N)}
    for name, keys in want.items():
        assert keys == set(EXPECTED[name]), name


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == spec.per_layer()


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = ([(n, u) for n, u, _, _ in spec.END_TO_END] if trace == 0
             else [(n, u) for n, u, _ in spec.per_layer()])
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == names
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    rate = [ln for ln in proc.stdout.splitlines() if "error_rate" in ln]
    assert rate and rate[0].split()[1] == "0"


def test_all_runs_every_workload():
    proc = run_bench(ROOT, "--workload", "all", "--seed", "2",
                     "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [f"{w}.{n}" for w in spec.WORKLOADS
                                       for n, _, _, _ in spec.END_TO_END]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "church", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
