"""Tests of the benchmark itself: oracles, generator determinism, contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
from workloads import WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture(scope="module")
def ik():
    return run.load_ifvkit()


def built(ik, name, workdir="", seed=5):
    wl = WORKLOADS[name]
    raw = wl.generate(np.random.default_rng(seed))
    return wl, wl.build(ik, raw, str(workdir))


# -- oracles ------------------------------------------------------------------


def test_classify_oracle_reproduces_building_materials_report():
    doc = json.loads((DATA / "building_materials.json").read_text())
    universe = doc["universe"]
    labels = list(doc["patterns"])
    cells = lambda row: [[row[x]["mu"], row[x]["nu"]] for x in universe]  # noqa: E731
    p = np.array([cells(doc["patterns"][label]) for label in labels])
    u = np.array(cells(doc["unknown"]))
    sims = oracles.similarities(u[:, 0], u[:, 1], p[..., 0], p[..., 1], doc["weights"])
    ranked = oracles.ranking(labels, sims)
    assert [label for label, _ in ranked] == ["I4", "I3", "I1", "I2"]
    by_label = dict(ranked)
    report = [f"{label}\t{by_label[label]:.4f}" for label in labels]
    report.append(f"winner: {ranked[0][0]}")
    golden = (DATA / "building_materials_report.golden.txt").read_text().splitlines()
    assert report == golden


def test_closed_forms_match_a_direct_product():
    mu = np.array([[0.2, 0.5, 0.7]])
    nu = np.array([[0.3, 0.4, 0.1]])
    w = [0.2, 0.3, 0.5]
    a_mu, a_nu = oracles.ifwa_closed(mu, nu, w)
    assert a_mu[0] == pytest.approx(1 - 0.8**0.2 * 0.5**0.3 * 0.3**0.5)
    assert a_nu[0] == pytest.approx(0.3**0.2 * 0.4**0.3 * 0.1**0.5)
    g_mu, g_nu = oracles.ifwg_closed(mu, nu, w)
    assert g_mu[0] == pytest.approx(0.2**0.2 * 0.5**0.3 * 0.7**0.5)
    assert g_nu[0] == pytest.approx(1 - 0.7**0.2 * 0.6**0.3 * 0.9**0.5)


def test_classify_check_flags_corrupted_output(ik):
    wl, ctx = built(ik, "classify")
    out = wl.run(ctx, ctx.pool[0], run.spans.NULL)
    assert wl.check(ctx, 0, out) is None
    ranking = list(out.ranking)
    swapped = [ranking[1], ranking[0]] + ranking[2:]
    assert wl.check(ctx, 0, ik.ClassificationResult(tuple(swapped))) is not None
    label, sim = ranking[5]
    off = ranking[:5] + [(label, sim + 1e-6)] + ranking[6:]
    assert wl.check(ctx, 0, ik.ClassificationResult(tuple(off))) is not None
    assert wl.check(ctx, 1, out) is not None  # another unknown's answer


def _request(ctx, pred):
    return next(i for i, req in enumerate(ctx.pool) if pred(req))


@pytest.mark.parametrize("rung", [False, True])
def test_mcdm_check_flags_corrupted_output(ik, rung):
    wl, ctx = built(ik, "mcdm")
    i = _request(ctx, lambda r: (r.q is not None) == rung)
    values, ranked, inf, sup, scan = wl.run(ctx, ctx.pool[i], run.spans.NULL)
    assert wl.check(ctx, i, (values, ranked, inf, sup, scan)) is None
    v0 = values[0]
    nudged = type(v0)(*((v0.mu * 0.999, v0.nu) + ((v0.q,) if rung else ())))
    bad_values = (nudged,) + values[1:]
    assert wl.check(ctx, i, (bad_values, ranked, inf, sup, scan)) is not None
    xy = ranked[0]
    reversed_xy = (tuple(reversed(xy)), ranked[1])
    assert wl.check(ctx, i, (values, reversed_xy, inf, sup, scan)) is not None
    assert wl.check(ctx, i, (values, ranked, (sup[0], inf[1]), sup, scan)) is not None
    assert wl.check(ctx, i, (values, ranked, inf, sup, scan[::-1])) is not None


def test_transport_check_flags_corrupted_output(ik):
    wl, ctx = built(ik, "transport")
    i = _request(ctx, lambda r: r.q is None)
    req = ctx.pool[i]
    out = wl.run(ctx, req, run.spans.NULL)
    first = wl.check(ctx, i, out)
    assert first is None or first.known  # only the tolerance-edge defect
    j = req.kinds.index("u")
    back = list(out[1])
    back[j] = ik.make_ifv(back[j].mu * 0.99, back[j].nu)
    failure = wl.check(ctx, i, out[:1] + (tuple(back),) + out[2:])
    assert failure is not None and not failure.known
    ranked = out[3]
    pair = next(k for k in range(len(ranked) - 1)
                if req.kinds[req.values.index(ranked[k])] == "u"
                and req.kinds[req.values.index(ranked[k + 1])] == "u")
    kleene = list(out[4])
    kleene[pair] = False
    failure = wl.check(ctx, i, out[:4] + (tuple(kleene),) + out[5:])
    assert failure is not None and not failure.known
    failure = wl.check(ctx, i, out[:5] + (out[5], False))
    assert failure is not None


def test_transport_ifs_check_resolves_score_ties_by_accuracy(ik):
    # scores 0.85 - 0.05 and 0.8 - 0.0 differ by one ulp: equal within
    # eps_order, so the larger accuracy is the fiber's maximum
    universe, target = ("a", "b", "c"), ("t0", "t1")
    ifs = ik.Ifs.from_pairs(universe, [(0.8, 0.0), (0.85, 0.05), (0.1, 0.2)])
    req = Ctx(ifs=ifs, samples=ifs.ordered_values(), target=target,
              mapping={"a": "t0", "b": "t0", "c": "t0"})
    extended = ik.zadeh_extend(ifs, req.mapping, target)
    assert extended["t0"] == ik.make_ifv(0.85, 0.05)
    assert WORKLOADS["transport"]._check_ifs(ik, req, extended, True) == []
    wrong = ik.Ifs(target, {"t0": ik.make_ifv(0.1, 0.2), "t1": ik.BOTTOM})
    assert WORKLOADS["transport"]._check_ifs(ik, req, wrong, True)


def test_transport_q_check_flags_corrupted_output(ik):
    wl, ctx = built(ik, "transport")
    i = _request(ctx, lambda r: r.q is not None)
    req = ctx.pool[i]
    out = wl.run(ctx, req, run.spans.NULL)
    first = wl.check(ctx, i, out)
    assert first is None or first.known
    j = req.kinds.index("u")
    trip = list(out[2])
    trip[j] = ik.make_qrofn(trip[j].mu * 0.99, trip[j].nu, trip[j].q)
    failure = wl.check(ctx, i, out[:2] + (tuple(trip),) + out[3:])
    assert failure is not None and not failure.known


def test_cli_check_flags_wrong_exit_code_and_stdout(ik, tmp_path):
    wl, ctx = built(ik, "cli", tmp_path)
    for i, req in enumerate(ctx.pool):
        code, text = wl.run(ctx, req, run.spans.NULL)
        assert wl.check(ctx, i, (code, text)) is None, req.argv
        assert wl.check(ctx, i, (code + 1, text)) is not None
        if code == 0:
            assert wl.check(ctx, i, (code, text + "x")) is not None
    codes = {wl.run(ctx, req, run.spans.NULL)[0] for req in ctx.pool}
    assert codes == {0, 2, 3, 4}


def test_summary_scales_each_pass_to_the_reference_host_speed():
    ms = 1_000_000
    ref = run.calibration.REFERENCE_MS
    # 100 requests a pass on a host twice as slow as the reference, as the
    # gauges show; one gauge reads a spike, which the median drops.  Other
    # load slows the third pass further, unseen by the gauges, and the
    # summary leaves it out as the slowest quarter.
    passes = run.Passes(2 * ref)
    for k, gauge in enumerate((2 * ref, 9 * ref, 2 * ref, 2 * ref, 2 * ref)):
        slow = 3 if k == 2 else 1
        passes.add([2 * slow * ms] * 97 + [10 * slow * ms] * 3, 224 * slow * ms, gauge)
    assert passes.scales() == pytest.approx([0.5] * 5)
    scaled = run.summary(passes)
    assert scaled["passes"] == 4 and scaled["samples"] == 400 and scaled["beyond_p99"] == 4
    assert scaled["p50_ms"] == pytest.approx(1.0)
    assert scaled["p99_ms"] == pytest.approx(5.0)
    assert scaled["rps"] == pytest.approx(400 / (4 * 0.112))
    unscaled = run.summary(passes, scaled=False)
    assert unscaled["p50_ms"] == pytest.approx(2.0)
    assert unscaled["rps"] == pytest.approx(400 / (4 * 0.224))


def test_scales_follow_a_change_of_host_speed():
    ref = run.calibration.REFERENCE_MS
    passes = run.Passes(ref)
    for gauge in [ref] * 5 + [2 * ref] * 6:
        passes.add([1], 1, gauge)
    scales = passes.scales()
    assert scales[:3] == pytest.approx([1.0] * 3)
    assert scales[-4:] == pytest.approx([0.5] * 4)


def test_failed_counts_pool_requests_not_executions():
    class Echo:
        def check(self, ctx, i, out):
            return None if out == i else run.Failure("wrong")

    outcomes = run.Outcomes(3)
    for _ in range(5):
        outcomes.record([0, 1, 7])
    assert outcomes.executions == 15
    assert outcomes.check(Echo(), None) == (1, 1)
    outcomes.record([0, 2, 7])  # request 1 now disagrees with its first output
    assert outcomes.check(Echo(), None) == (2, 2)


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    wl = WORKLOADS[name]
    first = run.inputs_digest(wl.generate(np.random.default_rng(7)))
    again = run.inputs_digest(wl.generate(np.random.default_rng(7)))
    other = run.inputs_digest(wl.generate(np.random.default_rng(8)))
    assert first == again != other


def test_transport_batches_hold_every_value_kind():
    raw = WORKLOADS["transport"].generate(np.random.default_rng(3))
    for batch in raw:
        assert len(batch["values"]) == 128
        assert set(batch["kinds"]) == {"u", "g", "m", "e", "n"}
    assert sum(b["q"] is not None for b in raw) == len(raw) // 4


# -- contract ---------------------------------------------------------------------


def test_benchmark_json_names_every_metric_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# Layers whose spans must stay empty on a workload, and one that must not.
ABSENT = {
    "classify": ("ops.", "isomorphism.", "negation.", "cli."),
    "mcdm": ("similarity.", "isomorphism.", "negation.", "cli."),
    "transport": ("similarity.", "ops.", "cli."),
}
PRESENT = {
    "classify": "similarity.classify.calls",
    "mcdm": "ops.ifwa.long.calls",
    "transport": "isomorphism.zx_to_xy.calls",
}


@pytest.mark.parametrize("name", sorted(ABSENT))
def test_traced_run_reports_absent_layers_as_zero(name):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    assert metrics[PRESENT[name]] > 0
    for key, value in metrics.items():
        if key.endswith(".calls") and key.startswith(ABSENT[name]):
            assert value == 0, key


def test_untraced_run_prints_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_library_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "classify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
