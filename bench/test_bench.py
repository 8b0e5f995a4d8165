"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json

import numpy as np
import pytest

import jobs
import reference as ref
import run
import tracing

SEED = 0


@pytest.fixture(scope="module")
def pn():
    return run.import_projnorm()


def _report(x):
    return json.dumps({"nodal_values": list(map(float, x)),
                       "sup_norm": float(np.abs(x).max())}).encode()


def test_check_rejects_inner_ring_perturbation():
    J = 20
    case = jobs.Case(ref.shrinking_squares(J, jobs.T), "cx")
    values = ref.oscillating_values(case.mesh)
    check = jobs.check_projection(case, values)
    x = case.dense.solve(values)
    assert check(jobs.Outcome(0.0, code=0, data=_report(x)), []) == []

    perturbed = x.copy()
    perturbed[case.mesh.ring == J] *= 1 + 1e-9
    F = ref.load_vector(case.mesh, values)
    # a max-norm residual cannot see rows whose entries are t^(2J) small ...
    assert np.abs(case.M @ perturbed - F).max() / np.abs(F).max() < 1e-14
    # ... the normalized residual can
    problems = check(jobs.Outcome(0.0, code=0, data=_report(perturbed)), [])
    assert any("normalized residual" in p for p in problems)


@pytest.mark.parametrize("d", [1, 2])
def test_abs_integral_matches_subdivision(d):
    rng = np.random.default_rng(d)
    mesh = ref.Mesh(rng.uniform(-1, 1, (d + 1, d)), [list(range(d + 1))])
    values = rng.uniform(-1, 1, (50, d + 1))
    values[0] = [1.0] + [-1.0] * d  # a lone positive vertex
    values[1] = [0.0] + [1.0] * d  # touches zero without changing sign
    exact = ref.abs_integrals(mesh, values)
    # centroid rule on the k^d congruent pieces, in barycentric coordinates
    k = 400
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    if d == 1:
        centroids = [(np.arange(k) + 0.5) / k]
    else:
        up, down = i + j <= k - 1, i + j <= k - 2
        centroids = [np.concatenate([(i[up] + 1 / 3) / k, (i[down] + 2 / 3) / k]),
                     np.concatenate([(j[up] + 1 / 3) / k, (j[down] + 2 / 3) / k])]
    bary = np.column_stack([1 - sum(centroids), *centroids])
    weight = mesh.volumes[0] / k**d
    approx = np.abs(values @ bary.T).sum(axis=1) * weight
    np.testing.assert_allclose(exact, approx, rtol=1e-4, atol=1e-6)


def test_argparse_exit_is_counted(pn, tmp_path):
    probe = jobs.project_large(pn, jobs.Inputs(str(tmp_path), SEED))[-1]
    outcome = jobs.execute(pn, probe)
    verdict = jobs.judge(probe, outcome)
    assert outcome.code == 2 and outcome.error is None
    assert verdict.failed and verdict.known == "negative-values"


def test_seed_changes_inputs_not_sizes(pn, tmp_path):
    for workload in jobs.WORKLOADS:
        built = []
        for seed in (1, 2):
            inputs = jobs.Inputs(str(tmp_path / f"{workload}-{seed}"), seed)
            job_list = jobs.build(pn, workload, inputs)
            files = sorted(p.read_bytes() for p in (tmp_path / f"{workload}-{seed}").iterdir())
            argv = [[a for a in (j.argv or []) if not a.startswith(str(tmp_path))] for j in job_list]
            built.append(([(j.name, j.size) for j in job_list], files, argv))
        (jobs1, files1, argv1), (jobs2, files2, argv2) = built
        assert jobs1 == jobs2
        assert files1 != files2 or argv1 != argv2


def test_tracer_wraps_every_binding_and_restores(pn, monkeypatch):
    original = pn.projection.exact_operator_norm
    tracer = tracing.Tracer(pn)
    with tracer.installed():
        assert pn.counterexample.exact_operator_norm is not original
        assert pn.exact_operator_norm is pn.projection.exact_operator_norm
        pn.growth_sweep([1], 0.1, with_norms=True)
    assert pn.projection.exact_operator_norm is original
    assert pn.counterexample.exact_operator_norm is original
    calls, self_s = tracing.summarize(tracer.spans)
    assert calls["projection.exact_operator_norm"] == 1
    assert calls["projection.dual_basis"] == 1
    assert self_s["counterexample.growth_sweep"] >= 0

    monkeypatch.delattr(pn.projection, "dual_basis")
    assert tracing.Tracer(pn).skipped == ["projection.dual_basis"]


def test_failures_at_seed_are_the_known_defects(pn, tmp_path):
    failed = {}
    for workload in jobs.WORKLOADS:
        job_list = jobs.build(pn, workload, jobs.Inputs(str(tmp_path / workload), SEED))
        # one untraced and one traced pass, whose outputs must be byte-identical
        record, untraced, traced, _ = run.measure(pn, job_list, 0.0, trace=True)
        assert len(untraced) == len(traced) == 1
        assert record.unexpected() == []
        failed.update({name: f["known_defect"] for name, f in record.failures().items()})
    assert failed == {
        "project negative first value": ["negative-values"],
        "validate cx-J20": ["overlap"],
        "validate pyramid-d3-J6": ["overlap"],
    }


def test_known_defects_are_matched_exactly(pn, tmp_path):
    validate = jobs.mesh_check(pn, jobs.Inputs(str(tmp_path), SEED))[:3]
    overlaps = ["simplices 1 and 2 have overlapping interiors"]
    assert [j.known_defect(jobs.Outcome(0.0, value=overlaps * 2)) for j in validate] == [
        "overlap", None, None]
    assert validate[1].known_defect(jobs.Outcome(0.0, value=overlaps * 50)) == "overlap"
    assert validate[0].known_defect(jobs.Outcome(0.0, value=overlaps * 3)) is None

    probe = jobs.project_large(pn, jobs.Inputs(str(tmp_path), SEED))[-1]
    other = jobs.Outcome(0.0, code=2, stderr="error: values has 31 entries, mesh has 32")
    assert jobs.judge(probe, other).known is None
