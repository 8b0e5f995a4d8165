"""The three workloads: their jobs, inputs and output checks.

A job is one `projnorm.cli.main(argv)` call or one direct library call.  Its
inputs are made from the seed by `reference`, which also owns every check:
no check calls the code under test.  A failed check raises nothing; it is a
list of problems, and the job counts as failed.  A failure that matches a
known defect of the program (see KNOWN_DEFECTS) is still a failure, but it
does not make the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable

import numpy as np

import reference as ref

T = 0.01  # shrink factor of every fixed shrinking-square mesh

# Values projnorm 0.1.0 computes on the fixed meshes, pinned for the cases
# the benchmark has no closed-form reference for (d > 2) and as a second
# check of the others.  The theorem witness values at J = 6, 7, 8 are the
# ones that fail the program's own criterion 1 by design; they are pinned to
# the 4 decimals published.
GOLDEN = {
    "sup cx J=60": 71.8950122681221,
    "sup pyramid d=3 J=40": 70.74046629020812,
    "sup pyramid d=5 J=40": 98.63673279829219,
    "norm pyramid d=4 J=10": 30.972835202178175,
    "norm pyramid d=4": {
        2: 9.680600161545115,
        3: 12.684778474453342,
        4: 15.32308093224285,
        5: 18.216473811965912,
        6: 20.74700630983678,
        7: 23.533793406279777,
        8: 25.960869901326692,
    },
}
THEOREM_WITNESS = {6: 12.4245, 7: 14.2000, 8: 15.9408}

KNOWN_DEFECTS = {
    "overlap": "validate_conformity reports overlapping interiors on a mesh that "
    "is conforming by construction: 2 on cx J=20 and 50 on the d=3 pyramid J=6, t=0.01",
    "negative-values": "project --values with a negative first value exits 2: "
    "argparse reads it as an option",
}


@dataclass
class Outcome:
    seconds: float
    code: int | None = None  # exit code of a CLI job
    value: object = None  # return value of a library job
    error: str | None = None  # traceback of an exception the job raised
    stdout: str = ""
    stderr: str = ""
    data: bytes | None = None  # the file the job wrote


@dataclass
class Job:
    name: str
    kind: str  # project, norm, reproduce, validate, orbits or reduce
    size: dict
    # check(outcome, errors) returns the problems with the outcome and
    # appends the relative error of each number it compared to errors
    check: Callable[[Outcome, list], list]
    argv: list | None = None
    call: Callable[[], object] | None = None
    output: str | None = None
    known_defect: Callable[[Outcome], str | None] = lambda outcome: None


@dataclass
class Verdict:
    problems: list
    known: str | None = None  # key of KNOWN_DEFECTS the failure matches
    max_rel_err: float = 0.0  # largest relative error among the checked numbers

    @property
    def failed(self):
        return bool(self.problems)


def execute(pn, job):
    """Run one job, timing only the call into projnorm."""
    if job.output and os.path.exists(job.output):
        os.remove(job.output)
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome(seconds=0.0)
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            if job.argv is not None:
                outcome.code = pn.cli.main(job.argv)
            else:
                outcome.value = job.call()
        except SystemExit as exc:
            outcome.code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a failing job is counted, never fatal to the run
            outcome.error = traceback.format_exc()
        outcome.seconds = perf_counter() - start
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    if job.output and os.path.exists(job.output):
        with open(job.output, "rb") as fh:
            outcome.data = fh.read()
    return outcome


def judge(job, outcome):
    if outcome.error is not None:
        return Verdict([outcome.error.strip().splitlines()[-1]])
    errors = []
    try:
        problems = job.check(outcome, errors)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return Verdict(problems, job.known_defect(outcome) if problems else None,
                   max(errors, default=0.0))


def fingerprint(outcome):
    """Everything a job produced, for byte-identity across passes."""
    return (outcome.code, outcome.stdout, outcome.stderr, outcome.data,
            pickle.dumps(outcome.value))


# ---------------------------------------------------------------------------
# checks


def _close(errors, name, value, expected):
    err = ref.rel_err(value, expected)
    errors.append(err)
    return [] if err <= ref.REL_TOL else [f"{name} {value!r} differs from {expected!r} (rel {err:.2e})"]


def _exit(outcome, expected):
    if outcome.code != expected:
        return [f"exit code {outcome.code}, expected {expected}: {outcome.stderr.strip()[-200:]}"]
    return []


class Case:
    """One benchmark mesh with its lazily computed references."""

    def __init__(self, mesh, label):
        self.mesh = mesh
        self.label = label

    @cached_property
    def M(self):
        return ref.mass_matrix(self.mesh)

    @cached_property
    def dense(self):
        return ref.DenseReference(self.mesh)

    @cached_property
    def oscillating_sup(self):
        return float(np.abs(self.dense.solve(ref.oscillating_values(self.mesh))).max())

    @property
    def size(self):
        return {"dim": self.mesh.dim, "vertices": self.mesh.n_vertices,
                "simplices": self.mesh.n_simplices, "nnz": int(self.M.nnz)}


def check_projection(case, values, golden_sup=None):
    F = ref.load_vector(case.mesh, values)

    def check(outcome, errors):
        problems = _exit(outcome, 0)
        if problems:
            return problems
        report = json.loads(outcome.data)
        x = np.asarray(report["nodal_values"], dtype=float)
        if x.shape != (case.mesh.n_vertices,):
            return [f"{x.shape[0]} nodal values for {case.mesh.n_vertices} vertices"]
        res = ref.normalized_residual(case.M, F, x)
        errors.append(res)
        if not res <= ref.RESIDUAL_TOL:
            problems.append(f"normalized residual {res:.3e} > {ref.RESIDUAL_TOL:.0e}")
        problems += _close(errors, "sup_norm", report["sup_norm"], float(np.abs(x).max()))
        if golden_sup is not None:
            problems += _close(errors, "sup_norm", report["sup_norm"], golden_sup)
        return problems

    return check


def check_norm_values(errors, case, norm, ainv, golden=None):
    """Problems with one reported exact norm and A^-1 bound."""
    d = case.dense
    problems = _close(errors, "ainv_bound", ainv, d.ainv_bound())
    slack = 1 + ref.REL_TOL
    if not norm <= ainv * slack:
        problems.append(f"exact norm {norm!r} above ainv_bound {ainv!r}")
    witness = d.witness_bound()
    if case.mesh.ring is not None:
        witness = max(witness, case.oscillating_sup)
    if not norm * slack >= witness:
        problems.append(f"exact norm {norm!r} below the projected witness {witness!r}")
    if case.mesh.dim == 1 and not norm <= 3.0:
        problems.append(f"1D norm {norm!r} exceeds 3")
    if case.mesh.dim <= 2:
        problems += _close(errors, "exact_operator_norm", norm, d.operator_norm())
    if golden is not None:
        problems += _close(errors, "exact_operator_norm", norm, golden)
    return problems


def check_norm(case, golden=None):
    def check(outcome, errors):
        problems = _exit(outcome, 0)
        if problems:
            return problems
        report = json.loads(outcome.data)
        return check_norm_values(errors, case, report["exact_operator_norm"], report["ainv_bound"], golden)

    return check


def _rows(outcome):
    return list(csv.DictReader(io.StringIO(outcome.data.decode())))


def check_sweep(cases, expected_exit, goldens=None, witness=None):
    """reproduce --theorem / --pyramid --with-norms: one CSV row per J."""

    def check(outcome, errors):
        problems = _exit(outcome, expected_exit)
        if outcome.data is None:
            return problems + ["no CSV written"]
        rows = _rows(outcome)
        if [int(r["J"]) for r in rows] != sorted(cases):
            return problems + [f"rows for J = {[r['J'] for r in rows]}"]
        for r in rows:
            J = int(r["J"])
            case = cases[J]
            sup = float(r["sup_norm"])
            problems += _close(errors, f"J={J} sup_norm", sup, case.oscillating_sup)
            if witness and J in witness and abs(sup - witness[J]) > 5e-5:
                problems.append(f"J={J} sup_norm {sup} is not the witness {witness[J]}")
            problems += [f"J={J} {p}" for p in check_norm_values(
                errors, case, float(r["exact_operator_norm"]), float(r["ainv_bound"]),
                goldens.get(J) if goldens else None)]
        return problems

    return check


def check_limit(J, cases):
    """reproduce --limit: reduced solutions against the t -> 0 limit."""
    x_hat = (-1.0) ** np.arange(J + 2) * (2 * np.arange(J + 2) - 1)

    def check(outcome, errors):
        problems = _exit(outcome, 0)
        if problems:
            return problems
        rows = _rows(outcome)
        ts = [float(r["t"]) for r in rows]
        if len(ts) != len(cases) or any(b >= a for a, b in zip(ts, ts[1:])):
            return [f"rows for t = {ts}"]
        for r, t in zip(rows, sorted(cases, reverse=True)):
            case = cases[t]
            x = case.dense.solve(ref.oscillating_values(case.mesh))
            by_ring = np.array([x[case.mesh.ring == j][0] for j in range(J + 2)])
            err = float(np.abs(by_ring - x_hat).max())
            problems += _close(errors, f"t={t} sup_norm", float(r["sup_norm"]), case.oscillating_sup)
            if abs(float(r["limit_error"]) - err) > ref.REL_TOL * err + 1e-12 * (2 * J + 1):
                problems.append(f"t={t} limit_error {r['limit_error']} differs from {err!r}")
        return problems

    return check


def check_conforming(outcome, errors):
    return [f"{len(outcome.value)} violations, first: {outcome.value[0]}"] if outcome.value else []


def overlap_defect(count):
    """The known false overlaps: exactly `count` "overlapping interiors"
    violations, and no other kind."""

    def known(outcome):
        violations = outcome.value or []
        if len(violations) == count and all("overlapping interiors" in v for v in violations):
            return "overlap"
        return None

    return known


def check_orbits(case):
    mesh = case.mesh
    expected = {frozenset(np.flatnonzero(mesh.ring == j).tolist())
                for j in range(int(mesh.ring.max()) + 1)}
    apexes = frozenset(np.flatnonzero(mesh.ring < 0).tolist())
    if apexes:
        expected.add(apexes)

    def check(outcome, errors):
        orbit_of = np.asarray(outcome.value.orbit_of)
        got = {frozenset(np.flatnonzero(orbit_of == k).tolist()) for k in np.unique(orbit_of)}
        return [] if got == expected else [f"{len(got)} orbits, expected {len(expected)} rings"]

    return check


def check_reduced(case):
    def check(outcome, errors):
        red = outcome.value
        x = np.linalg.solve(np.asarray(red.matrix), np.asarray(red.rhs))[np.asarray(red.orbit_of)]
        full = case.dense.solve(ref.oscillating_values(case.mesh))
        err = float(np.abs(x - full).max() / np.abs(full).max())
        errors.append(err)
        return [] if err <= ref.REL_TOL else [f"reduced solution differs by {err:.2e}"]

    return check


# ---------------------------------------------------------------------------
# workloads


class Inputs:
    """Writes the benchmark's meshes as mesh JSON files under a work directory."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)

    def rng(self, stream):
        # one independent stream per input, so that no input depends on another
        return np.random.default_rng([self.seed, stream])

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, case):
        path = self.path(case.label + ".mesh.json")
        with open(path, "w") as fh:
            fh.write(case.mesh.to_json())
        return path


def _values_arg(values):
    return ",".join(repr(float(v)) for v in values)


def warmup_job(inputs):
    """The job every setup runs once: a small oscillating projection."""
    case = Case(ref.shrinking_squares(4, 0.1), "warmup")
    out = inputs.path("warmup.report.json")
    return Job("warmup", "project", case.size,
               check_projection(case, ref.oscillating_values(case.mesh)),
               argv=["project", "--mesh", inputs.write(case), "--oscillating", "-o", out],
               output=out)


def _project_job(inputs, case, values=None, golden=None, argv_values=None):
    out = inputs.path(case.label + ".report.json")
    if values is None:
        data = ["--oscillating"]
        values = ref.oscillating_values(case.mesh)
    else:
        data = argv_values or ["--values=" + _values_arg(values)]
    return Job(f"project {case.label}", "project", case.size,
               check_projection(case, values, golden),
               argv=["project", "--mesh", inputs.write(case), *data, "-o", out], output=out)


def project_large(pn, inputs):
    """Projections up to 6561 vertices: the dense factorization, the dense
    copies of M and the mesh/report JSON dominate; no |psi_P| integration runs."""
    jobs = []
    for k, n in enumerate((32, 64, 80)):
        case = Case(ref.jittered_square(n, inputs.rng(k)), f"uniform-n{n}")
        values = inputs.rng(10 + k).uniform(-1.0, 1.0, case.mesh.n_simplices)
        jobs.append(_project_job(inputs, case, values))
    jobs.append(_project_job(inputs, Case(ref.shrinking_squares(60, T), "cx-J60"),
                             golden=GOLDEN["sup cx J=60"]))
    for d in (3, 5):
        jobs.append(_project_job(inputs, Case(ref.pyramid(40, T, d), f"pyramid-d{d}-J40"),
                                 golden=GOLDEN[f"sup pyramid d={d} J=40"]))
    # the documented space-separated form, with a negative first value
    case = Case(ref.jittered_square(4, inputs.rng(3)), "probe-n4")
    values = inputs.rng(13).uniform(-1.0, 1.0, case.mesh.n_simplices)
    values[0] = -0.5
    probe = _project_job(inputs, case, values, argv_values=["--values", _values_arg(values)])
    probe.name = "project negative first value"
    probe.known_defect = lambda o: (
        "negative-values" if o.code == 2 and "--values: expected one argument" in o.stderr else None)
    jobs.append(probe)
    return jobs


def _norm_job(inputs, case, golden=None):
    out = inputs.path(case.label + ".norm.json")
    return Job(f"norm {case.label}", "norm", case.size, check_norm(case, golden),
               argv=["norm", "--mesh", inputs.write(case), "-o", out], output=out)


def _sweep_size(cases):
    largest = cases[max(cases)]
    return dict(largest.size, meshes=len(cases))


def norm_sweep(pn, inputs):
    """Exact norms on small meshes in 1 to 4 dimensions: n right-hand sides per
    mesh and the per-row |psi_P| integration dominate; no large solve runs."""
    jobs = [
        _norm_job(inputs, Case(ref.shrinking_squares(20, T), "cx-J20")),
        _norm_job(inputs, Case(ref.pyramid(10, T, 4), "pyramid-d4-J10"),
                  GOLDEN["norm pyramid d=4 J=10"]),
        _norm_job(inputs, Case(ref.jittered_square(8, inputs.rng(20)), "uniform-n8")),
        _norm_job(inputs, Case(ref.graded_interval(200, inputs.rng(21)), "interval-200")),
    ]
    theorem = {J: Case(ref.shrinking_squares(J, T), f"cx-J{J}") for J in range(1, 9)}
    out = inputs.path("theorem.csv")
    # exit 4: the witness sup norm falls below 2J at J = 8 (t = 0.01)
    jobs.append(Job("reproduce --theorem", "reproduce", _sweep_size(theorem),
                    check_sweep(theorem, 4, witness=THEOREM_WITNESS),
                    argv=["reproduce", "--theorem", "--J", "1..8", "--t", str(T),
                          "--with-norms", "-o", out], output=out))
    pyramids = {J: Case(ref.pyramid(J, T, 4), f"pyramid-d4-J{J}") for J in range(2, 9)}
    out = inputs.path("pyramid.csv")
    jobs.append(Job("reproduce --pyramid", "reproduce", _sweep_size(pyramids),
                    check_sweep(pyramids, 0, goldens=GOLDEN["norm pyramid d=4"]),
                    argv=["reproduce", "--pyramid", "--d", "4", "--J", "2..8", "--t", str(T),
                          "--with-norms", "-o", out], output=out))
    return jobs


def mesh_check(pn, inputs):
    """Conformity checks, symmetry orbits and reduced systems: the pairwise
    overlap test dominates; solves are tiny.  Both labeled meshes are
    conforming by construction, yet are reported as overlapping."""
    labeled = [Case(ref.shrinking_squares(20, T), "cx-J20"), Case(ref.pyramid(6, T, 3), "pyramid-d3-J6")]
    uniform = Case(ref.jittered_square(12, inputs.rng(30)), "uniform-n12")
    loaded = {c.label: pn.load_mesh(inputs.write(c)) for c in labeled + [uniform]}
    jobs = []
    for case in labeled + [uniform]:
        mesh = loaded[case.label]
        jobs.append(Job(f"validate {case.label}", "validate", case.size, check_conforming,
                        call=lambda mesh=mesh: pn.validate_conformity(mesh)))
    # the number of false overlaps each labeled mesh is known to report
    for job, count in zip(jobs, (2, 50)):
        job.known_defect = overlap_defect(count)
    for case in labeled:
        mesh = loaded[case.label]
        jobs.append(Job(f"orbits {case.label}", "orbits", case.size, check_orbits(case),
                        call=lambda mesh=mesh: pn.symmetry_orbits(mesh, pn.symmetry_generators(mesh))))
        jobs.append(Job(f"reduce {case.label}", "reduce", case.size, check_reduced(case),
                        call=lambda mesh=mesh: pn.reduced_ring_system(mesh)))
    J = 20
    ts = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * inputs.rng(31).uniform(0.9, 1.1, 7)
    limits = {float(t): Case(ref.shrinking_squares(J, float(t)), f"cx-J{J}-t{t:.3g}") for t in ts}
    out = inputs.path("limit.csv")
    jobs.append(Job("reproduce --limit", "reproduce", _sweep_size(limits), check_limit(J, limits),
                    argv=["reproduce", "--limit", "--J", str(J), "--t", _values_arg(ts), "-o", out],
                    output=out))
    return jobs


WORKLOADS = {"project_large": project_large, "norm_sweep": norm_sweep, "mesh_check": mesh_check}


def build(pn, workload, inputs):
    """The workload's jobs, in the order one pass runs them."""
    return WORKLOADS[workload](pn, inputs)
