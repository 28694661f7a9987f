"""The traced benchmark under perfbench/ wraps decogauss functions by name,
and its grid workloads read GridState.n_points, .xs and .spacing and
eigenstate_spec; these fail if one of them is renamed or deleted."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_instruments_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer, instrument

    from decogauss import oracle

    integrate = oracle.integrate_master_equation
    tracer = instrument(Tracer())
    try:
        assert oracle.integrate_master_equation is not integrate
    finally:
        tracer.restore()
    assert oracle.integrate_master_equation is integrate


def test_benchmark_grid_workloads_run_and_pass_their_checks_traced(monkeypatch):
    # perfbench/ imports its own modules by bare name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer, instrument
    from worker import execute
    from workloads import GridSpectrum, OracleCheck

    workloads = [OracleCheck(seed=1), GridSpectrum(seed=1)]
    ops = [workload.block(0)[0] for workload in workloads]
    tracer = instrument(Tracer())
    tracer.active = True
    try:
        for workload, op in zip(workloads, ops):
            workload.tracer = tracer
            ok, _, error, _ = execute(workload, op)
            assert ok, error
    finally:
        tracer.active = False
        tracer.restore()
    summary = tracer.summary()
    assert summary["calls"]["oracle.integrate"] == 1
    assert summary["calls"]["oracle.eigendecompose"] == 1
    assert summary["counts"]["oracle.eigendecompose.n_cubed"] == ops[1].args["n"] ** 3
