"""The traced benchmark under perfbench/ wraps decogauss functions by name;
this fails if one of them is renamed or deleted."""

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
