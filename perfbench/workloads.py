"""The four workloads: seeded inputs, one timed operation, and its check.

Inputs come in blocks, and every block holds each stratum of the workload
once (each grid size, each output format, the same share of long
trajectories), so a run that completes whole blocks has the same mix of
work on every seed.  Block `b` is drawn from its own stream seeded by
(workload, seed, b).  The grid workloads, whose operations are few and
costly, draw their parameters from a randomised golden-ratio sequence
instead: the seed sets each sequence's offset, any run of consecutive
blocks covers every parameter range evenly, and each odd block mirrors the
block before it (x -> 1 - x, an antithetic pair), so that a run's cost
depends little on where the seed's offsets fall.  The package receives only
the generated inputs.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from decogauss import cli, evolution, oracle, scenarios, spectral

import checks

HERE = Path(__file__).resolve().parent
FORMATS = ("text", "csv", "json")

# Gates of the package's own acceptance tests (criteria 12 and 13).
ORACLE_TOLERANCE = 1e-3
EIGENVALUE_TOLERANCE = 1e-4
OVERLAP_FLOOR = 0.999
FIT_TOLERANCE = 1e-10
GATED_LEVELS = 6  # eigenpairs n <= 5 are gated

BASEBALL_CONFIG = """\
[scenario]
name = baseball
initial_dx_planck_lengths = 0.5
speed_m_s = 44.704

[particle]
mass_kg = 0.1459553
radius_m = 0.0369

[air]
molecular_mass_kg = 4.80965e-26
mass_density_kg_m3 = 1.2250
temperature_K = 288.15
"""


def _stream(name, seed, block):
    return random.Random(f"{name}:{seed}:{block}")


# irrational steps of the per-parameter sequences, one per parameter
_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0,
          math.sqrt(5.0) - 2.0, math.sqrt(7.0) - 2.0)


def _spread(offsets, block, dim, low, high):
    """Parameter `dim` of one slot in block `block`: the slot's sequence
    (offset from the seed, irrational step), reflected in odd blocks,
    mapped onto [low, high]."""
    x = (offsets[dim] + (block // 2) * _STEPS[dim]) % 1.0
    return low + (high - low) * (1.0 - x if block % 2 else x)


def _offsets(name, seed, slots):
    rng = _stream(name, seed, "offsets")
    return [[rng.random() for _ in _STEPS] for _ in range(slots)]


def _log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def random_scenario(rng, label, centres):
    """Config text for a scenario drawn over the whole range the report
    handles: mass 1e-18..10 kg, initial dx 1e-35..1e-6 m, t 1e-3..1e4 s,
    air or a generic environment, and `centres` observation windows."""
    mass = _log_uniform(rng, 1e-18, 10.0)
    density = _log_uniform(rng, 500.0, 2e4)
    radius = (3.0 * mass / (4.0 * math.pi * density)) ** (1.0 / 3.0)
    lines = [
        "[scenario]",
        f"name = {label}",
        f"initial_dx_m = {_log_uniform(rng, 1e-35, 1e-6)!r}",
        f"evolution_time_s = {_log_uniform(rng, 1e-3, 1e4)!r}",
    ]
    if rng.random() < 1.0 / 3.0:
        lines.append(f"speed_m_s = {rng.uniform(0.1, 100.0)!r}")
    lines += ["", "[particle]", f"mass_kg = {mass!r}", f"radius_m = {radius!r}", ""]
    if rng.random() < 0.5:
        lines += [
            "[air]",
            f"molecular_mass_kg = {4.80965e-26 * rng.uniform(0.5, 2.0)!r}",
            f"mass_density_kg_m3 = {_log_uniform(rng, 1e-6, 10.0)!r}",
            f"temperature_K = {rng.uniform(2.0, 400.0)!r}",
        ]
    else:
        lines += [
            "[environment]",
            f"number_density_per_m3 = {_log_uniform(rng, 1.0, 1e26)!r}",
            f"cross_section_m2 = {_log_uniform(rng, 1e-30, 1e-2)!r}",
            f"relative_velocity_m_s = {_log_uniform(rng, 1.0, 1e3)!r}",
            f"rms_wavenumber_per_m = {_log_uniform(rng, 1.0, 1e12)!r}",
        ]
    if centres:
        width = _log_uniform(rng, 1e-9, 1e3)
        xs = [width * (-4.0 + 8.0 * k / max(1, centres - 1)) for k in range(centres)]
        lines += [
            "",
            "[observation]",
            "centers_m = " + ", ".join(repr(x) for x in xs),
            f"alpha_per_m2 = {rng.uniform(0.0, 1.0) / width**2!r}",
            f"gamma_per_m2 = {1.0 / width**2!r}",
        ]
    return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One operation: its kind and the inputs the package receives."""

    kind: str
    args: dict = field(default_factory=dict)


class Workload:
    name = ""
    trace_blocks = 0  # blocks the traced run repeats exactly
    tail = 50  # latency percentile reported as op_tail_ms
    per_pair = False  # latency statistics over block pairs, not operations

    def __init__(self, seed):
        self.seed = seed
        self.tracer = None  # set while the traced pass runs

    def block(self, index):
        """The operations of block `index`, the same for the same seed."""
        raise NotImplementedError

    def setup(self):
        """Generate the first block and pay first-call costs."""
        raise NotImplementedError

    def operate(self, op):
        raise NotImplementedError

    def check(self, op, output):
        """Raise checks.CheckFailure if the output is wrong; return the
        accuracy figures the traced run records."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ReportSweep(Workload):
    """load_scenario -> run -> emit (+ tolerance_failures for baseball)."""

    name = "report_sweep"
    block_size = 24
    trace_blocks = 8
    tail = 99
    LONG = frozenset((3, 9, 15, 21))  # one op in six has a long trajectory

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = checks.load_baseball_reference()

    def block(self, index):
        rng = _stream(self.name, self.seed, index)
        ops = []
        for position in range(self.block_size):
            fmt = FORMATS[(position + index) % 3]
            if position == 0:
                ops.append(Op("baseball", {"text": BASEBALL_CONFIG, "samples": 8,
                                           "fmt": fmt, "centres": 0}))
                continue
            centres = rng.randint(0, 32)
            samples = rng.randint(256, 512) if position in self.LONG else 8
            text = random_scenario(rng, f"sweep-{index}-{position}", centres)
            ops.append(Op("scenario", {"text": text, "samples": samples,
                                       "fmt": fmt, "centres": centres}))
        return ops

    def setup(self):
        for op in self.block(-1)[:6]:
            self.check(op, self.operate(op))
        self.block(0)

    def operate(self, op):
        scenario = scenarios.load_scenario(op.args["text"])
        report = scenarios.run(scenario, samples=op.args["samples"])
        data = scenarios.emit(report, op.args["fmt"])
        failures = None
        if op.kind == "baseball":
            failures = scenarios.tolerance_failures(report, "strict")
        return data, failures

    def check(self, op, output):
        data, failures = output
        report = checks.parse_report(data, op.args["fmt"])
        checks.check_report(report, op.args["centres"])
        if op.kind == "baseball":
            checks.require(failures == [], f"strict tolerance failures: {failures}")
            checks.check_baseball(report, self.reference)
        return {}


# ---------------------------------------------------------------------------


class OracleCheck(Workload):
    """discretize -> integrate_master_equation -> extract_gaussian_coefficients
    -> GridState.momentum_variance, compared with evolve / momentum_variance.

    Pure starts (as `decogauss oracle-check`) run on every grid size;
    chirped mixed starts (as acceptance criterion 12) run on criterion 12's
    n = 192, the grid its 1e-3 gate is defined for: at n = 128 the grid
    momentum-variance stencil alone misses that gate for A/C near 5.
    """

    name = "oracle_check"
    SLOTS = (("pure", 128), ("pure", 160), ("pure", 192), ("mixed", 192), ("mixed", 192))
    trace_blocks = 1
    per_pair = True

    def __init__(self, seed):
        super().__init__(seed)
        self.offsets = _offsets(self.name, seed, len(self.SLOTS))

    def block(self, index):
        ops = []
        for (kind, n), offsets in zip(self.SLOTS, self.offsets):
            def draw(dim, low, high):
                return _spread(offsets, index, dim, low, high)

            args = {"n": n, "lam": draw(0, 0.2, 1.2), "tau": draw(1, 0.12, 0.25)}
            if kind == "pure":
                args["dx0_sq"] = draw(2, 0.3, 1.0)
            else:
                c0 = draw(2, 0.15, 0.6)
                args.update(c0=c0, a0=c0 * draw(3, 1.0, 5.0), b0=draw(4, -0.8, 0.8))
            ops.append(Op(kind, args))
        return ops

    def setup(self):
        # first-call imports and the FFT plans of every grid size
        for n in sorted({n for _, n in self.SLOTS}):
            probe = np.zeros((n, n), dtype=np.complex128)
            for axis in (0, 1):
                np.fft.ifft(np.fft.fft(probe, axis=axis), axis=axis)
        op = self.block(-1)[0]
        op.args.update(tau=0.01)
        self.check(op, self.operate(op))
        self.block(0)

    def operate(self, op):
        a = op.args
        if op.kind == "pure":
            state0 = evolution.minimum_uncertainty_initial(a["dx0_sq"])
            pad = 0.0
        else:
            state0 = evolution.GaussianDensityMatrix(a["a0"], a["b0"], a["c0"])
            pad = 0.5
        cubic = evolution.cubic_from_initial(state0, a["lam"])
        span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(a["tau"]))) + pad
        grid = oracle.discretize(state0, -span, span, a["n"])
        evolved = oracle.integrate_master_equation(grid, a["lam"], a["tau"])
        fit = oracle.extract_gaussian_coefficients(evolved)
        grid_momentum = evolved.momentum_variance()
        exact = evolution.evolve(cubic, a["tau"])
        exact_momentum = evolution.momentum_variance(cubic, a["tau"])
        return [
            abs(fit.a_coeff - exact.a_coeff) / abs(exact.a_coeff),
            abs(fit.b_coeff - exact.b_coeff) / max(abs(exact.b_coeff), 1e-6),
            abs(fit.c_coeff - exact.c_coeff) / abs(exact.c_coeff),
            abs(grid_momentum - exact_momentum) / exact_momentum,
        ]

    def check(self, op, errors):
        worst = max(errors)
        checks.require(worst <= ORACLE_TOLERANCE,
                       f"{op.kind} n={op.args['n']}: disagreement {worst:.3e}")
        return {"oracle.max_rel_err": worst}


# ---------------------------------------------------------------------------


class GridSpectrum(Workload):
    """A closed-form state sampled on the grid (no time stepping), run
    through eigendecompose_kernel and a fit round trip."""

    name = "grid_spectrum"
    SLOTS = (256, 384, 512) * 2
    trace_blocks = 2
    tail = 90

    def __init__(self, seed):
        super().__init__(seed)
        self.offsets = _offsets(self.name, seed, len(self.SLOTS))

    def block(self, index):
        ops = []
        for n, offsets in zip(self.SLOTS, self.offsets):
            def draw(dim, low, high):
                return _spread(offsets, index, dim, low, high)

            c = draw(0, 0.0625, 1.1)
            ops.append(Op("state", {"n": n, "a": c * draw(1, 1.5, 12.0),
                                    "b": draw(2, -0.5, 0.5), "c": c,
                                    "count": min(16, int(draw(3, GATED_LEVELS, 17)))}))
        return ops

    def setup(self):
        op = self.block(-1)[0]
        self.check(op, self.operate(op))
        self.block(0)

    def operate(self, op):
        a = op.args
        state = evolution.GaussianDensityMatrix(a["a"], a["b"], a["c"])
        span = 8.0 * math.sqrt(1.0 / (8.0 * a["c"])) + 2.0
        grid = oracle.discretize(state, -span, span, a["n"])
        eigvals, eigvecs = oracle.eigendecompose_kernel(grid, a["count"])
        n_mean = spectral.mean_excitation(state)
        ladder = [spectral.eigenvalue(n_mean, k) for k in range(a["count"])]
        xs = grid.xs
        overlaps = [
            abs(np.vdot(eigvecs[:, k], spectral.eigenstate_amplitude(
                spectral.eigenstate_spec(state, k), xs))) ** 2 * grid.spacing
            for k in range(GATED_LEVELS)
        ]
        fit = oracle.extract_gaussian_coefficients(grid)
        grid_momentum = grid.momentum_variance()
        return {
            "state": state,
            "eig_err": max(abs(eigvals[k] - ladder[k]) / ladder[k] for k in range(GATED_LEVELS)),
            "overlap": min(overlaps),
            "fit_err": max(
                abs(fit.a_coeff - state.a_coeff) / state.a_coeff,
                abs(fit.b_coeff - state.b_coeff) / max(abs(state.b_coeff), state.c_coeff),
                abs(fit.c_coeff - state.c_coeff) / state.c_coeff,
            ),
            "momentum": grid_momentum,
        }

    def check(self, op, out):
        state = out["state"]
        exact_momentum = 2.0 * state.a_coeff + state.b_coeff**2 / (2.0 * state.c_coeff)
        momentum_err = abs(out["momentum"] - exact_momentum) / exact_momentum
        where = f"n={op.args['n']}"
        checks.require(out["eig_err"] <= EIGENVALUE_TOLERANCE,
                       f"{where}: eigenvalue error {out['eig_err']:.3e}")
        checks.require(out["overlap"] >= OVERLAP_FLOOR, f"{where}: overlap {out['overlap']:.6f}")
        checks.require(out["fit_err"] <= FIT_TOLERANCE, f"{where}: fit error {out['fit_err']:.3e}")
        checks.require(momentum_err <= ORACLE_TOLERANCE,
                       f"{where}: momentum variance error {momentum_err:.3e}")
        return {"spectrum.max_eig_rel_err": out["eig_err"],
                "spectrum.max_overlap_deficit": 1.0 - out["overlap"]}


# ---------------------------------------------------------------------------


def capture_cli(argv):
    """Exit code and stdout bytes of an in-process `decogauss` call."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    saved, sys.stdout = sys.stdout, stream
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = saved
    stream.flush()
    return code, buffer.getvalue()


class CliCold(Workload):
    """Fresh `python -m decogauss` processes: baseball in each format,
    spectrum, and run --config with --output to a file."""

    name = "cli_cold"
    trace_blocks = 2
    per_pair = True  # per-process times are bimodal on a shared host
    TRACE_MARK = "perfbench-trace "

    def __init__(self, seed):
        super().__init__(seed)
        (HERE / ".work").mkdir(exist_ok=True)
        self.work = tempfile.TemporaryDirectory(prefix="cli-", dir=HERE / ".work")
        self.expected = {}

    def block(self, index):
        rng = _stream(self.name, self.seed, index)
        ops = [Op("baseball", {"argv": ["baseball", "--format", fmt]}) for fmt in FORMATS]
        c = _log_uniform(rng, 1e-3, 1e3)
        ops.append(Op("spectrum", {"argv": [
            "spectrum", f"--A={c * _log_uniform(rng, 1.0, 1e6)!r}",
            f"--B={c * rng.uniform(-10.0, 10.0)!r}", f"--C={c!r}"]}))
        config = Path(self.work.name) / f"scenario-{index}.ini"
        output = Path(self.work.name) / f"report-{index}.json"
        config.write_text(random_scenario(rng, f"cli-{index}", rng.randint(0, 32)))
        ops.append(Op("run", {"argv": ["run", "--config", str(config), "--format", "json",
                                       "--output", str(output)], "output": output}))
        for op in ops:
            key = tuple(op.args["argv"])
            if key not in self.expected:
                if op.kind == "run":
                    report = scenarios.run(scenarios.load_scenario(config.read_text()))
                    self.expected[key] = (0, scenarios.emit(report, "json"))
                elif op.kind == "baseball":
                    report = scenarios.run(scenarios.baseball_scenario())
                    self.expected[key] = (0, scenarios.emit(report, op.args["argv"][-1]))
                else:
                    self.expected[key] = capture_cli(op.args["argv"])
        return ops

    def setup(self):
        op = self.block(0)[0]
        self.check(op, self.operate(op))

    def close(self):
        self.work.cleanup()

    def operate(self, op):
        if self.tracer is not None and self.tracer.active:
            command = [sys.executable, str(HERE / "traced_cli.py"), *op.args["argv"]]
        else:
            command = [sys.executable, "-m", "decogauss", *op.args["argv"]]
        if "output" in op.args:
            op.args["output"].unlink(missing_ok=True)
        done = subprocess.run(command, capture_output=True, timeout=60)
        if self.tracer is not None and self.tracer.active:
            last = done.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
            if last.startswith(self.TRACE_MARK):
                self.tracer.merge(json.loads(last[len(self.TRACE_MARK):]))
        return done

    def check(self, op, done):
        want_code, want_bytes = self.expected[tuple(op.args["argv"])]
        checks.require(done.returncode == want_code,
                       f"{op.kind}: exit {done.returncode}: {done.stderr[-300:]!r}")
        got = done.stdout
        if "output" in op.args:
            checks.require(got == b"", f"{op.kind}: unexpected stdout with --output")
            got = op.args["output"].read_bytes()
        checks.require(got == want_bytes, f"{op.kind}: output differs from in-process bytes")
        return {}


WORKLOADS = {w.name: w for w in (ReportSweep, OracleCheck, GridSpectrum, CliCold)}
