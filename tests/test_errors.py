"""Every public entry point turns a value that is not a valid number into ParameterError."""

import numpy as np
import pytest

from qnspect import (
    AffineConstraintSet,
    FilterFunctionGrid,
    ParameterError,
    PiecewiseConstantWaveform,
    SpectrumModel,
    WaveformCoefficients,
    amplitude_ff,
    amplitude_ff_integral,
    build_design_problem,
    dephasing_ff,
    dephasing_robust,
    dpss,
    error_vector_first_order,
    free_induction_chi,
    higher_order_ff,
    lp_max,
    modulated_dpss_waveform,
    overlap_matrix,
    propagate,
    prune_constraints,
    psd_eval,
    reconstruct,
    root_index_for_peak_rate,
    sample_many,
    spectral_concentration,
    t2_estimate,
)
from qnspect.errors import _finite, _positive, _real
from qnspect.optimize import amplitude_constraints
from qnspect.slepian import toeplitz_kernel

MHZ = 2 * np.pi * 1e6
N = 64
WF = PiecewiseConstantWaveform(np.sin(0.3 * np.arange(N)), 1e-8)
ZEROS = np.zeros(N)
FLAT = SpectrumModel.flat_cutoff(1.04e-11, 2 * MHZ)
PINK = SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ)
ROWS = AffineConstraintSet(rows=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], labels=[0, 1, 2])
MATRIX = overlap_matrix([WF], 1, 1 * MHZ)

# each thunk hands one public entry point a value that is not a valid number
PROBES = {
    "sample_many-dt-none": lambda: sample_many(FLAT, 100, None, 0, [0]),
    "lp_max-objective-string": lambda: lp_max(["a", 1], ROWS),
    "waveform-dt-bool": lambda: PiecewiseConstantWaveform([1.0], True),
    "prune-eps-string": lambda: prune_constraints(ROWS, "x"),
    "prune-seed-string": lambda: prune_constraints(ROWS, 0.1, rng_seed="x"),
    "dephasing_robust-duration-string": lambda: dephasing_robust("x", 1, 1, 10),
    "overlap_matrix-band-width-string": lambda: overlap_matrix([WF], 1, "x"),
    "dpss-bandwidth-string": lambda: dpss(32, "x"),
    "root_index-rate-string": lambda: root_index_for_peak_rate("x", 5 * MHZ),
    "t2_estimate-horizon-string": lambda: t2_estimate(PINK, "x"),
    "free_induction_chi-time-string": lambda: free_induction_chi(PINK, "x"),
    "concentration-center-string": lambda: spectral_concentration(WF, "x", 1 * MHZ),
    "concentration-halfwidth-string": lambda: spectral_concentration(WF, 0.0, "x"),
    "waveform-samples-string": lambda: PiecewiseConstantWaveform(["a"], 1e-8),
    "ff_integral-samples-string": lambda: amplitude_ff_integral(["a"], 1e-8, [1 * MHZ]),
    "reconstruct-measurements-string": lambda: reconstruct(["a"], MATRIX),
    "constraint-rows-string": lambda: AffineConstraintSet(rows=["a"], labels=[0]),
    "inequalities-rhs-string": lambda: AffineConstraintSet.from_inequalities([[1.0]], ["a"]),
    "coefficients-string": lambda: WaveformCoefficients(1 * MHZ, ["a"], [1.0]),
    "psd_eval-frequency-string": lambda: psd_eval(FLAT, ["a"]),
    "spectrum-parameter-string": lambda: SpectrumModel.flat_cutoff("x", 2 * MHZ),
    "amplitude_ff-frequency-string": lambda: amplitude_ff(WF, ["a"]),
    "dephasing_ff-frequency-string": lambda: dephasing_ff(WF, ["a"]),
    "higher_order_ff-frequency-string": lambda: higher_order_ff(WF, ["a"], [0.0]),
    "ff_grid-frequency-string": lambda: FilterFunctionGrid(["a"], [1.0], 1e-6),
    "design-omega0-string": lambda: build_design_problem("x", 32, 1e-8, 5 * MHZ),
    "design-length-string": lambda: build_design_problem(1 * MHZ, "x", 1e-8, 5 * MHZ),
    "constraints-dt-string": lambda: amplitude_constraints(dpss(32, 1 / 32), 1 * MHZ, "x",
                                                           5 * MHZ, 1),
    "dpss_waveform-bandwidth-string": lambda: modulated_dpss_waveform(N, "x", 5 * MHZ, 0.0,
                                                                      1e-8),
    "toeplitz_kernel-length-string": lambda: toeplitz_kernel("x", 0.1),
    "toeplitz_kernel-bandwidth-string": lambda: toeplitz_kernel(8, "x"),
    "toeplitz_kernel-bandwidth-nan": lambda: toeplitz_kernel(8, np.nan),
    "propagate-noise-string": lambda: propagate(WF, ["a"] * N, ZEROS),
    "error_vector-noise-string": lambda: error_vector_first_order(WF, ZEROS, ["a"] * N),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_a_value_that_is_not_a_valid_number_raises_parameter_error(probe):
    with pytest.raises(ParameterError):
        probe()


def test_an_infinite_band_halfwidth_is_the_whole_line():
    assert spectral_concentration(WF, 0.0, np.inf) == 1.0


@pytest.mark.parametrize("value", [True, np.True_, None, "x", [1.0], np.nan, np.inf, -np.inf,
                                   pytest.param(10 ** 400, id="int-past-float-range")])
def test_real_refuses_what_is_not_one_finite_number(value):
    with pytest.raises(ParameterError):
        _real(value, "value")


def test_real_reads_numbers_and_numeric_strings():
    assert _real("5.0", "value") == 5.0
    assert _real(np.float32(0.5), "value") == 0.5
    assert type(_real(np.float64(2.0), "value")) is float


@pytest.mark.parametrize("value", [0.0, -1.0, "0"])
def test_positive_refuses_zero_and_below(value):
    with pytest.raises(ParameterError):
        _positive(value, "value")


@pytest.mark.parametrize("values", [["a"], [[1.0], [1.0, 2.0]], [np.nan], [1.0, np.inf],
                                    [10 ** 400]])
def test_finite_refuses_arrays_that_are_not_finite_numbers(values):
    with pytest.raises(ParameterError):
        _finite(values, "values")
