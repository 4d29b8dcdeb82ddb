import itertools
import math
import random
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import omrouter
from omrouter import (NumericalFailureError, RegimeWarning, SystemParams,
                      assess_stability, default_params, denominator_d,
                      derive_operating_point, kernels, lorentzian_input,
                      output_spectra, stability)
from omrouter.operating_point import HBAR, KB
from oracles import (DETUNINGS, EXCEPTIONAL_POWER, POWERS, WM, bright_points,
                     d_at, d_coeffs, d_zeros, hierarchy_draw,
                     static_bound_draw)

_BASE = derive_operating_point(default_params())


def _point(**fields):
    return replace(_BASE, **fields)


def _random_point(rng):
    wm = 10 ** rng.uniform(4.0, 7.0)
    m = 10 ** rng.uniform(-12.0, -9.0)
    gamma_m = wm / 10 ** rng.uniform(4.0, 7.0)
    kappa = wm * 10 ** rng.uniform(-2.0, -0.5)
    delta = wm * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    g2cs2 = 10 ** rng.uniform(30.0, 42.0)
    return _point(eff_mass=m, mech_freq=wm, gamma_m=gamma_m,
                  cavity_decay=kappa, eff_detuning=delta,
                  n_cav=g2cs2 / _BASE.g ** 2,
                  bath_temp=rng.choice([0.0, 20e-3, 0.3]))


_POINTWISE = ("reflection_R", "transmission_T", "vacuum_noise",
              "thermal_noise")


def test_kernel_matches_pointwise_formulas(op_5uw):
    # the guarded pointwise functions are the grid kernel's rows: on a
    # linspace grid and at 2,000 random frequencies around the window, as
    # 1-d and 2-d arrays and as scalars, which give floats
    import omrouter
    op = op_5uw
    rng = np.random.default_rng(1049)
    for grid in (np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, 101),
                 rng.uniform(0.5, 1.5, 2000) * op.mech_freq):
        rows = kernels.channel_arrays(grid, op)
        for name, row in zip(_POINTWISE, rows):
            channel = getattr(omrouter, name)
            assert np.array_equal(channel(grid, op), row)
            assert np.array_equal(channel(np.stack((grid, grid[::-1])), op),
                                  np.stack((row, row[::-1])))
            for w, expected in zip(grid[:200].tolist(), row[:200].tolist()):
                value = channel(w, op)
                assert type(value) is float and value == expected


def test_channels_nonnegative_random_parameters():
    rng = np.random.default_rng(99)
    for _ in range(25):
        op = _random_point(rng)
        grid = np.linspace(0.1 * op.mech_freq, 3.0 * op.mech_freq, 301)
        for channel in kernels.channel_arrays(grid, op):
            assert np.all(channel >= 0.0)
            assert np.all(np.isfinite(channel))


# red-detuned points inside gamma_m << kappa << omega_m (factors of 10 or
# more); the few past their stability threshold are discarded
_hierarchy_points = st.builds(
    lambda log_wm, log_kappa, log_gamma, detuning, log_power, log_mass, temp:
        replace(default_params(),
                mech_freq=10 ** log_wm,
                cavity_decay=10 ** (log_wm + log_kappa),
                quality=10 ** -(log_kappa + log_gamma),
                eff_detuning=detuning * 10 ** log_wm,
                drive_power=10 ** log_power,
                eff_mass=10 ** log_mass,
                bath_temp=temp),
    log_wm=st.floats(4.0, 7.0),
    log_kappa=st.floats(-2.5, -1.0),
    log_gamma=st.floats(-4.0, -1.0),
    detuning=st.floats(0.5, 1.5),
    log_power=st.floats(-9.0, -4.5),
    log_mass=st.floats(-12.0, -9.0),
    temp=st.floats(0.0, 0.3),
)


@settings(deadline=None)
@given(params=_hierarchy_points, x=st.floats(0.1, 3.0))
def test_kernel_matches_pointwise_at_scalar_frequency(params, x):
    from omrouter import reflection_R, thermal_noise, transmission_T, vacuum_noise
    op = derive_operating_point(params)
    assume(assess_stability(op).stable)
    w = x * op.mech_freq
    refl, trans, sv, st_ = kernels.channel_arrays(w, op)
    assert refl[0] == reflection_R(w, op)
    assert trans[0] == transmission_T(w, op)
    assert sv[0] == vacuum_noise(w, op)
    assert st_[0] == thermal_noise(w, op)

    dark = derive_operating_point(replace(params, drive_power=0.0))
    r_off, t_off, _, _ = kernels.channel_arrays(w, dark)
    assert math.isclose(r_off[0] + t_off[0], 1.0, rel_tol=0.0, abs_tol=1e-12)


def test_thermal_weight_vacuum_limit():
    w = np.array([1.0, 1e3, 1e6])
    out = kernels.thermal_weight(w, _point(gamma_m=1.0, eff_mass=1e-11,
                                           bath_temp=0.0))
    assert np.all(out == 0.0)


def _bath(temp):
    return _point(gamma_m=0.7, eff_mass=4e-11, bath_temp=temp)


def test_thermal_weight_zero_frequency_classical_limit():
    kbt = KB * 20e-3
    # at omega = 0, and at frequencies so low that hbar*gamma_m*m*omega
    # underflows (1e-285 rad/s) or x does (1e-300 rad/s)
    low = np.array([0.0, 1e-285, -1e-285, 1e-300])
    weights = kernels.thermal_weight(low, _bath(20e-3))
    # the weights are ~1e-35: without abs=0, approx's default absolute
    # tolerance of 1e-12 would accept any value
    assert weights == pytest.approx(2.0 * 0.7 * 4e-11 * kbt, rel=1e-12,
                                    abs=0.0)
    exact = weights[0]
    # and the omega -> 0 approach is continuous
    near = kernels.thermal_weight(np.array([1e-6]), _bath(20e-3))[0]
    assert near == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_thermal_weight_guard_crossover_continuous():
    kbt = KB * 20e-3
    w30 = 30.0 * kbt / HBAR
    # either side of x = 30, where the absorption weight is ~1e-13 of the
    # classical one, it is the exact weight at its own frequency; the two
    # sides differ by ~6e-8 from the slope alone, so comparing them with
    # each other at 1e-9 would need approx's default abs of 1e-12
    for w in (w30 * (1 - 1e-9), w30 * (1 + 1e-9)):
        got = kernels.thermal_weight(np.array([w]), _bath(20e-3))[0]
        exact = 2.0 * HBAR * 0.7 * 4e-11 * w / math.expm1(HBAR * w / kbt)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_thermal_weight_against_mpmath():
    # 2*hbar*gamma_m*m*omega/expm1(x) to 50 digits, x = hbar*omega/(kB*T)
    # from +-1e-300 to +-700 and 0; the bath makes kB*T = 1 J, so that
    # every weight and every factor of it is a normal float.  The weight's
    # condition number in x is about |x|, so the reference takes the x
    # the kernel forms: from there it must be exact to a few ulp
    op = _point(gamma_m=1.0, eff_mass=1.0, bath_temp=1.0 / KB)
    kbt = KB * op.bath_temp
    xs = [1e-300, 1e-200, 1e-100, 1e-16, 3e-16, 1e-8, 1e-3, 0.5, 1.0, 10.0,
          30.0 * (1 - 1e-9), 30.0 * (1 + 1e-9), 30.5, 37.0, 100.0, 300.0,
          700.0]
    w = np.array([0.0] + [x * (kbt / HBAR) for x in xs + [-x for x in xs]])
    got = kernels.thermal_weight(w, op)
    with mpmath.workdps(50):
        for omega, value in zip(w.tolist(), got.tolist()):
            x = mpmath.mpf(HBAR * omega / kbt)
            # x/expm1(x) -> 1 at x = 0: the classical limit 2*gamma_m*m*kB*T
            ratio = x / mpmath.expm1(x) if x else mpmath.mpf(1)
            exact = 2 * mpmath.mpf(kbt) * ratio
            assert abs(value / exact - 1) <= 4 * np.finfo(float).eps, omega


def test_thermal_weight_detailed_balance():
    w = np.array([2e5])
    up = kernels.thermal_weight(w, _bath(0.1))[0]
    down = kernels.thermal_weight(-w, _bath(0.1))[0]
    # emission exceeds absorption by exactly the spontaneous term
    assert down - up == pytest.approx(2.0 * HBAR * 0.7 * 4e-11 * w[0],
                                      rel=1e-9, abs=0.0)


# design-scan pool points (power, bath temperature); bath_temp 0 takes the
# vacuum branch of the thermal weight
_DESIGN_POINTS = [(1e-6, 0.0), (5e-6, 20e-3), (20e-6, 50e-3)]


def _design_point(power, temp):
    return derive_operating_point(replace(default_params(), drive_power=power,
                                          bath_temp=temp))


@pytest.mark.parametrize("power,temp", _DESIGN_POINTS)
def test_channel_bits_do_not_depend_on_array_size(power, temp):
    # numpy reuses temporaries of 256 KiB or more in place; where that
    # swaps a complex product's operands, the whole grid and its slices
    # would round differently
    op = _design_point(power, temp)
    grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, 200001)
    whole = kernels.channel_arrays(grid, op)
    pieces = zip(*(kernels.channel_arrays(grid[i:i + 4001], op)
                   for i in range(0, grid.size, 4001)))
    for got, parts in zip(whole, pieces):
        assert np.array_equal(got, np.concatenate(parts))


@pytest.mark.parametrize("power,temp", _DESIGN_POINTS)
def test_transmission_is_the_channel_t(power, temp):
    op = _design_point(power, temp)
    for n in (1, 84, 200001):
        grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, n)
        expected = kernels.channel_arrays(grid, op)[1]
        assert np.array_equal(kernels.transmission(grid, op), expected)
    assert kernels.transmission(np.empty(0), op).shape == (0,)


@pytest.mark.parametrize("n", [84, 4001, 200001])
@pytest.mark.parametrize("power,temp", [p for p in _DESIGN_POINTS if p[1]])
def test_thermal_channel_is_the_one_formula_bit_for_bit(n, power, temp):
    # St on the spectra's grids, and at frequencies with x between 1e-15
    # and 30, is the expression below evaluated block by block, with d
    # from the block pass: the frozen spectra pin these bits
    op = _design_point(power, temp)
    kbt = KB * temp
    amp = 2.0 * HBAR * op.gamma_m * op.eff_mass
    rng = np.random.default_rng(n)
    for grid in (np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, n),
                 np.sort(10 ** rng.uniform(-15.0, np.log10(30.0), n))
                 * (kbt / HBAR)):
        expected = np.empty(n)
        for b, w, _, d, _, _ in kernels._pass(grid, op):
            weight = amp * w * (1.0 / np.expm1(HBAR * w / kbt))
            sb = 2.0 * op.cavity_decay - 1j * (op.eff_detuning + w)
            v2 = 2.0 * op.cavity_decay * (op.g ** 2 * op.n_cav) \
                * np.abs(sb) ** 2
            expected[b] = v2 / np.abs(d) ** 2 * weight
        assert np.array_equal(kernels.channel_arrays(grid, op)[3], expected)


@pytest.mark.parametrize("n", [84, 4001, 200001])
@pytest.mark.parametrize("temp", [20e-3, 0.3])
def test_thermal_weight_fast_branch_matches_general_path(n, temp):
    op = _design_point(5e-6, temp)
    grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, n)
    # one omega = 0 point in front takes the classical limit and leaves
    # every other value's bits as they are
    general = kernels.thermal_weight(np.concatenate(([0.0], grid)), op)
    assert np.array_equal(kernels.thermal_weight(grid, op), general[1:])


_EDGES = (1, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1,
          2 * kernels.BLOCK + 3)


def _pieces(n, cuts, least=1):
    """Slices of a grid of n points cut at those of ``cuts`` that leave
    ``least`` points or more before and after them."""
    bounds = [0, *(c for c in cuts if least <= c <= n - least), n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("n", _EDGES)
@pytest.mark.parametrize("power,temp", _DESIGN_POINTS)
def test_block_edges_bit_for_bit(n, power, temp):
    # a grid of n points and its slices, cut next to the block edges,
    # give the same bits: nothing one block writes to its scratch reaches
    # the next, and a 1-point block rounds as a long one
    op = _design_point(power, temp)
    grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, n)
    block = kernels.BLOCK
    cuts = (1, 3, block - 2, block + 1, 2 * block, 2 * block + 2)
    whole = kernels.channel_arrays(grid, op)
    parts = [kernels.channel_arrays(grid[p], op) for p in _pieces(n, cuts)]
    for row, got in enumerate(whole):
        assert np.array_equal(got, np.concatenate([q[row] for q in parts]))
    assert np.array_equal(kernels.transmission(grid, op), np.concatenate(
        [kernels.transmission(grid[p], op) for p in _pieces(n, cuts)]))
    if n < 2:
        return
    # output_spectra takes 2 points or more a call
    spec = output_spectra(grid, op)
    parts = [output_spectra(grid[p], op) for p in
             _pieces(n, (2, block - 1, block + 1, 2 * block), least=2)]
    rows = ("R", "Tx", "Sv", "St", "Scout", "Sdout")
    for name, got in zip(rows, whole):
        assert np.array_equal(getattr(spec, name), got)
    for name in rows:
        assert np.array_equal(getattr(spec, name), np.concatenate(
            [getattr(q, name) for q in parts]))
    # the ports are the line's mix of the channels to the bit
    scin = op.mech_freq * lorentzian_input(grid, op.input_center,
                                           op.input_bandwidth)
    assert np.array_equal(spec.Scout, scin * spec.R + spec.Sv)
    assert np.array_equal(spec.Sdout, scin * spec.Tx + spec.St)


def test_channel_arrays_keeps_the_grid_shape(op_5uw):
    op = op_5uw
    grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, 20000)
    flat = kernels.channel_arrays(grid, op)
    square = kernels.channel_arrays(grid.reshape(100, 200), op)
    for a, b in zip(flat, square):
        assert b.shape == (100, 200)
        assert np.array_equal(a, b.ravel())


@pytest.mark.parametrize("field, value", [
    ("mech_freq", 1e-100), ("eff_mass", 1e-300), ("quality", 1e300)])
def test_zero_over_zero_channels_raise(field, value):
    # with the drive off Sv and St have zero numerators, and here |d|^2
    # underflows to 0 on every grid point (or at omega = omega_m): 0/0
    # once left NaN in the spectra behind a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        op = derive_operating_point(
            replace(default_params(), drive_power=0.0, **{field: value}))
    grid = np.linspace(0.5, 1.5, 3) * op.mech_freq
    for evaluate in (kernels.channel_arrays, output_spectra):
        with pytest.raises(NumericalFailureError,
                           match="channels are not finite"):
            evaluate(grid, op)


def test_zero_over_zero_transmission_raises():
    # an undamped membrane with the drive off: d(omega_m) = 0 exactly, and
    # so is the numerator of E
    op = _point(gamma_m=0.0, n_cav=0.0)
    grid = np.array([0.5, 1.0, 1.5]) * op.mech_freq
    for evaluate in (kernels.transmission, kernels.channel_arrays):
        with pytest.raises(NumericalFailureError,
                           match="invalid value encountered in divide"):
            evaluate(grid, op)


@settings(deadline=None, max_examples=60)
@given(params=bright_points, x=st.floats(0.0, 2.0))
def test_kernel_d_is_within_its_scale_of_the_exact_d(params, x):
    # kernels.scale bounds the grid kernel's rounding of d: within _ROUND
    # of m*omega_m^4*scale of d formed at 40 digits from the point's floats
    op = derive_operating_point(params)
    w = x * op.mech_freq
    d = complex(denominator_d(w, op))
    with mpmath.workdps(40):
        err = float(abs(d - d_at(op, w)))
    wm = op.mech_freq
    bound = kernels._ROUND * op.eff_mass * wm ** 4 \
        * kernels.scale(kernels.reduced(op), abs(w) / wm)
    assert err <= bound


def test_hurwitz_bounds_past_the_float_range_raise():
    # at omega_m = 1e55 rad/s the drive-free part of the Hurwitz bound,
    # of order kappa*gamma_m*kappa^2*omega_m^2, overflows: no verdict is
    # read off an inf, and every checked entry point refuses the point
    wm = 1e55
    op = derive_operating_point(replace(
        default_params(), mech_freq=wm, cavity_decay=0.1 * wm,
        eff_detuning=wm))
    with pytest.raises(NumericalFailureError, match="Hurwitz"):
        kernels.is_stable(op)
    with pytest.raises(NumericalFailureError, match="Hurwitz"):
        output_spectra(np.array([0.9, 1.1]) * wm, op)


def _derived(**fields):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return derive_operating_point(replace(default_params(), **fields))


def test_hurwitz_bound_over_an_underflowing_a3_squared_raises():
    # a3 = 4*kappa + gamma_m is about 4e-192 rad/s here, and a3^2
    # underflows to 0: -H/a3^2 once ended in a bare ZeroDivisionError
    fields = {"quality": 2e197, "cavity_decay": 2.8e-202}
    op = _derived(**fields)
    calls = [lambda: kernels.stable_drive_window(op),
             lambda: assess_stability(op),
             lambda: output_spectra(np.array([0.9, 1.1]) * op.mech_freq, op),
             lambda: omrouter.routing_probabilities(op),
             lambda: omrouter.eit_linewidth_scan(op),
             lambda: omrouter.max_stable_power(
                 replace(default_params(), **fields), 1e-3)]
    calls += [lambda name=name: getattr(omrouter, name)(op.mech_freq, op)
              for name in _POINTWISE]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with pytest.raises(NumericalFailureError, match="Hurwitz"):
                call()


def test_overflowing_classical_thermal_limit_raises():
    # 2*gamma_m*m*kB*T is about 2e352 here, a Python product whose inf
    # sets no numpy flag: thermal_noise once returned inf
    op = _derived(quality=2e-89, bath_temp=1.8e291)
    grid = np.array([0.9, 1.0, 1.1]) * op.mech_freq
    for call in (lambda: kernels.thermal_weight(grid, op),
                 lambda: omrouter.thermal_noise(op.mech_freq, op),
                 lambda: kernels.channel_arrays(grid, op),
                 lambda: output_spectra(grid, op)):
        with pytest.raises(NumericalFailureError, match="classical limit"):
            call()


def _draws(draw, seed, n):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(n)]


def _points(powers, detunings):
    return [derive_operating_point(SystemParams(
        drive_power=power, eff_detuning=detuning * WM))
        for power in powers for detuning in detunings]


# the zero sets that the finder of d's zeros answers for, each a list of
# points made when its test runs
_ZERO_SETS = {
    # the benchmark's design pool: its baths move no zero
    "pool": lambda: _points(POWERS, DETUNINGS),
    # two zeros merge at the exceptional power, and a zero there moves by
    # about the square root of D's rounding
    "exceptional-sweep": lambda: _points(
        [EXCEPTIONAL_POWER * (1.0 + sign * step)
         for step in (0.0, 1e-9, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)
         for sign in ((1.0,) if step == 0.0 else (1.0, -1.0))], [1.0]),
    # a zero next to u = 0, where a0 is 3e-4 to 0.1 of c0
    "red-static-bound": lambda: _draws(static_bound_draw, 5, 150),
    # D = mech*cav, at the design detunings and on hierarchy geometries
    "zero-drive": lambda: _points([0.0], DETUNINGS) + [
        derive_operating_point(replace(op.as_params(), drive_power=0.0))
        for op in _draws(hierarchy_draw, 1, 30)],
    # blue detuning: unstable, a zero above the real axis
    "blue": lambda: _points(POWERS, [-d for d in DETUNINGS]),
    "hierarchy": lambda: _draws(hierarchy_draw, 11, 200),
}


def _zero_error(found, exact):
    """The largest distance [omega_m] from a found zero to its exact one,
    under the pairing of the four that makes it least."""
    exact = [complex(z) for z in exact]
    return min(max(abs(f - e) for f, e in zip(order, exact))
               for order in itertools.permutations(found))


@pytest.mark.parametrize("name", _ZERO_SETS)
def test_zeros_against_50_digit_roots(name):
    # kernels.zeros is within 4 ulp of 1 of D's exact zeros, formed at 50
    # digits from the point's floats, and within 1e-11 across the
    # exceptional point (6.0e-12 measured there); on every set its worst
    # error is no worse than np.roots' in stability.poles (6.6e-10 across
    # the exceptional point, up to 2.1e-14 elsewhere)
    worst = worst_roots = 0.0
    for op in _ZERO_SETS[name]():
        with mpmath.workdps(50):
            exact = d_zeros(d_coeffs(op))
        worst = max(worst, _zero_error(
            kernels.zeros(kernels.reduced(op))[0], exact))
        worst_roots = max(worst_roots, _zero_error(
            stability.poles(op)[0].tolist(), exact))
    assert worst <= (1e-11 if name == "exceptional-sweep"
                     else 4.0 * np.finfo(float).eps)
    assert worst <= worst_roots
