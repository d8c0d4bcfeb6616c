import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shock_oracles import density_sound_pseudo_mach
from wedgeflow.gas import (
    GasModel,
    VacuumError,
    c2_of_pi,
    constant_state_potential,
    pi_inverse,
    pi_of_rho,
)

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)


def test_pi_at_reference_is_zero():
    assert pi_of_rho(AIR, 1.0) == 0.0
    assert pi_of_rho(ISO, 1.0) == 0.0


def test_pi_isothermal_log():
    assert pi_of_rho(ISO, math.e) == pytest.approx(1.0, abs=1e-15)


def test_pi_air_direct_value():
    # (2^0.4 - 1)/0.4 evaluated independently with mpmath at 50 digits
    expected = 0.798769776932235648435
    assert pi_of_rho(AIR, 2.0) == pytest.approx(expected, rel=1e-15)


def test_pressure_and_pi_reference_identities():
    # p_rho(rho0) = c0^2 and pi(rho0) = 0
    for model in (AIR, ISO, GasModel(gamma=3.0, rho0=0.7, c0=2.5)):
        assert model.sound_speed(model.rho0) == pytest.approx(model.c0, rel=1e-15)
        assert pi_of_rho(model, model.rho0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gamma", "rho0", "c0"])
def test_non_finite_model_parameter_rejected(name, value):
    # GasModel(1.4, c0=inf) once built a pattern whose eta_R* was nan
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        GasModel(**{"gamma": 1.4, name: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"gamma": 0.9}, r"^gamma must be >= 1, got 0\.9$"),
        ({"gamma": 1.4, "rho0": 0.0}, "^reference density and sound speed must be positive$"),
        ({"gamma": 1.4, "c0": -1.0}, "^reference density and sound speed must be positive$"),
    ],
)
def test_model_parameter_out_of_range_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GasModel(**kwargs)


def test_nonpositive_density_rejected():
    with pytest.raises(VacuumError):
        pi_of_rho(AIR, 0.0)
    with pytest.raises(VacuumError):
        pi_of_rho(AIR, -1.0)


@pytest.mark.parametrize("bad", [-1.0, math.inf])
@pytest.mark.parametrize(
    "closure", [AIR.sound_speed, lambda rho: pi_of_rho(AIR, rho)], ids=["sound_speed", "pi_of_rho"]
)
def test_array_density_error_is_one_line_naming_the_cell(closure, bad):
    rho = np.ones((50, 60))
    rho[3, 7] = bad
    with pytest.raises(VacuumError) as info:
        closure(rho)
    msg = str(info.value)
    assert "\n" not in msg
    assert "(3, 7)" in msg and repr(bad) in msg


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "closure", [AIR.sound_speed, ISO.sound_speed, lambda rho: pi_of_rho(AIR, rho)],
    ids=["sound_speed", "isothermal_sound_speed", "pi_of_rho"],
)
@pytest.mark.parametrize("kind", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_scalar_density_error_names_the_value(closure, bad, kind):
    with pytest.raises(VacuumError) as info:
        closure(kind(bad))
    assert str(info.value) == f"density must be positive and finite, got {kind(bad)}"


def test_pi_inverse_at_reference():
    for model in (AIR, ISO, GasModel(gamma=5 / 3, rho0=2.0, c0=0.5)):
        assert pi_inverse(model, 0.0) == pytest.approx(model.rho0, rel=1e-15)


def test_pi_inverse_vacuum_bound():
    # c0^2/(gamma-1) = 2.5 for air with c0 = 1
    rho = pi_inverse(AIR, -2.5 + 1e-12)
    assert rho > 0.0
    assert rho < 1e-25
    with pytest.raises(VacuumError):
        pi_inverse(AIR, -2.5)
    with pytest.raises(VacuumError):
        pi_inverse(AIR, -3.0)
    # isothermal gas has no vacuum bound
    assert pi_inverse(ISO, -100.0) > 0.0


@pytest.mark.parametrize("gamma", [1.0, 1.4, 5 / 3])
def test_pi_round_trip(gamma):
    model = GasModel(gamma=gamma, rho0=1.3, c0=0.8)
    rho = np.geomspace(1e-3, 1e3, 301)
    back = pi_inverse(model, pi_of_rho(model, rho))
    assert np.max(np.abs(back / rho - 1.0)) < 1e-12


def test_pi_round_trip_stiff_gamma():
    # at gamma = 3 and rho = 1e-3 rho0 the float width of pi near the vacuum
    # bound caps the attainable round-trip accuracy near 1e-10
    model = GasModel(gamma=3.0, rho0=1.3, c0=0.8)
    rho = np.geomspace(1e-3, 1e3, 301)
    back = pi_inverse(model, pi_of_rho(model, rho))
    assert np.max(np.abs(back / rho - 1.0)) < 1e-9


@pytest.mark.parametrize("gamma", [1.0, 1.4, 3.0])
def test_pi_strictly_increasing(gamma):
    model = GasModel(gamma=gamma)
    rho = np.geomspace(1e-3, 1e3, 200)
    vals = pi_of_rho(model, rho)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("gamma", [1.0, 1.4, 5 / 3, 3.0])
def test_sound_speed_matches_pressure_derivative(gamma):
    # c^2 = p_rho via central differences of p = c0^2 rho0 / gamma (rho/rho0)^gamma
    model = GasModel(gamma=gamma, rho0=1.1, c0=1.7)

    def pressure(rho):
        return model.c0**2 * model.rho0 / model.gamma * (rho / model.rho0) ** model.gamma

    for rho in np.geomspace(1e-2, 1e2, 17):
        h = 1e-6 * rho
        p_rho = (pressure(rho + h) - pressure(rho - h)) / (2 * h)
        assert model.sound_speed(rho) ** 2 == pytest.approx(p_rho, rel=1e-8)


@pytest.mark.parametrize("gamma", [1.0, 1.1, 1.4, 5 / 3, 3.0, 10.0])
@pytest.mark.parametrize("rho0, c0", [(1.0, 1.0), (0.7, 2.5), (13.0, 0.11), (1e-3, 17.0)])
def test_c2_of_pi_matches_the_sound_speed_at_and_above_rho0(gamma, rho0, c0):
    model = GasModel(gamma=gamma, rho0=rho0, c0=c0)
    rho = rho0 * np.geomspace(1.0, 1e3, 401)
    c2 = c2_of_pi(model, pi_of_rho(model, rho))
    assert np.max(np.abs(c2 / model.sound_speed(rho) ** 2 - 1.0)) < 1e-14
    assert type(c2_of_pi(model, pi_of_rho(model, 2.0 * rho0))) is float


def test_c2_of_pi_is_finite_and_nonnegative_near_vacuum():
    # unclamped, c0^2 + (gamma - 1) pi rounds below 0 here: c = sqrt(c^2) would be NaN
    model = GasModel(gamma=3.4, c0=2.5)
    a = pi_of_rho(model, 1e-10)
    assert model.c0**2 + (model.gamma - 1.0) * a < 0.0
    assert c2_of_pi(model, a) == 0.0
    rho = np.array([1e-10, 1e-9, 1e-6])
    scan = [(g, c0, rho0) for g in np.linspace(1.8, 10.0, 42) for c0 in np.geomspace(0.11, 17.0, 15)
            for rho0 in (0.3, 1.0, 7.0)]
    for gamma, c0, rho0 in [(2.63, 0.7, 1.0)] + scan:
        model = GasModel(gamma=gamma, rho0=rho0, c0=c0)
        c2 = c2_of_pi(model, pi_of_rho(model, rho0 * rho))
        assert np.all(np.isfinite(c2)) and np.all(c2 >= 0.0), (gamma, c0, rho0)


def test_c2_of_pi_passes_a_nan_through():
    assert math.isnan(c2_of_pi(AIR, math.nan))
    c2 = c2_of_pi(AIR, np.array([math.nan, 0.0]))
    assert math.isnan(c2[0]) and c2[1] == 1.0


def test_gamma_to_one_limit():
    near = GasModel(gamma=1.0 + 1e-8)
    rho = np.geomspace(1e-2, 1e2, 50)
    a, b = pi_of_rho(near, rho), pi_of_rho(ISO, rho)
    mask = np.abs(b) > 1e-12
    assert np.max(np.abs((a[mask] - b[mask]) / b[mask])) < 1e-6


def test_reference_self_similar_point():
    rho, c, L = density_sound_pseudo_mach(AIR, 0.0, (0.0, 0.0))
    assert (rho, c, L) == (pytest.approx(1.0), pytest.approx(1.0), 0.0)


def test_isothermal_direct_point():
    rho, c, L = density_sound_pseudo_mach(ISO, -1.0, (1.0, 0.0))
    assert rho == pytest.approx(math.exp(0.5), rel=1e-14)
    assert c == pytest.approx(1.0)
    assert L == pytest.approx(1.0)


@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_constant_state_pseudo_mach_circle(gamma):
    # affine potential: L = |xi - v|/c, so L = 1 exactly on |xi - v| = c
    model = GasModel(gamma=gamma)
    rho_c, v_c = 1.7, np.array([0.4, -0.1])
    psi, _ = constant_state_potential(model, rho_c, v_c)
    c_c = float(model.sound_speed(rho_c))
    rng = np.random.default_rng(7)
    for ang in rng.uniform(0, 2 * math.pi, 12):
        xi = v_c + c_c * np.array([math.cos(ang), math.sin(ang)])
        chi = psi(xi) - 0.5 * xi @ xi
        rho, c, L = density_sound_pseudo_mach(model, chi, v_c - xi)
        assert rho == pytest.approx(rho_c, rel=1e-13)
        assert c == pytest.approx(c_c, rel=1e-13)
        assert L == pytest.approx(1.0, abs=1e-13)


# The closures compute in place on their one result array; they must give the
# bits of the one-line expressions they replace, for arrays and for scalars.
@given(
    gamma=st.sampled_from([1.0, 1.4, 5 / 3, 3.0]),
    rho0=st.floats(0.05, 20.0).filter(lambda x: x != 1.0),
    c0=st.floats(0.05, 20.0).filter(lambda x: x != 1.0),
    rho=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=70),
)
def test_closures_equal_the_one_line_expressions(gamma, rho0, c0, rho):
    model = GasModel(gamma=gamma, rho0=rho0, c0=c0)
    gm1 = gamma - 1.0

    def old_sound_speed(r):
        if model.isothermal:
            return c0 * np.ones_like(r) if isinstance(r, np.ndarray) else c0
        return c0 * (r / rho0) ** (0.5 * gm1)

    def old_pi(r):
        t = np.asarray(r, dtype=float) / rho0
        out = c0**2 * np.log(t) if model.isothermal else c0**2 * np.expm1(gm1 * np.log(t)) / gm1
        return float(out) if np.ndim(r) == 0 else out

    arr = np.array(rho)
    for r in (arr, arr[::-1].reshape(1, -1)):
        assert model.sound_speed(r).tobytes() == old_sound_speed(r).tobytes()
        assert pi_of_rho(model, r).tobytes() == old_pi(r).tobytes()
    for r in rho[:5]:
        c, p = model.sound_speed(r), pi_of_rho(model, r)
        assert type(c) is float and type(p) is float
        assert np.float64(c).tobytes() == np.float64(old_sound_speed(r)).tobytes()
        assert np.float64(p).tobytes() == np.float64(old_pi(r)).tobytes()
