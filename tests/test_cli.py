import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graviphoton
from graviphoton import (
    GaussianProfile,
    LinkScenario,
    NumericalError,
    ObserverPath,
    SampledGridProfile,
    SchwarzschildGeometry,
    cli,
    qber_bandwidth_sweep,
    redshift_static_static,
    wavepacket,
)
from graviphoton.constants import EARTH_MASS_KG, EARTH_RADIUS_M

W0 = 2.0 * math.pi * 4.3e14
SIG = 2.0 * math.pi * 1.0e5


def base_link(task):
    return {
        "task": task,
        "body": {"mass_kg": EARTH_MASS_KG},
        "emitter": {"type": "static", "radius_m": EARTH_RADIUS_M},
        "receiver": {"type": "static", "radius_m": EARTH_RADIUS_M + 5.0e5},
    }


def photon_block():
    return {"kind": "gaussian", "omega0_rad_s": W0, "sigma_rad_s": SIG, "phase_rad": 0.0}


def grid_block(profile):
    amp = profile.amplitude
    return {
        "kind": "grid",
        "omega_rad_s": profile.omega_rad_s.tolist(),
        "re": amp.real.tolist(),
        "im": amp.imag.tolist(),
    }


def config_for(task):
    if task == "redshift":
        return base_link("redshift")
    if task == "overlap":
        cfg = base_link("overlap")
        cfg["photon"] = photon_block()
        return cfg
    if task == "qber-sweep":
        cfg = base_link("qber-sweep")
        cfg["photon"] = photon_block()
        cfg["sweep"] = {"sigma_rad_s": [SIG, 2.0 * SIG, 4.0 * SIG]}
        return cfg
    cfg = {"task": "qfi-sweep"}
    cfg["estimation"] = {
        "squeezing_r": 0.3,
        "theta_rad": [0.05, 0.1, 0.2],
        "probe_count": 2,
    }
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_redshift_table_on_stdout(tmp_path, capsys):
    path = write_config(tmp_path, config_for("redshift"))
    code, out, err = run_cli(capsys, ["run", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chi,chi_squared,z"
    chi, chi2, z = (float(v) for v in lines[1].split(","))
    direct = redshift_static_static(
        SchwarzschildGeometry.from_mass(EARTH_MASS_KG),
        EARTH_RADIUS_M,
        EARTH_RADIUS_M + 5.0e5,
    )
    assert chi == direct.chi
    assert chi2 == direct.chi_squared
    assert z == direct.z
    assert err.startswith("task=redshift chi=")
    assert "runtime_s=" in err


def test_run_with_output_file(tmp_path, capsys):
    cfg = config_for("redshift")
    cfg["output"] = {"format": "csv", "path": str(tmp_path / "table.csv")}
    path = write_config(tmp_path, cfg)
    code, out, err = run_cli(capsys, ["run", path])
    assert code == 0
    assert (tmp_path / "table.csv").read_text().startswith("chi,chi_squared,z\n")
    assert out.startswith("task=redshift ")
    assert err == ""


def test_output_and_format_flags_override_config(tmp_path, capsys):
    cfg = config_for("redshift")
    cfg["output"] = {"format": "csv", "path": str(tmp_path / "ignored.csv")}
    path = write_config(tmp_path, cfg)
    target = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, ["run", path, "--output", str(target), "--format", "json"])
    assert code == 0
    assert not (tmp_path / "ignored.csv").exists()
    doc = json.loads(target.read_text())
    assert doc["task"] == "redshift"
    assert doc["columns"] == ["chi", "chi_squared", "z"]
    assert len(doc["rows"]) == 1 and len(doc["rows"][0]) == 3


def test_missing_block_is_a_parse_error(tmp_path, capsys):
    cfg = config_for("redshift")
    del cfg["receiver"]
    code, out, err = run_cli(capsys, ["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigParseError"
    assert "receiver" in envelope["message"]


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = config_for("redshift")
    cfg["bogus"] = 1
    code, _, err = run_cli(capsys, ["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "bogus" in json.loads(err)["message"]


def test_unknown_task_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["run", write_config(tmp_path, {"task": "resonance"})]
    )
    assert code == 2
    assert "resonance" in json.loads(err)["message"]


def test_body_needs_exactly_one_size_key(tmp_path, capsys):
    cfg = config_for("redshift")
    cfg["body"] = {"mass_kg": EARTH_MASS_KG, "r_s_m": 0.009}
    assert run_cli(capsys, ["run", write_config(tmp_path, cfg)])[0] == 2
    cfg["body"] = {}
    assert run_cli(capsys, ["run", write_config(tmp_path, cfg)])[0] == 2


def test_nan_literal_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"task": "redshift", "body": {"mass_kg": NaN}}')
    code, _, err = run_cli(capsys, ["run", str(path)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigParseError"


def test_boolean_is_not_a_number(tmp_path, capsys):
    cfg = config_for("qfi-sweep")
    cfg["estimation"]["probe_count"] = True
    code, _, err = run_cli(capsys, ["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "probe_count" in json.loads(err)["message"]


def sampled_grid(n):
    w = np.linspace(W0 - 8.0 * SIG, W0 + 8.0 * SIG, n)
    return SampledGridProfile.from_samples(w, np.exp(-0.5 * ((w - W0) / SIG) ** 2))


def test_photon_block_builds_the_profile_it_describes():
    found = []
    built = cli.build_blocks({"photon": {**photon_block(), "phase_rad": 0.25}}, found)
    assert built["photon"] == GaussianProfile(W0, SIG, 0.25)
    grid = sampled_grid(64)
    built = cli.build_blocks({"photon": {**grid_block(grid), "phase_rad": 0.5}}, found)
    assert np.array_equal(built["photon"].omega_rad_s, grid.omega_rad_s)
    assert np.array_equal(built["photon"].amplitude, grid.amplitude)
    assert built["photon"].phase_rad == 0.5
    assert found == []


def test_photon_block_errors_exit_two(tmp_path, capsys):
    # the photon block is read like every other block: a wrong JSON type, a
    # missing or unknown key or an unknown kind is a structural error
    gauss, grid = photon_block(), grid_block(sampled_grid(64))
    number = "must be a number"
    cases = [
        ("omega0-string", {**gauss, "omega0_rad_s": "4e15"}, f"photon.omega0_rad_s {number}"),
        ("sigma-true", {**gauss, "sigma_rad_s": True}, f"photon.sigma_rad_s {number}"),
        ("phase-true", {**gauss, "phase_rad": True}, f"photon.phase_rad {number}"),
        ("omega0-null", {**gauss, "omega0_rad_s": None}, f"photon.omega0_rad_s {number}"),
        ("grid-phase-string", {**grid, "phase_rad": "0"}, f"photon.phase_rad {number}"),
        ("grid-string-element", {**grid, "re": ["0", *grid["re"][1:]]}, f"photon.re[0] {number}"),
        (
            "grid-false-element",
            {**grid, "omega_rad_s": [*grid["omega_rad_s"][:-1], False]},
            f"photon.omega_rad_s[63] {number}",
        ),
        ("grid-scalar-re", {**grid, "re": 1.0}, "photon.re must be a list of numbers"),
        ("grid-unequal-lengths", {**grid, "im": grid["im"][:-1]}, "must have equal lengths"),
        ("grid-oversized-int", {**grid, "re": [10**400, *grid["re"][1:]]}, "too large for a float"),
        ("missing-key", {"kind": "gaussian", "omega0_rad_s": W0}, "photon is missing key 'sigma_rad_s'"),
        ("grid-missing-key", {k: v for k, v in grid.items() if k != "im"}, "photon is missing key 'im'"),
        ("unknown-key", {**gauss, "mean": 1.0}, "unknown key 'mean' in photon"),
        ("grid-key-on-gaussian", {**gauss, "re": [1.0]}, "unknown key 're' in photon"),
        ("unknown-kind", {**gauss, "kind": "lorentzian"}, "photon.kind must be 'gaussian' or 'grid'"),
        ("missing-kind", {"omega0_rad_s": W0, "sigma_rad_s": SIG}, "photon.kind must be"),
        ("list-kind", {**gauss, "kind": ["gaussian"]}, "photon.kind must be"),
        ("not-an-object", ["not", "a", "record"], "block 'photon' must be a JSON object"),
    ]
    for name, photon, message in cases:
        cfg = config_for("overlap")
        cfg["photon"] = photon
        path = write_config(tmp_path, cfg, f"{name}.json")
        for command in ("validate", "run"):
            code, out, err = run_cli(capsys, [command, path])
            assert (code, out) == (2, ""), (name, command)
            envelope = json.loads(err)
            assert envelope["error"] == "ConfigParseError", (name, command)
            assert message in envelope["message"], (name, command)
    # a well-typed value outside the profile's domain is a domain error
    cfg = config_for("overlap")
    cfg["photon"]["sigma_rad_s"] = -1.0
    path = write_config(tmp_path, cfg, "negative-sigma.json")
    code, out, _ = run_cli(capsys, ["validate", path])
    assert code == 3 and out.startswith("photon: DomainError: sigma_rad_s")
    code, _, err = run_cli(capsys, ["run", path])
    assert code == 3 and json.loads(err)["error"] == "DomainError"


def test_domain_failure_exits_three(tmp_path, capsys):
    cfg = {
        "task": "redshift",
        "body": {"r_s_m": 1000.0},
        "emitter": {"type": "static", "radius_m": 999.0},
        "receiver": {"type": "static", "radius_m": 5000.0},
    }
    code, _, err = run_cli(capsys, ["run", write_config(tmp_path, cfg)])
    assert code == 3
    assert json.loads(err)["error"] == "HorizonError"


def test_tiny_gaussian_width_exits_three(tmp_path, capsys):
    # these widths crashed both commands with ZeroDivisionError, exit 1
    cfg = json.loads((Path(__file__).parent / "golden" / "overlap.json").read_text())
    cfg["photon"].update(omega0_rad_s=1e-160, sigma_rad_s=1e-170)
    path = write_config(tmp_path, cfg)
    code, out, err = run_cli(capsys, ["validate", path])
    message = "sigma_rad_s = 1e-170 is below the narrowest width 1e-150"
    assert (code, out) == (3, f"photon: DomainError: {message}\n")
    assert err == "task=overlap violations=1\n"
    code, out, err = run_cli(capsys, ["run", path])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "DomainError", "message": message}


def test_validate_and_run_agree_on_sweep_widths(tmp_path, capsys):
    def ratio_message(omega0, sigma):
        return (
            f"carrier to width ratio omega0/sigma = {omega0 / sigma:.3f} is too small; "
            "require > 8 so the amplitude is negligible at negative frequencies"
        )

    beyond = config_for("qber-sweep")
    beyond["photon"] = {"kind": "gaussian", "omega0_rad_s": 1000.0, "sigma_rad_s": 10.0}
    beyond["sweep"]["sigma_rad_s"] = [10.0, 200.0]
    last = config_for("qber-sweep")
    last["sweep"]["sigma_rad_s"] = [SIG, 2.0 * SIG, 4.0 * SIG, W0 / 8.0]
    narrow = config_for("qber-sweep")
    narrow["sweep"]["sigma_rad_s"] = [1e-151, SIG]
    floor = "sigma_rad_s = 1e-151 is below the narrowest width 1e-150"
    corpus = [
        ("d-sweep-width-beyond-carrier", beyond, ratio_message(1000.0, 200.0)),
        ("last-sweep-width-beyond-carrier", last, ratio_message(W0, W0 / 8.0)),
        ("sweep-width-below-floor", narrow, floor),
    ]
    for name, cfg, message in corpus:
        path = write_config(tmp_path, cfg, f"{name}.json")
        code, out, err = run_cli(capsys, ["validate", path])
        assert code == 3, name
        assert out.splitlines()[0] == f"sweep: DomainError: {message}", name
        code, out, err = run_cli(capsys, ["run", path])
        assert (code, out) == (3, ""), name
        assert json.loads(err) == {"error": "DomainError", "message": message}, name


def test_validate_clean_config(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["validate", write_config(tmp_path, config_for("qber-sweep"))]
    )
    assert code == 0
    assert out == ""
    assert err == "task=qber-sweep violations=0\n"


def test_validate_lists_every_violation(tmp_path, capsys):
    cfg = {
        "task": "redshift",
        "body": {"r_s_m": 1000.0},
        "emitter": {"type": "static", "radius_m": 900.0},
        "receiver": {"type": "orbit", "radius_m": 1400.0},
    }
    code, out, err = run_cli(capsys, ["validate", write_config(tmp_path, cfg)])
    assert code == 3
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("emitter: HorizonError: ")
    assert lines[1].startswith("receiver: OrbitDomainError: ")
    assert err == "task=redshift violations=2\n"


def test_validate_writes_no_table(tmp_path, capsys):
    # validate computes the table as run does, and drops it
    table = tmp_path / "table.csv"
    cfg = config_for("overlap")
    cfg["output"] = {"format": "csv", "path": str(table)}
    code, out, err = run_cli(capsys, ["validate", write_config(tmp_path, cfg)])
    assert (code, out, err) == (0, "", "task=overlap violations=0\n")
    assert not table.exists()


def test_validate_structural_problem_exits_two(tmp_path, capsys):
    cfg = config_for("overlap")
    del cfg["photon"]
    code, _, err = run_cli(capsys, ["validate", write_config(tmp_path, cfg)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigParseError"


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = config_for("qber-sweep")
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, ["run", path, "--output", str(out_a)])[0] == 0
    assert run_cli(capsys, ["run", path, "--output", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_qber_rows_match_library_results(tmp_path, capsys):
    cfg = config_for("qber-sweep")
    path = write_config(tmp_path, cfg)
    code, out, _ = run_cli(capsys, ["run", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma_rad_s,chi_sq_minus_1,overlap_mag,visibility,qber"
    scenario = LinkScenario(
        SchwarzschildGeometry.from_mass(EARTH_MASS_KG),
        ObserverPath("static", EARTH_RADIUS_M),
        ObserverPath("static", EARTH_RADIUS_M + 5.0e5),
        GaussianProfile(W0, SIG),
    )
    reports = qber_bandwidth_sweep(scenario, cfg["sweep"]["sigma_rad_s"])
    assert len(lines) - 1 == len(reports)
    for line, rep in zip(lines[1:], reports):
        sigma, dz, mag, vis, qber = (float(v) for v in line.split(","))
        assert sigma == rep.sigma_rad_s
        assert dz == rep.chi.z
        assert mag == rep.overlap_magnitude
        assert vis == rep.visibility
        assert qber == rep.qber


def test_json_rows_use_null_for_missing_cells(tmp_path, capsys):
    # an unsqueezed probe carries no information, so its bound is infinite
    cfg = config_for("qfi-sweep")
    cfg["estimation"]["squeezing_r"] = 0.0
    code, out, _ = run_cli(capsys, ["run", write_config(tmp_path, cfg), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["theta", "qfi", "cr_bound"]
    assert doc["rows"] == [[theta, 0.0, None] for theta in cfg["estimation"]["theta_rad"]]


def test_removed_run_flags_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, config_for("qber-sweep"))
    for flags in (["--jobs", "2"], ["--timings"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", path, *flags])
        assert exc.value.code == 2, flags
    capsys.readouterr()


def test_numerical_failure_exits_four(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("integration diverged")

    monkeypatch.setattr(cli, "redshift_overlap", boom)
    path = write_config(tmp_path, config_for("overlap"))
    code, _, err = run_cli(capsys, ["run", path])
    assert code == 4
    assert json.loads(err)["error"] == "NumericalError"


def test_grid_overlap_is_divided_by_the_photon_norm(tmp_path, capsys):
    # a grid 4e-10 off unit norm passes NORM_TOL; the overlap task divides
    # by its norm squared, so it reads as the unscaled grid
    w = np.linspace(W0 - 8.0 * SIG, W0 + 8.0 * SIG, 401)
    grid = grid_block(
        SampledGridProfile.from_samples(w, np.exp(-0.5 * ((w - W0) / SIG) ** 2))
    )
    mags = []
    for scale in (1.0, 1.0 + 4e-10):
        cfg = config_for("overlap")
        cfg["photon"] = {**grid, "re": [scale * v for v in grid["re"]]}
        code, out, _ = run_cli(capsys, ["run", write_config(tmp_path, cfg)])
        assert code == 0
        mags.append(float(out.splitlines()[1].split(",")[4]))
    # far enough below 1 that the clamp at 1 hides nothing
    assert mags[0] < 0.999
    assert abs(mags[1] - mags[0]) <= 1e-15


def test_large_grid_overlap_runs_from_both_commands(tmp_path, capsys):
    # 150k nodes: the photon and its redshifted image interleave to about
    # 300k panels, and both commands compute the row of the sampled Gaussian
    w = np.linspace(W0 - 8.0 * SIG, W0 + 8.0 * SIG, 150_000)
    cfg = config_for("overlap")
    cfg["photon"] = grid_block(
        SampledGridProfile.from_samples(w, np.exp(-0.5 * ((w - W0) / SIG) ** 2))
    )
    mags = []
    for photon in (cfg["photon"], photon_block()):
        path = write_config(tmp_path, {**cfg, "photon": photon})
        assert run_cli(capsys, ["validate", path])[0] == 0
        code, out, _ = run_cli(capsys, ["run", path])
        assert code == 0
        mags.append(float(out.splitlines()[1].split(",")[4]))
    assert abs(mags[0] - mags[1]) < 1e-10


def test_gaussian_rows_do_not_change_under_power_of_two_scaling(tmp_path, capsys):
    # a Gaussian row depends on ratios of frequencies only, and scaling every
    # frequency by 2^k is exact: from the width floor (k = -517) to the float
    # limit of the carrier (k = 972) each cell equals the unscaled one
    golden = Path(__file__).parent / "golden"
    for task in ("overlap", "qber-sweep"):
        cfg = json.loads((golden / f"{task}.json").read_text())
        photon, sweep = dict(cfg["photon"]), cfg.get("sweep", {}).get("sigma_rad_s", [])
        expected = None
        for k in [0, *range(-517, 973)]:
            cfg["photon"].update(
                omega0_rad_s=math.ldexp(photon["omega0_rad_s"], k),
                sigma_rad_s=math.ldexp(photon["sigma_rad_s"], k),
            )
            if sweep:
                cfg["sweep"]["sigma_rad_s"] = [math.ldexp(s, k) for s in sweep]
            path = write_config(tmp_path, cfg)
            assert run_cli(capsys, ["validate", path])[0] == 0, (task, k)
            code, out, _ = run_cli(capsys, ["run", path])
            assert code == 0, (task, k)
            rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
            if sweep:
                for row in rows:
                    row[0] = math.ldexp(row[0], -k)
            expected = rows if expected is None else expected
            assert rows == expected, (task, k)


def test_validate_and_run_agree_on_small_corpus(tmp_path, capsys):
    corpus = []
    corpus.append(("ok-redshift", config_for("redshift"), 0))
    corpus.append(("ok-qfi", config_for("qfi-sweep"), 0))
    bad_struct = config_for("overlap")
    bad_struct["emitter"] = {"type": "static", "radius": EARTH_RADIUS_M}
    corpus.append(("misspelled-key", bad_struct, 2))
    bad_domain = config_for("qber-sweep")
    bad_domain["sweep"]["sigma_rad_s"] = [2.0 * SIG, SIG]
    corpus.append(("unsorted-grid", bad_domain, 3))
    orbit_emitter = config_for("redshift")
    orbit_emitter["emitter"] = {"type": "orbit", "radius_m": EARTH_RADIUS_M + 4.0e5}
    corpus.append(("orbit-emitter", orbit_emitter, 3))
    small_body = {"task": "redshift", "body": {"r_s_m": 1000.0}}
    corpus.append((
        "low-orbit-emitter-receiver-inside-horizon",
        {
            **small_body,
            "emitter": {"type": "orbit", "radius_m": 1400.0},
            "receiver": {"type": "static", "radius_m": 900.0},
        },
        3,
    ))
    corpus.append((
        "emitter-inside-horizon-low-orbit-receiver",
        {
            **small_body,
            "emitter": {"type": "static", "radius_m": 900.0},
            "receiver": {"type": "orbit", "radius_m": 1400.0},
        },
        3,
    ))
    unused_block = config_for("qfi-sweep")
    unused_block["emitter"] = {"type": "static", "radius_m": -1.0}
    corpus.append(("invalid-unused-emitter", unused_block, 3))
    # a tabulated photon whose norm is 1e4 is a domain error at any scale
    w = np.linspace(W0 - 8.0 * SIG, W0 + 8.0 * SIG, 200)
    grid = SampledGridProfile.from_samples(w, np.exp(-0.5 * ((w - W0) / SIG) ** 2))
    unnormalized = config_for("overlap")
    unnormalized["photon"] = grid_block(grid)
    unnormalized["photon"]["re"] = [1e4 * v for v in unnormalized["photon"]["re"]]
    corpus.append(("unnormalized-grid", unnormalized, 3))
    # integer literals whose float() overflows are refused while parsing
    too_big = 10**400
    big_radius = config_for("redshift")
    big_radius["receiver"]["radius_m"] = too_big
    corpus.append(("oversized-int-radius", big_radius, 2))
    big_omega = config_for("overlap")
    big_omega["photon"]["omega0_rad_s"] = too_big
    corpus.append(("oversized-int-omega0", big_omega, 2))
    big_probes = config_for("qfi-sweep")
    big_probes["estimation"]["probe_count"] = too_big
    corpus.append(("oversized-int-probe-count", big_probes, 2))
    for name, cfg, expected in corpus:
        path = write_config(tmp_path, cfg, f"{name}.json")
        val_code, val_out, _ = run_cli(capsys, ["validate", path])
        run_code, _, run_err = run_cli(
            capsys, ["run", path, "--output", str(tmp_path / "out.csv")]
        )
        assert val_code == expected, name
        assert run_code == expected, name
        if expected == 3:
            first_class = val_out.splitlines()[0].split(": ")[1]
            assert json.loads(run_err)["error"] == first_class, name
        if expected == 2:
            assert json.loads(run_err)["error"] == "ConfigParseError", name


# JSON values of the wrong type for a number or a list of numbers
WRONG_JSON = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(0.5, 2.0).map(repr),
    st.lists(st.floats(0.0, 1.0), max_size=2),
    st.just({}),
)


def sometimes_wrong(values):
    """The values drawn, or one time in ten a JSON value of another type."""
    return st.integers(0, 9).flatmap(lambda k: values if k else WRONG_JSON)


@st.composite
def gaussian_photons(draw):
    # carrier to width ratios around the MIN_CARRIER_TO_WIDTH rule of 8
    sigma = draw(st.floats(1.0, 1e12))
    omega0 = sigma * draw(st.one_of(st.floats(7.99, 8.01), st.floats(8.0, 1e4)))
    if draw(st.booleans()):
        omega0 = round(omega0)  # a JSON integer
    block = {
        "kind": "gaussian",
        "omega0_rad_s": draw(sometimes_wrong(st.just(omega0))),
        "sigma_rad_s": draw(sometimes_wrong(st.just(sigma))),
    }
    if draw(st.booleans()):
        block["phase_rad"] = draw(sometimes_wrong(st.floats(-10.0, 10.0)))
    return block, sigma


@st.composite
def grid_photons(draw):
    # unit-norm grids scaled to norm errors on both sides of NORM_TOL
    grid = grid_block(sampled_grid(draw(st.integers(4, 40))))
    error = draw(st.one_of(st.just(0.0), st.floats(0.5, 1.5), st.floats(-1.5, -0.5)))
    scale = 1.0 + error * wavepacket.NORM_TOL
    for key in ("re", "im"):
        grid[key] = [scale * v for v in grid[key]]
    key = draw(st.sampled_from(("omega_rad_s", "re", "im")))
    change = draw(st.sampled_from((None,) * 6 + ("element", "list", "shorter", "swap", "few")))
    if change == "element":
        grid[key][draw(st.integers(0, len(grid[key]) - 1))] = draw(WRONG_JSON)
    elif change == "list":
        grid[key] = draw(st.one_of(WRONG_JSON, st.floats(0.0, 1.0)))
    elif change == "shorter":
        grid[key] = grid[key][:-1]
    elif change == "swap":
        grid[key][:2] = grid[key][1::-1]
    elif change == "few":
        grid = {k: v[:3] if isinstance(v, list) else v for k, v in grid.items()}
    if draw(st.booleans()):
        grid["phase_rad"] = draw(sometimes_wrong(st.floats(-10.0, 10.0)))
    return grid, SIG


@st.composite
def photon_configs(draw):
    photon, sigma = draw(st.one_of(gaussian_photons(), grid_photons()))
    change = draw(st.sampled_from((None,) * 9 + ("drop", "extra", "kind")))
    if change == "drop":
        del photon[draw(st.sampled_from(sorted(photon)))]
    elif change == "extra":
        photon["mean"] = 1.0
    elif change == "kind":
        photon["kind"] = draw(st.sampled_from(("gaussian", "grid", "lorentzian", None, 1, [])))
    cfg = config_for(draw(st.sampled_from(("overlap", "qber-sweep"))))
    cfg["photon"] = photon
    if "sweep" in cfg:
        cfg["sweep"]["sigma_rad_s"] = [sigma, 1.01 * sigma]
    return cfg


def first_error(code, out, err):
    """Class of the first error a command reports, or None on success."""
    if code == 0:
        return None
    if code == 3 and out:
        return out.splitlines()[0].split(": ")[1]  # validate lists domain errors
    return json.loads(err.splitlines()[-1])["error"]


@given(cfg=photon_configs())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_validate_and_run_agree_on_photon_blocks(cfg, tmp_path, capsys):
    path = write_config(tmp_path, cfg)
    val = run_cli(capsys, ["validate", path])
    code, out, err = run_cli(capsys, ["run", path, "--format", "json"])
    if val[0] == 0:
        assert code == 0
        cells = [cell for row in json.loads(out)["rows"] for cell in row]
        assert all(cell is not None and math.isfinite(cell) for cell in cells)
    else:
        assert code == val[0]
        assert first_error(code, "", err) == first_error(*val)


def test_console_script_is_installed(tmp_path):
    """The `graviphoton` command declared in pyproject.toml runs as a process.

    The entry point is run in a child interpreter with the body of the wrapper
    pip generates, so the check holds in a checkout that was never installed.
    Where an installed `graviphoton` executable is on PATH, it is run too.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    entry = importlib.metadata.EntryPoint(
        name="graviphoton", value=scripts["graviphoton"], group="console_scripts"
    )
    assert callable(entry.load())

    # The child imports the same source tree as this test, not whatever
    # graviphoton an interpreter without PYTHONPATH would find.
    source_root = str(Path(graviphoton.__file__).resolve().parents[1])
    pythonpath = [source_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    runs = [([sys.executable, "-c", wrapper], env)]
    exe = shutil.which("graviphoton")
    if exe is not None:
        runs.append(([exe], None))

    cfg_path = write_config(tmp_path, config_for("redshift"))
    for command, run_env in runs:
        proc = subprocess.run(
            [*command, "run", cfg_path],
            capture_output=True,
            text=True,
            timeout=60,
            env=run_env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.startswith("chi,chi_squared,z\n"), command
