"""Largest deviation from the references over every candidate input.

    python3 bench/pool_check.py

Runs each candidate the seed can pick (every sigma variant of every link
sweep, every grid row at 100 to 1000 nodes and every seventh candidate at
3162 and 10000, every interior QFI angle) and the fixed rows through the
program, and prints per geometry the largest relative deviation from the
references and how many candidates miss the tolerance.  Seeded candidates
must all pass; fixed rows exercise the known faults.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import references as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def rel(got, want):
    return abs(got - want) / abs(want)


def links(gp, refs):
    earth = gp.SchwarzschildGeometry.from_mass(R.EARTH_MASS_KG)
    emitter = gp.ObserverPath("static", R.EARTH_RADIUS_M)
    candidates = [(s, v) for s in range(R.SIGMA_STRATA) for v in range(R.SIGMA_VARIANTS)]
    for name, ref in refs["links"].items():
        receiver = gp.ObserverPath(ref["receiver_kind"], ref["receiver_radius_m"])
        scenario = gp.LinkScenario(earth, emitter, receiver,
                                   gp.GaussianProfile(R.OMEGA0_RAD_S, R.sigma_candidates(0)[0]))
        worst_z = worst_d = 0.0
        misses = 0
        for v in range(R.SIGMA_VARIANTS):
            sigmas = [ref["sigma_rad_s"][i][v] for i in range(R.SIGMA_STRATA)]
            for i, rep in enumerate(gp.qber_bandwidth_sweep(scenario, sigmas)):
                deficit = ref["deficit"][i][v]
                ez = rel(rep.chi.z, ref["z"])
                ed = max(rel(1.0 - rep.overlap_magnitude**2, deficit),
                         rel(rep.qber, 0.5 * deficit))
                worst_z, worst_d = max(worst_z, ez), max(worst_d, ed)
                misses += max(ez, ed) > W.REL_TOL
        chi = gp.link_redshift(scenario)
        worst_g, grid_misses, grid_rows = 0.0, 0, 0
        for nodes in W.GRID_NODES:
            for s, v in candidates if nodes <= 1000 else candidates[::7]:
                omega, amp = W.gaussian_samples(R.sigma_candidates(s)[v], nodes)
                profile = gp.SampledGridProfile.from_samples(omega, amp)
                theta = gp.overlap(profile, gp.redshift_transform(profile, chi))
                e = rel(1.0 - abs(theta) ** 2, ref["deficit"][s][v])
                worst_g, grid_misses, grid_rows = max(worst_g, e), grid_misses + (e > W.REL_TOL), grid_rows + 1
        print(f"| {name} | {worst_z:.1e} | {worst_d:.1e} | {misses}/{R.SIGMA_STRATA * R.SIGMA_VARIANTS}"
              f" | {worst_g:.1e} | {grid_misses}/{grid_rows} |", flush=True)


def qfi(gp, refs):
    for r in R.SQUEEZINGS:
        ref = refs["qfi"][repr(r)]
        _, channel = gp.build_sensing_channel(gp.SensingChannel(squeezing_r=r))
        worst, misses = 0.0, 0
        for s in range(R.ANGLE_STRATA):
            for v in range(R.ANGLE_VARIANTS):
                e = rel(gp.qfi_finite_difference(channel, ref["theta"][s][v]).qfi, ref["qfi"][s][v])
                worst, misses = max(worst, e), misses + (e > W.REL_TOL)
        fixed = []
        for theta, want in zip(ref["fixed_theta"], ref["fixed_qfi"]):
            try:
                fixed.append(f"{theta:.3g}: {rel(gp.qfi_finite_difference(channel, theta).qfi, want):.1e}")
            except gp.GraviphotonError as exc:
                fixed.append(f"{theta:.3g}: {type(exc).__name__}")
        print(f"| r = {r} | {worst:.1e} | {misses}/{R.ANGLE_STRATA * R.ANGLE_VARIANTS}"
              f" | {', '.join(fixed)} |", flush=True)


def cli_grid(gp):
    """Every tabulated photon the cli-cold grid config can hold must load."""
    refused = 0
    for nodes in W.CLI_GRID_NODES:
        for s in range(R.SIGMA_STRATA):
            for sigma in R.sigma_candidates(s):
                omega, amp = W.gaussian_samples(sigma, nodes)
                try:
                    gp.SampledGridProfile(omega, amp * W.gaussian_norm(sigma))
                except gp.GraviphotonError:
                    refused += 1
    total = len(W.CLI_GRID_NODES) * R.SIGMA_STRATA * R.SIGMA_VARIANTS
    print(f"cli-cold grid photons refused by SampledGridProfile: {refused}/{total}")


def main():
    gp = run.import_program()
    refs = W.load_references()
    print("| link | z | deficit, qber | sweep rows missing | grid deficit | grid rows missing |")
    print("|---|---|---|---|---|---|")
    links(gp, refs)
    print()
    print("| squeezing | interior QFI | interior rows missing | fixed angles |")
    print("|---|---|---|---|")
    qfi(gp, refs)
    print()
    cli_grid(gp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
