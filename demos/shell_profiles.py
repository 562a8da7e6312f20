"""Per-shell defect profiles: transient noise vs structural defect.

Measure the sup of the weighted-equation residual over pairs drawn from
growing norm shells [n, n+1).  A perturbation that dies off at infinity
keeps the profile under a fixed tolerance and the map is judged
asymptotically quadratic; a constant offset shows up as a flat profile
at level |r*s|*c that no amount of zooming out removes.  The judgement
is tolerance-relative on purpose: even decaying noise produces residual
floor terms, because a pair drawn from a far shell can still hand the
equation an argument (x - y, say) near the origin where the noise has
not decayed at all.
"""

from quadlab import (
    NoiseModel,
    asymptotic_verdict,
    equation_params,
    euclidean,
    make_perturbed,
    random_symmetric_form,
    shell_delta_profile,
)


def main():
    space = euclidean(6)
    params = equation_params("1/2")
    form = random_symmetric_form(space, euclidean(1), seed=5)

    cases = [
        ("decaying noise  c/(1+||x||)", NoiseModel.decay(1.0, alpha=1.0), 0.6),
        ("constant offset c = 1      ", NoiseModel.constant(1.0), 0.02),
    ]

    profiles = []
    for label, noise, tol in cases:
        f = make_perturbed(form, noise)
        profile = shell_delta_profile(f, params, space, 1, 16, 200, seed=3)
        verdict = asymptotic_verdict(profile, decay_tol=tol)
        profiles.append((label, profile, verdict, tol))

    print("shell        " + "   ".join(f"{label}" for label, *_ in profiles))
    for i, (lo, hi) in enumerate(profiles[0][1].shells()):
        row = f"[{lo:4.1f},{hi:5.1f})"
        for _, profile, _, _ in profiles:
            row += f"   {profile.deltas[i]:27.6f}"
        print(row)

    print()
    for label, profile, verdict, tol in profiles:
        print(f"{label.strip()}:")
        print(f"  verdict   : {verdict.verdict}  (decay_tol = {tol})")
        print(f"  tail max  : {verdict.tail_max:.6f} over last "
              f"{verdict.tail_window} shells")
    print()
    print("The constant-noise profile sits at |r*s|*c = 0.25 in every shell")
    print("and is flagged persistent against the tight tolerance.  The decay")
    print("profile never climbs past its tolerance but does NOT fall toward")
    print("zero either: uniform pairs from a far shell keep producing one")
    print("near-origin equation argument where the noise is still ~c, so a")
    print("residual floor remains.  Distinguishing the two cases is exactly")
    print("what the decay_tol knob encodes.")


if __name__ == "__main__":
    main()
