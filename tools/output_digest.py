"""sha256 digests of the exact results of a fixed, seeded set of library calls.

    python3 tools/output_digest.py [--src DIR]

perfbench's canonical form rounds floats to 10 digits, so its seed-0 digests
cannot show a change in the last bit.  This script hashes the ``repr`` of
every result instead, mpf values to 4096 bits: two trees that print the same
total returned the same bits on this set.  ``--src`` names the ``src``
directory to import (default: the one beside this script), so a parent tree
exported with ``git archive`` can be compared with the change.  It prints one
line per group, then the total over all groups; about 3 s on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path


def groups():
    """(name, list of results) for each group, in a fixed order."""
    from divisorlab import exponents, laurent, remainder, sieve, zetasum

    rng = random.Random(0)

    def grid(top, n):
        return sorted(rng.uniform(1.5, top) for _ in range(n))

    # k = 30 to 1e5 and k = 22 to 1e6 lie past the int64 bound of the floor
    # route, which then sieves all of [1, x]
    yield "delta_scan", [remainder.delta_scan(k, grid(top, 40))
                         for k, top in ((1, 1e6), (2, 1e6), (3, 1e6), (5, 1e6), (13, 1e6),
                                        (2, 999999999.5), (22, 1e6), (30, 1e5))]

    yield "dk_partial_sums", [sieve.dk_partial_sums(k, cps[-1], cps)
                              for k, cps in ((1, [1, 10, 10 ** 6]), (2, [10 ** 9]),
                                             (3, sorted(rng.sample(range(1, 10 ** 7), 50))),
                                             (7, [10 ** 5, 3 * 10 ** 5 + 7, 10 ** 8]),
                                             (13, [10 ** 9 - 1]), (25, [2 * 10 ** 5]))]
    yield "sign_change_scan", [remainder.sign_change_scan(k, X0, X1)
                               for k, X0, X1 in ((2, 1e3, 2e5), (3, 5e3, 1e6),
                                                 (5, 1e3, 1e7), (1, 5e7, 5e7 + 1e4))]
    cases = [(k, x) for k in (1, 2, 3, 5, 12, 30)
             for x in (1234.5, 2e4 + rng.random(), 1e5 * rng.uniform(0.5, 1))]
    mean_squares = [remainder.mean_square(k, x) for k, x in cases[:-1]]
    budget = sieve.MEMORY_BUDGET_BYTES
    sieve.MEMORY_BUDGET_BYTES = 4 << 20
    try:
        mean_squares.append(remainder.mean_square(2, 1e5))
    finally:
        sieve.MEMORY_BUDGET_BYTES = budget
    mean_squares.append(remainder.mean_square(*cases[-1]))
    # x < 64 lies in the units cut into dyadic pieces; x just above an integer
    # ends in a last unit of width 2^-20
    mean_squares += [remainder.mean_square(k, x) for k in (1, 2, 5, 30)
                     for x in (2.5, 37.6, 63.9, 1000 + 2 ** -20, 70000 + 2 ** -20)]
    yield "mean_square", mean_squares
    yield "main_term_poly", [laurent.main_term_poly(k, bits).coeffs
                             for k in range(1, 13) for bits in (64, 256)]
    # gamma_n off the main terms' (n <= 10 at 160 and 352 bits): every M up to
    # 512 and J up to 256, the whole Bernoulli table; the last four pairs take
    # (J, M) = (8, 64), (16, 128), (96, 64) and (192, 512), which no other takes
    yield "stieltjes", [laurent.stieltjes(n, bits)
                        for n, bits in ((0, 1024), (1, 700), (5, 1024), (11, 64), (12, 128),
                                        (13, 192), (17, 100), (20, 288), (24, 512), (32, 64),
                                        (40, 256), (48, 160), (64, 53), (64, 1024),
                                        (2, 80), (36, 80), (7, 400), (44, 1500))]
    yield "exponents", [*(exponents.optimize_theta(B) for B in (4.0, 4.45, 5.0, 8.5)),
                        exponents.historical_table(),
                        *(exponents.moment_h_max(k, a) for k, a in ((10, 50.0), (100, 1.0),
                                                                    (2000, 1.0))),
                        *(exponents.zeta_h_max(k, a) for k, a in ((10, 1.0), (500, 1.0),
                                                                  (2000, 0.5)))]
    # the induction's inputs and outputs; induction_step_check is left out, its
    # delta_max moved from a bisection to the exact root
    yield "exponent-params", [
        r for p in (exponents.ExponentParams(), exponents.ExponentParams(eps0=1e-8),
                    exponents.ExponentParams(eps0=1e-3, k=40))
        for r in (*(exponents.alpha_bound(k, p) for k in (30, 100)),
                  *(exponents.beta_bound(k, p) for k in (15, 100)),
                  exponents.m0_validity_threshold(p),
                  *(exponents.m0_sigma(s, p) for s in (p.theta, 0.9, 0.97)),
                  *(exponents.inductive_sigma_bound(k, p) for k in (15, 20.5, 30, 1000)),
                  *(exponents.optimal_beta_thm2(k, p) for k in (30, 100)),
                  *(exponents.beta_k_exponent(s, k, p) for s, k in ((p.theta, 15), (0.9, 30))),
                  *(exponents.beta_k_exponent(s, 15, p, check_range=False)
                    for s in (0.6, 0.8)))] + [
        *(exponents.m1_sigma(s, d, A) for s, d, A in ((0.99, 0.1, 1.0), (0.995, 0.0, 1.0),
                                                      (0.9, 0.1, 10.0))),
        *(exponents.thm3_exponent(k, d) for k, d in ((200, 0.2), (10 ** 4, 0.05),
                                                     (10 ** 6, 0.1)))]
    # zeta_em's (M, J) from (17, 12) to (18387, 64): perfbench's band sigma in
    # [0.55, 0.95] near t = 1000, both ends of sigma, t up to 1e5
    yield "zetasum", [zetasum.zeta_em(0.75, 1000.0), zetasum.zeta_em(0.5, 14.134725),
                      zetasum.zeta_em(2.0, 3.0, 64),
                      *(zetasum.zeta_em(*args) for args in (
                          (0.55, 1000.5, 192), (0.95, 987.25, 256), (0.0, 250.0, 53),
                          (3.0, 0.0, 256), (3.0, 40000.0, 53), (0.5, 1e5, 53))),
                      zetasum.moment_integral(1, 2.0, 100.0),
                      zetasum.moment_integral(2, 0.75, 50.0)]
    # the README grid and the seed-1 grid of perfbench's zeta-quadrature
    yield "expsum", [zetasum.exp_sum(1000, 2000, 1e9), zetasum.exp_sum(37, 50, 0.0, 64),
                     zetasum.expsum_bound_grid([256, 1024, 4096], [1e6, 1e8]),
                     zetasum.expsum_bound_grid([515, 2038], [10928993.832391936,
                                                            1044617867.2959428]),
                     zetasum.afe_residual(0.75, 1000.0), zetasum.afe_residual(0.6, 500.0, 192),
                     zetasum.chi_factor(0.75, 100.0), zetasum.chi_factor(0.5, 14.134725, 256)]
    # results no other group pins: the independent contour oracle, the envelopes
    # (omega's from x = e^(e^e), mpf past the float range), the mean-value check
    # in each coefficient mode, d_k tables of 1000 entries, the most whose numpy
    # repr lists every entry, and the exact c_k proof
    yield "oracles", [
        *(laurent.residue_contour_oracle(k, 32, x) for k, x in ((2, 100.0), (12, 1e4))),
        *(remainder.envelopes(k, x) for k, x in ((2, 1e4), (30, 1e12), (5, 10 ** 400))),
        zetasum.mvt_check(1, 50.0),
        *(zetasum.mvt_check(64, 1000.0, mode) for mode in ("ones", "dk", "random")),
        sieve.dk_block(3, 1, 1001), sieve.dk_block(30, 10 ** 6, 10 ** 6 + 1000),
        *(exponents.ck_inequality_scan(k) for k in (2, 300))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="the src directory whose divisorlab is imported")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import mpmath as mp

    total = hashlib.sha256()
    for name, results in groups():
        with mp.workprec(4096):  # an mpf's repr shows the context's digits, not its own
            text = "\n".join(map(repr, results))
        h = hashlib.sha256(text.encode()).hexdigest()
        total.update(f"{name} {h}\n".encode())
        print(f"{name:18} {h}")
    print(f"{'total':18} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
