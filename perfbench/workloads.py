"""The benchmark's workloads: fixed lists of CLI sweeps.

Each sweep is the argument list of one `incidencelab.cli.main` call, minus
`--seed` and `--out`, which the child process appends.  Every size the
samplers would otherwise draw at random (`--size-a`, `--size-g`, ...) is
fixed here, so the amount of work does not depend on the seed.  No sweep
passes `--threads`: the harness default applies, so a change of that
default shows without an edit here.  The sizes keep one iteration at about
1 to 3 seconds, so the medians of a run rest on several iterations each.
Why each workload exists is recorded
in BENCHMARK.json; the comments below say which property each sweep keeps.
"""

from __future__ import annotations


def _sweeps(text: str) -> tuple:
    return tuple(tuple(line.split()) for line in text.strip().splitlines())


WORKLOADS = {
    # Prime-q dot matrices at the default lam = 1: trial 1 rebuilds the
    # matrix of trial 0, so half of the spectrum_report calls repeat one.
    "spectrum-dot": _sweeps("""
        spectrum --kind dot --n 2 --moduli 5,7 --trials 2
    """),
    # The same layer without prime dot matrices and without repeats: one
    # trial per modulus, so no two rows can share a matrix whatever the seed.
    # det matrices are not symmetric and take the singular_values route.
    # The Jacobi sweep count of det and cross-ratio matrices depends on lam
    # (det at q = 11: 0.8 to 1.2 s; cross-ratio at q = 7: 0.05 to 0.22 s),
    # so their lam is fixed; the seed draws lam for the composite dot matrix,
    # whose cost at q = 6 moves by about 1 % with lam.
    "spectrum-mixed": _sweeps("""
        spectrum --kind det --lam 7 --moduli 11 --trials 1
        spectrum --kind crossratio --lam 3 --moduli 7 --trials 1
        spectrum --kind dot --lam random --moduli 6 --trials 1
    """),
    # Character sums; energy_t2k dominates, spectra stays idle.
    "charsums": _sweeps("""
        lift-energy --moduli 11 --trials 1 --k 2 --size-g 28 --size-a 8 --size-b 8
        lift-energy --moduli 11 --trials 1 --k 3 --size-g 10 --size-a 8 --size-b 8
        hyperbola --moduli 101 --trials 4 --size-a 30 --size-b 30 --size-x 30 --size-y 30
        bilinear --moduli 53 --trials 2 --size-a 24 --size-b 24
        kloosterman --moduli 1009 --trials 20
        intersection-charsum --moduli 1009 --trials 6 --size-a 200
    """),
    # Many small counting rows.  The q = 101 det sweep builds dense
    # |A| x |B| np.outer products and so sets the peak RSS; cross-ratio
    # stops at q = 53 because the q = 61 value table would set it instead.
    # The subgroup energy runs at q = 101, where the seed-drawn subgroup
    # order changes the work by milliseconds only.
    "counting": _sweeps("""
        dot-incidence --moduli 53,101 --trials 2 --size-a 2500 --size-b 2500
        det-incidence --d 2 --moduli 31,61 --trials 6 --size-a 900 --size-b 900
        det-incidence --d 2 --moduli 101 --trials 1 --size-a 5000 --size-b 5000
        det-incidence --d 3 --moduli 7 --trials 1 --size-a 30 --size-b 300
        crossratio-incidence --moduli 31,53 --trials 6 --size-a 900 --size-b 900
        zaremba --moduli 10007 --trials 1
        energy --kind residue --moduli 1009 --trials 6 --size-z 40
        energy --kind subgroup --moduli 101 --trials 6
    """),
}


def expected_rows(sweep) -> int:
    """Trial rows a sweep emits when it succeeds: moduli times trials.

    Every sweep here states both flags, so a sweep that writes nothing can
    still be charged its full row count.
    """
    args = list(sweep)
    moduli = args[args.index("--moduli") + 1].split(",")
    return len(moduli) * int(args[args.index("--trials") + 1])
