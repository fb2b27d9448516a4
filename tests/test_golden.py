"""Golden digests of the exact columns of one small sweep per experiment.

Each sweep's int, rational and str cells (every row, summary included) are
hashed with sha256; float columns are left out, so the digests do not
depend on the CPU or the BLAS build.  A change that alters what a sampler
draws, a count, a main term or a hard-check verdict changes a digest.

To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py` and paste its output.
"""

import hashlib

import pytest

from incidencelab.harness import make_config, run

SEED = 11

SWEEPS = {
    "dot-incidence": "dot-incidence --moduli 7,9 --trials 3",
    "det-incidence": "det-incidence --moduli 7 --trials 3",
    "det-incidence-d3": "det-incidence --d 3 --moduli 3 --trials 2",
    "crossratio-incidence": "crossratio-incidence --moduli 7,11 --trials 3",
    "spectrum": "spectrum --moduli 5 --trials 1",
    "spectrum-dot-n3": "spectrum --kind dot --n 3 --lam random --moduli 3,4 --trials 2",
    "spectrum-det": "spectrum --kind det --lam random --moduli 3 --trials 2",
    "spectrum-crossratio": "spectrum --kind crossratio --moduli 5 --trials 2",
    "kloosterman": "kloosterman --moduli 7,11 --trials 4",
    "bilinear": "bilinear --moduli 7 --trials 3",
    "hyperbola": "hyperbola --moduli 7 --trials 3",
    "lift-energy": "lift-energy --moduli 5 --trials 2",
    "intersection-charsum": "intersection-charsum --moduli 11 --trials 3",
    "zaremba": "zaremba --moduli 13 --trials 1",
    "energy": "energy --moduli 13 --trials 3",
    "energy-subgroup": "energy --kind subgroup --moduli 13,31 --trials 4",
}

GOLDEN = {
    'dot-incidence': '281abc52382767863b0b92577940c96ca084eb516a16f4dce4ba1b7d6a71be97',
    'det-incidence': '85dd3b1d17117731bab6002d80c9e0cf79550d6f66f9dd6af4394fdd1120d39b',
    'det-incidence-d3': '6f130a98308dfd5d388e0f75708f59629b13b9154b3ae7a7cd9feb74d4c6a5bc',
    'crossratio-incidence': '339aa5fca2eabcd76f13adc9f697d842cb34b7c67e6064c0cd4dfedbb6f2b37a',
    'spectrum': '4683024565a292e8a117102ec58c4dad41b10cc30904cf6a3099c17f14c4503f',
    'spectrum-dot-n3': 'dc3b716d6fab54e3db0029119ea68c0482ea7fc5b873a0a413a4b7bda8395847',
    'spectrum-det': '8aece90f804d951e683b8d788efae3df00ef1fc69d3c93003f03d6080f081575',
    'spectrum-crossratio': '809fcfa1381ec76cae3940e9899f444cd61bd1a4cc898c206d23a40ef3079ff5',
    'kloosterman': '0bda7d44f40e3ada200514eaef6bc753fba33f2719aebf09b81c637d54c9c59c',
    'bilinear': '05df9eec243642e32c29018345a451caefb81f168fbdb0e20198e60e49443376',
    'hyperbola': 'd0cbdcc144b4b7053544c8ff323a221a722e56594935a4a92390e0ce3dc0e8e8',
    'lift-energy': 'a15f3339a01dd64e60b2886d5ea18cf391104da4fe09c9c0d1609df1e246da1b',
    'intersection-charsum': 'efe0681897efcb3a630b0adba57981a98710a399435855d199d347681378e50a',
    'zaremba': 'df3be8edda6b7abe3835d3d8823b8a8c81904a3037a70e1b0054e30663c9c2e6',
    'energy': '66776167b0987bfcbced8ba75eabbdf41516a72c5e4a05d85d263b6398f92525',
    'energy-subgroup': '5a93658da4fdb0b1a6ddb0afd836a99e909b4473f8827e687e2209f1ee51030b',
}


def exact_digest(name: str) -> str:
    """sha256 of the sweep's int, rational and str cells, row by row."""
    experiment, *args = SWEEPS[name].split()
    mapping = {flag[2:].replace("-", "_"): value
               for flag, value in zip(args[::2], args[1::2])}
    result = run(make_config(mapping, experiment=experiment, seed=SEED))
    header, *lines = result.text.splitlines()
    keep = [i for i, col in enumerate(header.split(","))
            if not col.endswith("[float]")]
    digest = hashlib.sha256()
    for line in lines:
        cells = line.split(",")
        digest.update((",".join(cells[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_exact_columns_match_golden(name):
    assert exact_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in SWEEPS:
        print(f"    {name!r}: {exact_digest(name)!r},")
