"""Frozen SHA-256 digests of small simulations.

Every drawn bit and every floating-point operation of the recursion feeds
msd, bits and chi_sq, so a refactor that changes a single draw or a
summation order changes a digest here. The networks stay at n <= 8 so that
no BLAS call is large enough to use more than one thread.

A deliberate change of drawn bits regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from subspaceq import graphs, learning, quantizers
from subspaceq.learning import DataModel, RunConfig

L = 3


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def digests(res) -> dict:
    return {"msd": _digest(res.msd), "bits": _digest(res.bits),
            "chi_sq": _digest(res.chi_sq)}


def _network(n, mode, connectivity=0.6, seed=5):
    top = graphs.build_topology(n, connectivity, seed=seed)
    if mode == "consensus-metropolis":
        basis = graphs.subspace_consensus(n, L)
    else:
        basis = graphs.subspace_smooth(top, 2, L, weight=0.1)
    return top, basis, graphs.build_combination(top, basis, mode=mode)


def _models(n, seed=42):
    rng = np.random.default_rng(seed)
    wstar = rng.normal(0.4, 1.0, (n, L))
    return [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2), wstar[k])
            for k in range(n)]


# two parameterizations per scheme: "shared" uses the first for every agent,
# "cycled" alternates them over the agents
PAIRS = {
    "identity": (quantizers.identity(L), quantizers.identity(L, b_hp=16)),
    "uniform": (quantizers.uniform(0.02, L), quantizers.uniform(0.05, L)),
    "anq": (quantizers.anq(0.5, 0.01, L), quantizers.anq(0.25, 0.02, L)),
    "randc": (quantizers.randc(2, L), quantizers.randc(1, L)),
    "gossip": (quantizers.gossip(0.6, L), quantizers.gossip(0.3, L)),
    "sparsifier": (quantizers.sparsifier(0.5, L),
                   quantizers.sparsifier([0.9, 0.4, 0.7], L)),
    "qsgd": (quantizers.qsgd(4, L), quantizers.qsgd(2, L)),
}


def _consensus_run(quantizer, n=6, debug=False, **kw):
    top, basis, comb = _network(n, "consensus-metropolis")
    cfg = RunConfig(**{"mu": 0.02, "gamma": 0.8, "iterations": 60, "runs": 2,
                       "quantizer": quantizer, "seed": 11, **kw})
    return learning.run(cfg, _models(n), basis, comb, debug=debug)


def _lsq_run(quantizer, n=6, **kw):
    top, basis, comb = _network(n, "subspace-lsq", connectivity=0.7)
    cfg = RunConfig(**{"mu": 0.02, "gamma": 0.9, "iterations": 60, "runs": 2,
                       "quantizer": quantizer, "seed": 13, **kw})
    return learning.run(cfg, _models(n), basis, comb)


def _diffusion(quantizer, n=6, **kw):
    top = graphs.build_topology(n, 0.6, seed=5)
    cfg = RunConfig(**{"mu": 0.02, "gamma": 0.8, "iterations": 60, "runs": 2,
                       "quantizer": quantizer, "seed": 17, **kw})
    return learning.run_diffusion(cfg, _models(n), graphs.metropolis_weights(top))


def _cycle(specs, n):
    return [specs[k % len(specs)] for k in range(n)]


CASES = {}
for _kind, (_first, _second) in PAIRS.items():
    CASES[f"shared-{_kind}"] = lambda s=_first: _consensus_run(s)
    CASES[f"cycled-{_kind}"] = lambda p=(_first, _second): _consensus_run(_cycle(p, 6))
CASES.update({
    "mixed-all-kinds": lambda: _consensus_run(
        [PAIRS[k][0] for k in PAIRS] + [PAIRS["anq"][1]], n=8),
    "uniform-equal-copies": lambda: _consensus_run(
        [quantizers.uniform(0.02, L) for _ in range(6)]),
    "lsq-anq": lambda: _lsq_run(PAIRS["anq"][0]),
    "lsq-mixed": lambda: _lsq_run(_cycle([PAIRS["uniform"][0], PAIRS["qsgd"][0],
                                          PAIRS["gossip"][0]], 7), n=7),
    "diffusion-uniform": lambda: _diffusion(PAIRS["uniform"][0]),
    "diffusion-cycled": lambda: _diffusion(_cycle(PAIRS["randc"] + PAIRS["anq"], 6)),
    "debug-anq": lambda: _consensus_run(PAIRS["anq"][0], debug=True),
    "debug-lsq": lambda: learning.run(
        RunConfig(mu=0.02, gamma=0.9, iterations=250, runs=1,
                  quantizer=PAIRS["sparsifier"][0], seed=3),
        _models(6), *_network(6, "subspace-lsq", connectivity=0.7)[1:], debug=True),
    "flag-diverged-lsq": lambda: _lsq_run(quantizers.identity(L), mu=50.0,
                                          gamma=1.0, runs=3, iterations=200,
                                          on_divergence="flag"),
    "flag-diverged-consensus": lambda: _consensus_run(
        PAIRS["gossip"][1], mu=40.0, gamma=1.0, runs=3, iterations=200,
        on_divergence="flag"),
    "flag-diverged-diffusion": lambda: _diffusion(
        PAIRS["uniform"][0], mu=50.0, gamma=1.0, runs=3, iterations=200,
        on_divergence="flag"),
})

GOLDEN = {
    'cycled-anq': {
        'msd': '27ab2adf0f002adf7f167f2708a164b37460a603ef8a54208c000257a7147321',
        'bits': '0179eff0e753d41f7c7c40692bd36ff93015365ce93eaf6ded822f4af227f975',
        'chi_sq': 'a87b819535e17df26ef28ff198209b3d86459bec51555a5238d0a04b51442170',
    },
    'cycled-gossip': {
        'msd': '34c3de428cce0b693f1bf475c5a6d3bdaab1a45485f9f547ab1d1aaba665a283',
        'bits': '17b9292d8d25f7ba3e086d44b217f46a8dde3c0a93a1c578d356ea20db8fa904',
        'chi_sq': '713fd526b094a5b05705b4f06815abda5a7805ab79f6cf910949f1cb990e6534',
    },
    'cycled-identity': {
        'msd': '65a5c5b4d703afdf793087b0ad18d254d2b7bd385eb98205069d42705f4901a6',
        'bits': '787e1d0d50ddfa6b8cd6bc8dbecccbf5798ee948c3d6138ed76202a5d9846ab4',
        'chi_sq': 'd54e76c7d697dcb695f459a1ff52c18be12437a3ea96e9171006680f88e40979',
    },
    'cycled-qsgd': {
        'msd': '840abf13ae9134482e7d5111f36eb502a4c4e8bcb785caa29a2553bb1926a30b',
        'bits': '019e574540397be85228e4d547ebca27305c74ddad842416c5fe189a498f6d09',
        'chi_sq': '96dd24368cd1ff81604612d28e3ec0f2815ad76b45b3e0ebceb6f3202214a4dc',
    },
    'cycled-randc': {
        'msd': '229e598333e44db4f319ee1bd8579f7a5b496115265c91d020d5bbfb9d089956',
        'bits': 'ed82fe50437bfc61fc2d132413d5caa0b585f1bba7f8796dcb0dd15c1b2ac705',
        'chi_sq': '2cf7a65042b6fc5e8e8893806a7201d3216d835c4091da8fd28645f256cba7bd',
    },
    'cycled-sparsifier': {
        'msd': 'fab02543cf4284a0d113d46c68665ec6eb452bccc94e92c58f9a6e6e4e7bc6e2',
        'bits': 'bab120cc7eb6bd2024bb9fff7d71b44415a8891215ea893149efb2454f5c62f2',
        'chi_sq': '42a650d271a6601608adfce7c664fa6c98fa07b627fe5a0f1e2d222f9a75af32',
    },
    'cycled-uniform': {
        'msd': '486c0ce13b170606004f78bc000be74941f0adef6cdc4e773b8bfb0d2d4ac1f2',
        'bits': '0b195261f8a4d9523163c42b9299d38a7d8ef1144a1ec021f8a9cea0cf60a934',
        'chi_sq': '15851cf4091c77c399aace3c20ac0d59b8851292d3cadf2f1f636505a06be794',
    },
    'debug-anq': {
        'msd': 'e8e2fcd6f4714c0395cb80aab5ceb4a5f14184e1a23484f7cdbb30bed09de771',
        'bits': 'db7dab766c93fc9c5d5326db4ecd71b4f8289a75568d594ae7f0545b9383f903',
        'chi_sq': '2bbb86810adb5eaffa36c4973f9ace24aad795f734d04fb39496febd07e1b375',
    },
    'debug-lsq': {
        'msd': '1f0a6a6c0ad50da7a9ba85fb60f94f2b66470d77e652e7e73c8f286dfe6feddb',
        'bits': 'c112237fae37d273ab6ccfd96a3a44d818656a374c69e38a52595ee278b6bb89',
        'chi_sq': '330732022f135600858212b6711574369e0f1e7f6414e750ee4b6fef9440af82',
    },
    'diffusion-cycled': {
        'msd': 'e2d33eb5465227edd85ffa16484bd2abe9facd73ff6bb14c91a66d13338f74d6',
        'bits': '4f276cdd48efc250e106494a6591f2d4254ffe98c46ebe489a83d81982356c35',
        'chi_sq': 'e7db89c968199087da13e7bf1f4af1f0b24d31275bd245999416b6b38cf4a1a7',
    },
    'diffusion-uniform': {
        'msd': '703736f96112238fac0313b2cb00dd983116c23309706b2951561802d0f8525d',
        'bits': 'b056a60d70492d1e75c11d176695de4414e85750098b6ccb4eab9b3320e8d6ad',
        'chi_sq': '68935f77950bf51da343da92fb33232571c6b457369e088db5ebcf7bd2dae22a',
    },
    'flag-diverged-consensus': {
        'msd': 'bffc5f1005f0fcc366c8c23736bcafd0fb21a6f1fc5e439ab7e0060e25b95a1e',
        'bits': 'bcdfff8288ac062d1afa1793f0cd346599b3afae3c3aaf9806f67840670cd9cb',
        'chi_sq': '586ef341e3e97daeeed52476687eb46bf106ddbec6f251cbf3ab61ae3d428b81',
    },
    'flag-diverged-diffusion': {
        'msd': '0f21f20a4ffa8a9a425e33fc32f935055c08e5af97dfb3250a3c9753364d7953',
        'bits': 'bb89f689cc69fb203147ec920214a771b9bd84f564a22f55d97ddf631ba11057',
        'chi_sq': '4b1a0c10ff72a2b10b52f58318d871636e2701166fb23c7fa6e08e6e6a33bc54',
    },
    'flag-diverged-lsq': {
        'msd': 'd233366381ca919683b798651b43f3d6478f18e8ef8893d9e29e59c1dafcd550',
        'bits': '99a8b7d9a84bac1b3e9323df78b3f69a4087280391b80fcb8edacf96cf85fbae',
        'chi_sq': '6554450e7f5c26446265d271e635c2872ba5d862d80de287620ac5717ba8d7a2',
    },
    'lsq-anq': {
        'msd': 'aa4a61b584fdcbfedfda67cb05c59873f783270e12c3bbc2cea12c8aed030ded',
        'bits': '21e33d9371db6a0fbadd2ebd1fd0170ddc4405fda818bb731983d41a4b4087be',
        'chi_sq': 'f05b073d9071bb040a304b13c254744248a18aedc546c51ca150adaeb185251d',
    },
    'lsq-mixed': {
        'msd': 'c0f77aeb8e7cb3df7b7a78962f028464ad30953fc3133085edffc571396f2230',
        'bits': '9a2d89f6d41b8d8e0d32cdb0229b2c522a41e3d3d8cedd4c0077cd873967078d',
        'chi_sq': '5aeaa4d5d48400cef48f3c51c78feadca096ac67d0ded97301fdc1c73ee03786',
    },
    'mixed-all-kinds': {
        'msd': 'ff593b275372391390a8426c13406aa1cf10a1cf3f7a8cd266dd61826b725177',
        'bits': '374bb0c2ac368c22f342b0ed402ee08684a74f6c1a528087a97072bff9d952ad',
        'chi_sq': '8e69c7b7ac7ccb37b50e03ef6e35ae3bf2100e853d800cdc5d2f65431d755082',
    },
    'shared-anq': {
        'msd': 'e8e2fcd6f4714c0395cb80aab5ceb4a5f14184e1a23484f7cdbb30bed09de771',
        'bits': 'db7dab766c93fc9c5d5326db4ecd71b4f8289a75568d594ae7f0545b9383f903',
        'chi_sq': '2bbb86810adb5eaffa36c4973f9ace24aad795f734d04fb39496febd07e1b375',
    },
    'shared-gossip': {
        'msd': '7071e51f006730a0ae0fc37fbf2ae5c1b048ba1b5b3502d69686385f7767b84b',
        'bits': '3253a7edba0d722732bdbf9c44ebc446b1dc629037b35074e8d0053057af8fa1',
        'chi_sq': 'cdcb9cff363683cb31d217d4b0c6af0f802bca14db866607cd144dd9e06c2a34',
    },
    'shared-identity': {
        'msd': '65a5c5b4d703afdf793087b0ad18d254d2b7bd385eb98205069d42705f4901a6',
        'bits': 'eb7e364542e5dfc80cf193a5d4290e71af563ecdb300bfbc3ba8c062f15f16a7',
        'chi_sq': 'd54e76c7d697dcb695f459a1ff52c18be12437a3ea96e9171006680f88e40979',
    },
    'shared-qsgd': {
        'msd': 'a63ee33fbf859f1f1223010768b96a3be012228bdaf6a155c18a200bbaca4390',
        'bits': '0df377fed0dbe373c29953affceafff2b0bcbfaad5177848e243ffa643ae42a8',
        'chi_sq': 'b9d5ee521e36368ed254eaa52ee503a02ef38e22cd6604f4d7f0c9aebd4faba6',
    },
    'shared-randc': {
        'msd': 'acab8fb224f40a3918adb2fed54185c594263c29d212a04b06410c9e51397b6e',
        'bits': '422c7c07a2c2d47348f6d3884f24a3f330f34c1768bb29f50d29adf4110e0a6e',
        'chi_sq': '788ebd1cf99b370140fd9e3fa379d7cb5466fdfcf5b8aa1af06cf8c5fe81eaec',
    },
    'shared-sparsifier': {
        'msd': '967d3eb5b9fbcdefbb826b1f2afcdf8a56d56060c45c25800129841d4c914668',
        'bits': 'd3c13bcc09c01fc4677dd919218f0da09eb961a1b99b8862a03168ef51d3f280',
        'chi_sq': '21c1ab428ffd3c8610bed28c7d17cbb080efc952102566f2c345151fdb4ef1a5',
    },
    'shared-uniform': {
        'msd': 'a33b779d9e41b8c4d97b0ff4035c2654663eff2c64dc73a70c4b8943ed32fc2f',
        'bits': '8939fce499243e50fddcdf2aa29a83c677d1e3299a883169421a5a7c99b358ef',
        'chi_sq': '1b1f7497f6a1b25c8954676c2f3d18233650cada657857635f1210f9bf20e559',
    },
    'uniform-equal-copies': {
        'msd': 'a33b779d9e41b8c4d97b0ff4035c2654663eff2c64dc73a70c4b8943ed32fc2f',
        'bits': '8939fce499243e50fddcdf2aa29a83c677d1e3299a883169421a5a7c99b358ef',
        'chi_sq': '1b1f7497f6a1b25c8954676c2f3d18233650cada657857635f1210f9bf20e559',
    },
}


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


def test_divergent_arms_diverge():
    for name in CASES:
        if name.startswith("flag-diverged"):
            res = CASES[name]()
            assert res.diverged and res.runs_used == 1, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digests(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name in sorted(CASES):
        print(f"    {_name!r}: {{")
        for _key, _value in digests(CASES[_name]()).items():
            print(f"        {_key!r}: {_value!r},")
        print("    },")
    print("}")
