"""Frozen SHA-256 digests of small simulations and of quantizer outputs.

Every drawn bit and every floating-point operation of the recursion feeds
msd, bits and chi_sq, so a refactor that changes a single draw or a
summation order changes a digest here. The networks stay at n <= 8 so that
no BLAS call is large enough to use more than one thread. A second table
freezes what the quantizers return on their own: the quantize payload with
its reconstruction, and sample_errors, for every scheme.

A deliberate change of drawn bits regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. It prints all three tables.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from subspaceq import analysis, graphs, learning, quantizers
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


def _network(n, mode, connectivity=0.6, seed=5, l=L):
    top = graphs.build_topology(n, connectivity, seed=seed)
    if mode == "consensus-metropolis":
        basis = graphs.subspace_consensus(n, l)
    else:
        basis = graphs.subspace_smooth(top, 2, l, weight=0.1)
    return top, basis, graphs.build_combination(top, basis, mode=mode)


def _models(n, seed=42, l=L):
    rng = np.random.default_rng(seed)
    wstar = rng.normal(0.4, 1.0, (n, l))
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
    cfg = RunConfig(**{"mu": 0.02, "gamma": 0.8, "iterations": 60, "runs": 2,
                       "quantizer": quantizer, "seed": 17, **kw})
    return learning.run(cfg, _models(n),
                        *_network(n, "consensus-metropolis")[1:])


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
    # 1,500 rounds span three chunks of the QUANTIZE lane at six agents
    "lsq-uniform-chunks": lambda: _lsq_run(PAIRS["uniform"][0], iterations=1500),
    # l = 8: nine normals a GRADIENT cell, three Philox blocks; 800 rounds
    # cross a chunk edge of both lanes at four agents
    "consensus-uniform-nine-normals": lambda: learning.run(
        RunConfig(mu=0.02, gamma=0.8, iterations=800, runs=2,
                  quantizer=quantizers.uniform(0.02, 8), seed=19),
        _models(4, l=8), *_network(4, "consensus-metropolis", l=8)[1:]),
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
    # n = 1: plain stochastic gradient descent, A = 1
    "single-agent-anq": lambda: _diffusion(PAIRS["anq"][0], n=1),
    "single-agent-flag-diverged": lambda: _diffusion(
        PAIRS["uniform"][0], n=1, mu=50.0, gamma=1.0, runs=3, iterations=200,
        on_divergence="flag"),
})

GOLDEN = {
    'consensus-uniform-nine-normals': {
        'msd': '5e05228517a1402e7171a65f83042f91e2b62706d7778c256b314823ef279108',
        'bits': 'fe6ca4ec058a49dbf009825de7538793591e2337035cd636bcbd6de577ee82b2',
        'chi_sq': '39a8060ebf043c239c5bf7a26e4f0f45447ebdc4338a161ba211e1eed214593c',
    },
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
        'msd': '7d239663320d7207695547afee4d8cfce73692c45e623f291d04ce23d9968aee',
        'bits': '4f276cdd48efc250e106494a6591f2d4254ffe98c46ebe489a83d81982356c35',
        'chi_sq': '5db86ded4c80c9769c244770a12d0b82bcddc5399c2d534184c9412a2e8620c3',
    },
    'diffusion-uniform': {
        'msd': 'cc50fe87824185dbd2fc9b7b0be0f39cd01986f20424ebab04f1c4bdcf6eb474',
        'bits': 'b056a60d70492d1e75c11d176695de4414e85750098b6ccb4eab9b3320e8d6ad',
        'chi_sq': 'e9c4f1236e1208d1746c3526af1ddabddae8a42895118bbc3cf0ef4d0cc16211',
    },
    'flag-diverged-consensus': {
        'msd': 'bffc5f1005f0fcc366c8c23736bcafd0fb21a6f1fc5e439ab7e0060e25b95a1e',
        'bits': 'bcdfff8288ac062d1afa1793f0cd346599b3afae3c3aaf9806f67840670cd9cb',
        'chi_sq': '586ef341e3e97daeeed52476687eb46bf106ddbec6f251cbf3ab61ae3d428b81',
    },
    'flag-diverged-diffusion': {
        'msd': 'a33ca89a8f07d4e647c1f31310ab3ce8fb5f920660cca07e49d438fa111b841e',
        'bits': 'bb89f689cc69fb203147ec920214a771b9bd84f564a22f55d97ddf631ba11057',
        'chi_sq': '05a41ef4bb3291007505c8bc11657b41d18bb5e49e01d9d5764074b39eba2cb4',
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
    'lsq-uniform-chunks': {
        'msd': '984771792aa18ed3c0a6e72406c2bb333b14d122873832579fddf17e947a6399',
        'bits': '7caca64681e1e155d5aa48b4e984b0251835498d347b87e8f35365863b88b6bf',
        'chi_sq': '5f798a41c80f10f0ed8cd63dbaa2f42104a026ce17b10b7a96e682de6d650050',
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
    'single-agent-anq': {
        'msd': 'd9fe356475eec2567202cfe8be4a388f1741cd2e0fd8a6a3a68e6a43d9636af0',
        'bits': '85f59aa9a4311d4980f464c6934a9096accabc8bbdebb39cc6620d9c830388cf',
        'chi_sq': '7efa8510cf7e021846a5653d8e1c898067483fcfdfe447eb7a92ee21a810bdee',
    },
    'single-agent-flag-diverged': {
        'msd': '86bcd52a75ab847c8885b0b6abc0a3f444b54aff3447a5ec985fa3ba3d0ed073',
        'bits': '8da9fe4462ed75cbc0960ee689d3764494705d97c11543a30ee5790375ba209d',
        'chi_sq': '120592e85a06451dad343997490bf54f309a89a8e7aaa1eeb26eb41497f7399d',
    },
    'uniform-equal-copies': {
        'msd': 'a33b779d9e41b8c4d97b0ff4035c2654663eff2c64dc73a70c4b8943ed32fc2f',
        'bits': '8939fce499243e50fddcdf2aa29a83c677d1e3299a883169421a5a7c99b358ef',
        'chi_sq': '1b1f7497f6a1b25c8954676c2f3d18233650cada657857635f1210f9bf20e559',
    },
}


# fixed quantizer inputs: a generic vector and the all-zero vector (qsgd's
# zero-norm message)
INPUTS = {"vec": np.array([0.37, -1.21, 0.004]), "zero": np.zeros(L)}
MESSAGE_FIELDS = ("indices", "values", "coords", "levels", "signs", "norm",
                  "bit_cost")


def _payload_digest(spec, x, seed, calls=20) -> str:
    """Every field of `calls` quantize messages drawn from one generator,
    followed by each message's reconstruction."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(calls):
        msg = quantizers.quantize(spec, x, rng)
        for field in MESSAGE_FIELDS:
            value = getattr(msg, field)
            h.update(field.encode())
            h.update(b"-" if value is None else _digest(np.asarray(value)).encode())
        h.update(_digest(quantizers.reconstruct(spec, msg)).encode())
    return h.hexdigest()


def _errors_digest(spec, x, seed, draws=40) -> str:
    return _digest(quantizers.sample_errors(spec, x, np.random.default_rng(seed),
                                            draws))


QUANTIZER_CASES = {}
for _kind, _specs in PAIRS.items():
    for _which, _spec in zip(("first", "second"), _specs):
        for _name, _x in INPUTS.items():
            QUANTIZER_CASES[f"quantize-{_kind}-{_which}-{_name}"] = (
                lambda s=_spec, x=_x: _payload_digest(s, x, seed=21))
            QUANTIZER_CASES[f"errors-{_kind}-{_which}-{_name}"] = (
                lambda s=_spec, x=_x: _errors_digest(s, x, seed=23))

QUANTIZER_GOLDEN = {
    'errors-anq-first-vec': 'fd43a7739778b14751ae9d88dff0e4f3f3580883588ae80c80e50950a7febe36',
    'errors-anq-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-anq-second-vec': '30dcc9fa09e7aec66ac534914c48fb20a362cf6da67cf04697d4823f9324f333',
    'errors-anq-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-gossip-first-vec': 'ce30ea801088309b6f2f11850b579899c844c517fb808ab73871b0c9b3b67c88',
    'errors-gossip-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-gossip-second-vec': 'e652845dbb28c2891356bb850896da4732b1461564c874d5a6f58524ae8c271d',
    'errors-gossip-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-identity-first-vec': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-identity-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-identity-second-vec': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-identity-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-qsgd-first-vec': '61b72d47a2be75d3863b8636f3b6a6e4845770fddaf1907867cc9cd6be4a2223',
    'errors-qsgd-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-qsgd-second-vec': '32009338f975b7c1a128d14a6d835c660fda47203b04e4260207be52e4131d6b',
    'errors-qsgd-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-randc-first-vec': '8f6a1827aa3f899de9e9d6f83b08945ec1d716b6e5c5dd1edc597ad26522672e',
    'errors-randc-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-randc-second-vec': 'fb23812693bb773a9e451b8aa614ad53e4dd36d5aee1eaf5b5b8d1f22a25be44',
    'errors-randc-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-sparsifier-first-vec': '40c93db797832b2e4a98c99e2a0391f35e17c413a3889cd234d0408739016ca5',
    'errors-sparsifier-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-sparsifier-second-vec': '93b8b6d8971400e2ec6b082f9a4312d6a5593d3bd213912a368ea2c55afcdacb',
    'errors-sparsifier-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-uniform-first-vec': '49a735f843150847e1ac52fb2ed98e05d122dcc706bf4d1a293f326381af5263',
    'errors-uniform-first-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'errors-uniform-second-vec': '087bc925a0fa25f5140dd6f856564046da74f3e713b723b3cbf25a03d264219a',
    'errors-uniform-second-zero': 'a76dde217b4dd783bc4af3e0a52a73bd6c07f87900bb09bf79b384c3c4fc9cd9',
    'quantize-anq-first-vec': '82e70f9dee2b03417f4122d3d475553f5982aabb77e2355ad256eb413d08db49',
    'quantize-anq-first-zero': 'ca32f1333c5db7893a56c8fb1d6d6edc8ea7c4b4b5de49606715b8f04f2541ec',
    'quantize-anq-second-vec': '5ce8e180d5ef317dd40001ada8faa92ba8e8db9e93d2bb69627780e953d00017',
    'quantize-anq-second-zero': 'ca32f1333c5db7893a56c8fb1d6d6edc8ea7c4b4b5de49606715b8f04f2541ec',
    'quantize-gossip-first-vec': '80f01e4904c1a4f4577c4b34914e611f6acffc3e30925f0e887b73aa59c856f8',
    'quantize-gossip-first-zero': 'e8121e9990e9f05445c0c6d4b3bf44e0d5eef9e6f3e22407fa24f014a66a7298',
    'quantize-gossip-second-vec': '8e64064f133304cef971e86680fdd84c71c14d4922caed971623d96fe7f4a114',
    'quantize-gossip-second-zero': '1226daeba24289cd65efc5b74efa8d5100bad5f201da84ec96e61164dce828f7',
    'quantize-identity-first-vec': 'aa6b346cad94303723b97217c92d57898b581c3dc95dddf0f2af3f4b9c698c2b',
    'quantize-identity-first-zero': 'ed082f316e625bd0de72f34a769b7f76040cb54cc2c60fe08fccfc6164cee721',
    'quantize-identity-second-vec': '478227678c4723275671baae4df820202f8058dc50775523d26b300dbc67952a',
    'quantize-identity-second-zero': '5b6fb2a3dc620e65b5d7733b2503d73987b54a9679c8c26b99baddae81031e1e',
    'quantize-qsgd-first-vec': 'afe251a670be073be21b0e35b78fbdc09f27e2a6d14b3b7acb7775aa75b3158b',
    'quantize-qsgd-first-zero': '5dc27808968a152169cd6b78608b6adbec7398f50376af8cb9d8f862550d9539',
    'quantize-qsgd-second-vec': 'b22d5a6826ead5d93dc02d382d6b64fb5741b3338d2608bd8e98a9716c6e5bdd',
    'quantize-qsgd-second-zero': '5dc27808968a152169cd6b78608b6adbec7398f50376af8cb9d8f862550d9539',
    'quantize-randc-first-vec': 'e65c99d4c42dcebd767e8a656024f112a8e50acde8feb0998fb0ea2044e368b2',
    'quantize-randc-first-zero': '293a56db0abe358825fc55a9fde83271f25ad76329313228c7cd429f279798f6',
    'quantize-randc-second-vec': '261cdf88c94347233404c1754e0e7db8f547535246df35cdd0da41f7f4fad7ed',
    'quantize-randc-second-zero': 'c6ad2e888e0d2b58e2a4c8cce32a32aec7b54e2beb0752f752cde845da5d3803',
    'quantize-sparsifier-first-vec': 'e2b642ac3725d5c275aebaac2d51b24a80c5997b76f042eda04cb4fa53a9c696',
    'quantize-sparsifier-first-zero': '2e12ce0e18b7b69adbc2b8eaf413e21d75e7e63d6f7d8ad917f32db4d5033ea9',
    'quantize-sparsifier-second-vec': '1da1a7e40fe9410989bc2caf7ba3613aebdf888c48888dc06eba27545fad2dd7',
    'quantize-sparsifier-second-zero': '315636c4e5ad3c1073b85e83db239502c220fba37f9fac7e8fa3cbb68581a17a',
    'quantize-uniform-first-vec': 'ae5831b6c4d7083c3f8c8291c22bf5798147a9aa23357edacf038d526df992d8',
    'quantize-uniform-first-zero': 'ca32f1333c5db7893a56c8fb1d6d6edc8ea7c4b4b5de49606715b8f04f2541ec',
    'quantize-uniform-second-vec': 'd1fe2d98a133ce86f26a53c0a9831cbb892d74f1f614fb758c4597cfcaec7cea',
    'quantize-uniform-second-zero': 'ca32f1333c5db7893a56c8fb1d6d6edc8ea7c4b4b5de49606715b8f04f2541ec',
}


def _sweep(mode, grid, **kw):
    top, basis, comb = _network(6, mode, connectivity=0.7 if mode == "subspace-lsq"
                                else 0.6)
    template = RunConfig(**{"mu": 0.02, "gamma": 0.9, "iterations": 500,
                            "runs": 2, "quantizer": quantizers.identity(L),
                            "seed": 13, **kw})
    return analysis.rate_distortion_sweep(template, _models(6), basis, comb, grid)


def sweep_digests(points) -> list:
    return [_digest(np.array([p.param_value, p.rate_bits, p.msd, p.msd_db,
                              float(p.diverged)])) for p in points]


# at mu = 0.4 the anq(1, 0.01) point passes DIVERGENCE_LIMIT in round 427 of
# its first run, and uniform(1e-20) needs level indices beyond 2**53 at once
SWEEP_CASES = {
    "sweep-consensus": lambda: _sweep("consensus-metropolis", [
        (0.2, quantizers.uniform(0.2, L)),
        (1e-20, quantizers.uniform(1e-20, L)),
        (0.0, quantizers.anq(0.0, 0.01, L)),
        (0.25, quantizers.anq(0.25, 0.01, L)),
        (1.0, quantizers.anq(1.0, 0.01, L)),
        (0.0, quantizers.identity(L)),
    ], mu=0.4, gamma=0.8, seed=11),
    "sweep-lsq": lambda: _sweep("subspace-lsq", [
        (0.02, quantizers.uniform(0.02, L)),
        (0.25, quantizers.anq(0.25, 0.02, L)),
        (1.0, quantizers.anq(1.0, 0.02, L)),
    ]),
}

SWEEP_GOLDEN = {
    'sweep-consensus': [
        '55a044598aa569f988dd7a4b24976334382f0c80eeb99fae00c54680e6dec6c2',
        'c6c9bf02d780199efa6502921c2478a2ca67f906d1898bed42b3e52c14c1566c',
        '977174a59dec15fb8a1dc2c5bbb1237f627bae61839a4fbf628037edf2f2af5a',
        'edea9dac40776b16f93256f7d7e1e04a49962cfdf6d6e4b5593765eadd4927ec',
        '8f4fd69f298ae3600566f99c3b55839c7703d5c25a45198ed466a1e82e6566a2',
        '571cbf5a864736afb19f2308f1768ec32f5b54aaa7d5320fc729b6a7fe53c90e',
    ],
    'sweep-lsq': [
        '81800d88d8765f689ff6365a2fc1ed2838d67230186a5652f731ce0f9d48bb64',
        '174863969b46fb01b121aa062bb9252f329fc7e83daaa2d52972df8715ef2d3f',
        '200cb960e10d3a7a73b09313303e496b9775acb1e932b79e24b81bd3faab6bf4',
    ],
}


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


def test_divergent_arms_diverge():
    for name in CASES:
        if "flag-diverged" in name:
            res = CASES[name]()
            assert res.diverged and res.runs_used == 1, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digests(CASES[name]()) == GOLDEN[name]


def test_every_quantizer_case_has_a_digest():
    assert set(QUANTIZER_GOLDEN) == set(QUANTIZER_CASES)


@pytest.mark.parametrize("name", sorted(QUANTIZER_CASES))
def test_quantizer_digest(name):
    assert QUANTIZER_CASES[name]() == QUANTIZER_GOLDEN[name]


def test_every_sweep_case_has_a_digest():
    assert set(SWEEP_GOLDEN) == set(SWEEP_CASES)


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_digest(name):
    assert sweep_digests(SWEEP_CASES[name]()) == SWEEP_GOLDEN[name]


def failing_cases() -> list:
    """The names, over all three tables, whose digests differ from the
    stored ones."""
    return ([name for name in sorted(CASES)
             if digests(CASES[name]()) != GOLDEN[name]]
            + [name for name in sorted(QUANTIZER_CASES)
               if QUANTIZER_CASES[name]() != QUANTIZER_GOLDEN[name]]
            + [name for name in sorted(SWEEP_CASES)
               if sweep_digests(SWEEP_CASES[name]()) != SWEEP_GOLDEN[name]])


# The cases whose digests follow OpenBLAS's kernels, by cause:
# - cycled-qsgd, shared-qsgd, mixed-all-kinds: qsgd's row norm is an
#   OpenBLAS ddot, whose summation order depends on the kernel;
# - lsq-anq, lsq-mixed, lsq-uniform-chunks, debug-lsq, flag-diverged-lsq,
#   sweep-lsq: the least-squares combination fit goes through SuperLU and
#   LAPACK;
# - consensus-uniform-nine-normals, msd only: compute_wopt's U^T H w_star is
#   an OpenBLAS dgemv over 32 coordinates.
BLAS_DEPENDENT = {"cycled-qsgd", "shared-qsgd", "mixed-all-kinds", "lsq-anq",
                  "lsq-mixed", "lsq-uniform-chunks", "debug-lsq",
                  "flag-diverged-lsq", "sweep-lsq",
                  "consensus-uniform-nine-normals"}


# The cases whose digests follow numpy's SIMD dispatch: anq's compander
# goes through log1p and expm1, whose AVX-512 loops round some results
# differently from the loops numpy falls back to, so every case that uses anq
# moves when numpy's AVX-512 dispatch is turned off.
SIMD_DEPENDENT = {"cycled-anq", "debug-anq", "diffusion-cycled", "lsq-anq",
                  "mixed-all-kinds", "shared-anq", "single-agent-anq",
                  "quantize-anq-first-vec", "errors-anq-first-vec",
                  "sweep-consensus", "sweep-lsq"}
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _numpy_blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return ""


def _numpy_has_avx512f():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "openblas" not in _numpy_blas().lower(),
                    reason="needs numpy on OpenBLAS on x86-64")
def test_only_blas_dependent_digests_move_on_another_blas_core():
    """The stored digests hold only on the CPU class that wrote them:
    OpenBLAS picks its kernels by CPU when it loads, and a kernel's
    summation order sets the last bits of a dot product or a solve. This
    recomputes all three tables in a process forced onto OpenBLAS's
    Prescott kernels (OPENBLAS_CORETYPE). Only BLAS_DEPENDENT cases may
    change there; in every other case, the diffusion and single-agent ones
    included, the BLAS calls that reach a digest (compute_wopt's, at
    n <= 8 and l = 3) give the same bits on either kernel.

    numpy picks its SIMD loops by CPU in the same way. Where numpy reports
    AVX-512F, a second process recomputes the tables with the AVX-512
    dispatch turned off (NPY_DISABLE_CPU_FEATURES); only SIMD_DEPENDENT
    cases may change there."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
              "import test_golden; print(json.dumps(test_golden.failing_cases()))")
    arms = [({"OPENBLAS_CORETYPE": "Prescott"}, BLAS_DEPENDENT)]
    if _numpy_has_avx512f():
        arms.append((AVX512_OFF, SIMD_DEPENDENT))
    for env, allowed in arms:
        done = subprocess.run(
            [sys.executable, "-c", script, os.path.join(here, "..", "src"), here],
            env={**os.environ, **env}, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        failing = set(json.loads(done.stdout.splitlines()[-1]))
        assert failing <= allowed, (env, sorted(failing - allowed))


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name in sorted(CASES):
        print(f"    {_name!r}: {{")
        for _key, _value in digests(CASES[_name]()).items():
            print(f"        {_key!r}: {_value!r},")
        print("    },")
    print("}")
    print()
    print("QUANTIZER_GOLDEN = {")
    for _name in sorted(QUANTIZER_CASES):
        print(f"    {_name!r}: {QUANTIZER_CASES[_name]()!r},")
    print("}")
    print()
    print("SWEEP_GOLDEN = {")
    for _name in sorted(SWEEP_CASES):
        print(f"    {_name!r}: [")
        for _value in sweep_digests(SWEEP_CASES[_name]()):
            print(f"        {_value!r},")
        print("    ],")
    print("}")
