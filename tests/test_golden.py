"""Golden digests: SHA-256 of CLI output files at fixed flags and seeds.

Criterion 9 checks that two runs of today's code give the same bytes; these
digests check that the bytes survive a refactor. A change that alters any of
them must say why (usually a changed sequence of RNG draws) and refreeze the
value here. `REPORTS` freezes the report text of `verify instance` the same way.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from streamcolor import gen_recursive, gen_simultaneous, gen_two_player, verify_instance
from streamcolor.instances import instance_to_json
from streamcolor.cli import main as cli_main

# (output name, argv); "{name}" in an argument is the path of an earlier output
COMMANDS = [
    ("bip.graph", ["gen", "graph", "--spec", "bipartite:n=120,m=700", "--seed", "3"]),
    ("gnm.graph", ["gen", "graph", "--spec", "gnm:n=120,m=900", "--seed", "3"]),
    ("planted.graph", ["gen", "graph", "--spec", "planted:n=120,clique=12", "--seed", "3"]),
    ("bip.stream", ["stream", "shuffle", "--graph", "{bip.graph}", "--seed", "4"]),
    ("gnm.stream", ["stream", "shuffle", "--graph", "{gnm.graph}", "--seed", "4"]),
    ("planted.dyn", ["stream", "dynamic", "--graph", "{planted.graph}",
                     "--extra-pairs", "300", "--cycles", "2", "--seed", "5"]),
    ("bip.dyn", ["stream", "dynamic", "--graph", "{bip.graph}",
                 "--extra-pairs", "200", "--cycles", "1", "--seed", "5"]),
    ("ro-bip.json", ["run", "random-order", "--stream", "{bip.stream}", "--q", "2", "--t", "3",
                     "--budget-multiplier", "0.2"]),
    ("ro-gnm.json", ["run", "random-order", "--stream", "{gnm.stream}", "--q", "2", "--t", "3",
                     "--budget-multiplier", "0.2"]),
    ("mp-bip.json", ["run", "multipass", "--stream", "{bip.stream}", "--q", "2", "--t", "3",
                     "--seed", "6", "--budget-multiplier", "0.1"]),
    ("mp-gnm.json", ["run", "multipass", "--stream", "{gnm.stream}", "--q", "2", "--t", "3",
                     "--seed", "6", "--budget-multiplier", "0.2"]),
    ("dyn-planted-sampled.json", ["run", "dynamic", "--stream", "{planted.dyn}", "--q", "2",
                                  "--t", "28", "--seed", "7"]),
    ("dyn-bip-sampled.json", ["run", "dynamic", "--stream", "{bip.dyn}", "--q", "2",
                              "--t", "28", "--seed", "7"]),
    ("dyn-planted-fallback.json", ["run", "dynamic", "--stream", "{planted.dyn}", "--q", "2",
                                   "--t", "3", "--seed", "7"]),
    ("dyn-bip-fallback.json", ["run", "dynamic", "--stream", "{bip.dyn}", "--q", "2",
                               "--t", "3", "--seed", "7"]),
    ("dist-ro.json", ["experiment", "distinguisher", "--algorithm", "random-order",
                      "--small", "bipartite:n=80,m=300", "--large", "planted:n=80,clique=6",
                      "--q", "2", "--t", "2", "--trials", "3", "--seed", "8"]),
    ("dist-mp.json", ["experiment", "distinguisher", "--algorithm", "multipass",
                      "--small", "bipartite:n=80,m=300", "--large", "gnm:n=80,m=300",
                      "--q", "2", "--t", "2", "--trials", "3", "--seed", "8"]),
    ("dist-dyn.json", ["experiment", "distinguisher", "--algorithm", "dynamic",
                       "--small", "bipartite:n=80,m=300", "--large", "planted:n=80,clique=20",
                       "--q", "2", "--t", "26", "--trials", "3", "--seed", "8",
                       "--extra-pairs", "100", "--cycles", "2"]),
    ("shrinkage.json", ["experiment", "shrinkage", "--graph-spec", "gnm:n=80,m=600",
                        "--t", "2", "--trials", "3", "--seed", "9",
                        "--budget-multiplier", "0.05"]),
    ("shrinkage.csv", ["experiment", "shrinkage", "--graph-spec", "gnm:n=80,m=600",
                       "--t", "3", "--trials", "2", "--seed", "9", "--format", "csv"]),
    ("vertex-sampling.json", ["experiment", "vertex-sampling", "--graph-spec",
                              "planted:n=80,clique=10", "--p", "0.5", "--trials", "4",
                              "--seed", "10"]),
    ("basic.cpg", ["gen", "basic", "--n", "64", "--k", "2"]),
    ("grouped.cpg", ["gen", "grouped", "--n", "256", "--r", "4", "--k", "2"]),
    ("dense.cpg", ["gen", "dense", "--k", "2", "--d", "7", "--p", "5", "--fano", "3"]),
    ("lift.cpg", ["gen", "lift", "-i", "{basic.cpg}"]),
    ("two-player.json", ["gen", "two-player", "--n", "64", "--k", "2", "--seed", "5"]),
    ("recursive.json", ["gen", "recursive", "--p", "3", "--k", "2", "--seed", "5"]),
    ("simultaneous.json", ["gen", "simultaneous", "--k", "4", "--n-base", "6", "--seed", "5"]),
]

GOLDEN = {
    "bip.graph": "f61e4650734617245075b9b26782cd6af83c0a113cbaed527428f1ea15150b2e",
    "gnm.graph": "87acb70fc608823d1ab024be5fef06929209191e3792d80921829eddaba926e7",
    "planted.graph": "63939ad6b86c8cd9a3051e853729625238bb06dfd2f090fb06bc5cee999ef453",
    "bip.stream": "21f6a4214ee8c76bdedaa43594f92d6d6bf9e86f6f60e85558fd9f7b46034adb",
    "gnm.stream": "fd368334425daf043ad9a1901d6d4456fdefcd385f82b9cf78c397dbb78dc7a4",
    "planted.dyn": "b6416cfd3cf3ac8313a538ba3707e17a2c8826c06d60a32833c61d040f8a3e80",
    "bip.dyn": "ab0af18da48fee5c6929d77e8a857e724a212aa8a6990a625c780791545239b9",
    "ro-bip.json": "aedfd19cdcf04db7b34f96405b9616c28e4ae190b0c9721044ac3869c8c38acb",
    "ro-gnm.json": "e80e3d3ee3ee585171309ce3ca2ce28c9120cabfbe2c287bda251229575513e5",
    "mp-bip.json": "2f224e0eed580ec6cfdd6d60865f23ffdc1d0ea383ee619d47d6726478184c6c",
    "mp-gnm.json": "df12d965f25d4253b275c8cca1a189e63abb85e6f42cefc1151002cacdf53b29",
    "dyn-planted-sampled.json": "701b57c045a4a2c00ba16fad81bc13d2c9d7714d68bed25e5c02c8d1a09e99db",
    "dyn-bip-sampled.json": "2f28dd31211a8cbfd2e5e08e523978f2114168200dfb421546e4e7d6c3e5c83b",
    "dyn-planted-fallback.json": "44b73b0d71f1cf42075aeec5ea4c4f8846e935772f0c7a0316b7bfe59529a7d0",
    "dyn-bip-fallback.json": "a9886bae175364d53a2870824362e0395b12e95eba620a387d57bf0867f75dba",
    "dist-ro.json": "6d872bb48b1357c5660208a4a65e57e7fe93768af48731c68ff47eefb374874f",
    "dist-mp.json": "5ba11a71b5b66d036c82457cb56bbc19ab75c2ecc6b3976488f945d45f06a172",
    "dist-dyn.json": "f68aba137dd5a6c1ba645f8672feadf18806e542dfcb70a866fdaf5c089ddf4d",
    "shrinkage.json": "270047460c2f0de04591de553a94a0ed6a0aeced32e1e511372e24742e7cd910",
    "shrinkage.csv": "31d6f0d7287ff49f61a7a431154e8a518d71d42d0ff83400312fa1ee70bd98a1",
    "vertex-sampling.json": "72f0addf34ec1e9cc1e5439638f42b6e5a4b7c504f83ce97cdf9389ae43b7d63",
    "basic.cpg": "ca37ef0235e822c43a43f9b40ad44266054af355066963c46619dd968a3bc6d7",
    "grouped.cpg": "4f8bde6065d79ceca489cf3764b9281699fcdf85d73b88c6c89a8ca79cd1df1c",
    "dense.cpg": "a1dd017921919122ea286db00439c4b3f9a1499c0e9c6695e3166fa11c5fe08e",
    "lift.cpg": "330a5b0954a5731124fea98d619a846746932cb7ae71053c957fe4ef7d9e440e",
    "two-player.json": "0bd52c05fd46a07db14554c87a62a03c27a606c1eeda2eb1d8e582993c4d172d",
    "recursive.json": "be04dc74c53d5f01ac48855d2f88614c6b25fb778d45512ad053c096d4bc20f4",
    "simultaneous.json": "60e79a82e70f347a8bcf20ed2123035d9cce1cff2e03f4a5dde195a32590e2fd",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {name: str(root / name) for name, _ in COMMANDS}
    out = {}
    for name, argv in COMMANDS:
        args = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
        code = cli_main(args + ["-o", paths[name]])
        with open(paths[name], "rb") as f:
            out[name] = (code, hashlib.sha256(f.read()).hexdigest())
    return out


def test_every_output_is_frozen():
    assert [name for name, _ in COMMANDS] == list(GOLDEN)


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_digest(digests, name):
    code, digest = digests[name]
    assert code == 0
    assert digest == GOLDEN[name]


# `verify instance` stdout on each frozen instance file, and the exit code and
# message on a copy whose last player part lost its last edge: the reader
# compares the file with the regenerated instance field by field and names
# the first field that differs
REPORTS = {
    "two-player.json": ["player1-edges", "player2-edges", "edge-disjoint", "ans-bit",
                        "special-set", "gap-clique"],
    "recursive.json": ["player1-edges", "player2-edges", "player3-edges",
                       "eq1-chain", "intersection-size", "set-sizes", "row-balance",
                       "answer-anchoring", "special-set", "sigma-bijection",
                       "gap-witness-coloring", "inner-player1-edges", "inner-player2-edges",
                       "inner-edge-disjoint", "inner-ans-bit", "inner-special-set",
                       "inner-gap-witness-coloring"],
    "simultaneous.json": ["theta-anchoring", "relabel-consistency", "bipartite-part",
                          "gap-witness-coloring"],
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_verify_instance_report(tmp_path, capsys, name):
    path = str(tmp_path / name)
    assert cli_main(dict(COMMANDS)[name] + ["-o", path]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "instance", "--file", path]) == 0
    assert capsys.readouterr() == ("".join(f"{row}: pass\n" for row in REPORTS[name]), "")
    with open(path) as f:
        payload = json.load(f)
    payload["players"][-1] = payload["players"][-1][:-1]
    with open(path, "w") as f:
        json.dump(payload, f)
    assert cli_main(["verify", "instance", "--file", path]) == 3
    assert capsys.readouterr() == (
        "", "error: stored 'players' does not match the regenerated instance\n"
    )


# the instance JSON, then the `verify_instance` text, of each of 182 instances:
# five families at seeds 0-11 and every answer-bit override, then two p = 3,
# k = 3 recursive instances
INSTANCES = "ca72b59dd2ba43b303ce2ad33817de03170337beedda07d2bd36a32e80839e04"


def test_instance_json_and_reports():
    def family(seed, bit):
        return [
            gen_two_player(64, 2, seed=seed, ans_override=bit),
            gen_two_player(108, 3, seed=seed, ans_override=bit),
            gen_recursive(3, 2, seed=seed, ans_override=bit),
            gen_simultaneous(4, 6, seed=seed, theta_override=bit),
            gen_simultaneous(5, 4, seed=seed, theta_override=bit),
        ]

    insts = [inst for seed in range(12) for bit in (None, 0, 1) for inst in family(seed, bit)]
    insts += [gen_recursive(3, 3, seed=seed) for seed in (0, 1)]
    digest = hashlib.sha256()
    for inst in insts:
        digest.update(instance_to_json(inst).encode())
        digest.update(str(verify_instance(inst)).encode())
    assert len(insts) == 182 and digest.hexdigest() == INSTANCES
