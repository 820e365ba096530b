"""Pinned sha256 digests of the CLI's JSON output.

Each digest covers the stdout of its runs, in order, so it fails when any
key, value or layout of a witness trace, a witness or check report, an
end-degree estimate or a constructed graph moves -- which comparing a
record's JSON with itself cannot catch.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from minconn.cli import main
from minconn.constructions import multipath, path_square_example
from minconn.families import make_family
from minconn.io import to_edge_list, to_graph6
from minconn.minimality import MinimalityClass, check_class
from oracles import FAMILY_CLAIMS, class_d_bands, relabelled

# one family per kind of the claims table
SPECS = [
    "double-ray",
    "dr-square",
    "strong-dr:k=2",
    "cartesian-dr:k=2",
    "multipath-inf:k=3",
    "strong-tree:r=3,k=2",
    "cartesian-tree:r=3,k=2",
    "clique-tree:r=2,k=4",
    "ray-bundle:k=4,l=8",
]

PINS = {
    "witness b k=2": "9aeaf6810ead46c20d99bd8c843c277fb7eb4cb007891eccc9ede8729f61f929",
    "witness b k=3": "7a5cb47778c6f45bab7b0f34a59d2517dca15d233f846850632e1cdd56a68a7b",
    "witness b k=4": "76eaa4a706d057bb933497ee9a1bc2c64680d27cb1fb70381c0af6cec6e3a652",
    "witness c k=2": "bdc2879b63d413dc9c2c130f7123c46980f63425630bd2484f6dddcff0bb45bb",
    "witness c k=3": "fac141168466a53d5ead67bda025e87dc9e746434e0ab457befe6ed3be82b0f1",
    "witness c k=4": "a3a6def15ceaefb9ac554d51e9fbfd289852d62a45489c3b7ae204b9ee92b349",
    "witness d k=2": "b576edddcb34b1d972c9692fe2c537ed9c505108a9db7549c2937926402b0720",
    "witness d k=3": "810d5b6c35a9aa1b60eccf8e9a292d17e3636d7810e569162aa32277c16e9928",
    "witness d k=4": "3606dd817f8e9b92ce2d589d108f223c78f8139237690d5b8b25bdf8107d600e",
    # taken with the all-x scan for class d's start region
    "band witness d k=3": "7ad3838e9d81bebf16092ecadd0736e68fbcef7f134d2b94bd3764b6226e53cf",
    "band witness d k=4": "fd7a57b08603a89ab9997f27e52339e1378ef1f862c15cb73ce135a1b6daf41a",
    "band witness d k=5": "54925644f786b21b4063e8fc03ae06952a749b28bef2270227a2c4e83eeac6dd",
    # taken with one component search per vertex in each greedy region step
    "region witness c path-square": "ee29c6613b1f65e2c66f812a5847fb6a16d96d3f8ad4c7e932d2d847f02e3a1e",
    "region witness c multipath k=2": "4973e4a3e93dc7e55e537a65d003f57ed01d774c4964617004be7638c418acd1",
    "region witness c multipath k=3": "aa9da58e7eb61edc5fa0ea97a4ee3f8225ae476d81e59a923a4d9d20279444f1",
    "region witness c multipath k=4": "63f26839a6b582b7d0b11cf28f4ba3979c60ddb4007a018740741eebead34ad6",
    # taken with the document built as one string before it was written
    "construct json clique-tree:r=2,k=4 --radius 2": "f72abc7967b823c9e096ee94c60c409e5615c84c950196f8bd6ead8fb32e274e",
    "construct json multipath:k=3,m=5": "5adf5657d7e72a761bf725b6c88e698916adffa992feeac93ea2d5d95ef4a294",
    "end-degree double-ray vertex": "f1519fbf2e882742daa686904a5d9f9f986b85ed71aac68bdf75b95bd32ee466",
    "end-degree double-ray edge": "40a0d0f75848000c6771fe8aff44151fb7d9c3df29d67996cf03592058040834",
    "end-degree dr-square vertex": "ef1f0a8f6f834378f67495038578ed1a6724f7a4c6c431f5d0072856f6c523fa",
    "end-degree dr-square edge": "05e02340c2eb57dd14da364cd40e401cb035538f75e53beccc2ce54e23683daa",
    "end-degree strong-dr:k=2 vertex": "90d02f70398c8c27f067b867a2dd7ffc96682d9a37b36633b39c928c7bb16199",
    "end-degree strong-dr:k=2 edge": "4dcf862c910009877e5240e77a1d48d86f68f6aa464e9a55eed651c0b5aa1ab7",
    "end-degree cartesian-dr:k=2 vertex": "9e2c841c074d4819f72d42e43ee346050b527a1de9493c6478989a69883de3af",
    "end-degree cartesian-dr:k=2 edge": "b1e7a3d33612744091800d836f62114484a7333d7c78a7be54ca3747c609e189",
    "end-degree multipath-inf:k=3 vertex": "55f8fd3229eaf4d756cdaa9cf6133b1f9571f5567eeaccc08eda5b6a563359bf",
    "end-degree multipath-inf:k=3 edge": "679eb69e6eeb55d63344d7726b1080dd3ffa046df889ae6899ca7984e58b66aa",
    "end-degree strong-tree:r=3,k=2 vertex": "f565201505cb019e0b9e56ccb1d3e54901367770fec8a3edc19093cebe5d517a",
    "end-degree strong-tree:r=3,k=2 edge": "3c7921443a607cdb037a9e8010749983b1aea1c1a9e5ab9c2076059fc3cd0c06",
    "end-degree cartesian-tree:r=3,k=2 vertex": "e52d458a0178682fda0637b442bf405e985094c80e00ef3c29e9c9bdb8b557c6",
    "end-degree cartesian-tree:r=3,k=2 edge": "f3fa44727817d59eb66c788fdce5e92c78113030fde15aa6e97a67f2bfe020d8",
    "end-degree clique-tree:r=2,k=4 vertex": "854a3fa3a785f7dc955153e5a1d033235b2a740a05bccf9c38b0dea87c55b81c",
    "end-degree clique-tree:r=2,k=4 edge": "6211fed82751fcd767e756388da6b66d452a7ce7ab0ffcabc254916263e6797c",
    "end-degree ray-bundle:k=4,l=8 vertex": "5a9b40476ed56780875be4730fbcef28cfd494e878408f66bc302c9cc7d9ba27",
    "end-degree ray-bundle:k=4,l=8 edge": "27690d7e5a5b78f5913cc3f1363babffe78bf58ac5a08ac834d8dbdcf43db028",
    "check k=2": "f078d9e2d2a5866bc433c221ddf01491651b8856abb3a833205ee1c9cfa38ced",
    "check k=3": "6a139f8a442c5e4b5914c062f52f452d5c92f0a87f4f8c762092a92133e483e3",
    "check k=4": "297640c6ddacbb357e0292f20a368255ed49db634ec17f964f8a986e72c5ccd8",
}


def _stdout(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _digest(argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        h.update(_stdout(argv).encode())
    return h.hexdigest()


def witness_digests(corpus7) -> dict[str, str]:
    """`witness --explain` on every member of each class b, c, d at k = 2, 3, 4."""
    return {f"witness {cls} k={k}": _digest(
        ["witness", "--k", str(k), "--class", cls, "--explain", to_graph6(g)]
        for g in corpus7 if check_class(g, MinimalityClass(cls), k).holds)
        for cls in "bcd" for k in (2, 3, 4)}


def band_digests() -> dict[str, str]:
    """`witness --explain --class d` on the relabelled bands of
    `class_d_bands`, at k = 3, 4, 5: graphs of up to 82 vertices, where
    the start region's scan skips most G - x."""
    bands = class_d_bands()
    return {f"band witness d k={k}": _digest(
        ["witness", "--k", str(k), "--class", "d", "--explain", to_graph6(g)]
        for j, g in bands if j == k)
        for k in (3, 4, 5)}


def region_cases():
    """(key, argv) of `witness --class c --explain` on members whose
    minimum-cut sides exceed `EXACT_REGION_LIMIT` vertices, so the region
    search descends greedily: path-square(l) at k = 3 for even l = 14..40,
    and multipath(K, m) at k = K for K = 2..4 and m = 14..24, each as built
    and under two seeded relabellings."""
    for l in range(14, 41, 2):
        g = path_square_example(l).graph
        for h in (g, relabelled(g, f"path-square/{l}/0"), relabelled(g, f"path-square/{l}/1")):
            yield "region witness c path-square", ["witness", "--k", "3", "--class", "c", "--explain",
                                                   to_graph6(h)]
    for k in (2, 3, 4):
        for m in range(14, 25):
            g = multipath(k, m)
            for h in (g, relabelled(g, f"multipath/{k}/{m}/0"), relabelled(g, f"multipath/{k}/{m}/1")):
                yield f"region witness c multipath k={k}", [
                    "witness", "--k", str(k), "--class", "c", "--explain",
                    "--input", "edge-list", "--multi", to_edge_list(h)]


def end_degree_digests() -> dict[str, str]:
    """`end-degree --format json` at each family's first end, in both modes."""
    return {f"end-degree {spec} {mode}": _digest(
        [["end-degree", spec, make_family(spec).ends()[0].label, mode, "--format", "json"]])
        for spec in SPECS for mode in ("vertex", "edge")}


def check_digests(small_corpus) -> dict[str, str]:
    """`check --format json` over the corpus up to 6 vertices, at k = 2, 3, 4."""
    graphs = [to_graph6(g) for g in small_corpus]
    return {f"check k={k}": _digest([["check", "--k", str(k), "--format", "json", *graphs]])
            for k in (2, 3, 4)}


def _pinned(prefix: str) -> dict[str, str]:
    return {key: digest for key, digest in PINS.items() if key.startswith(prefix)}


def test_specs_cover_the_claims_table():
    assert {make_family(spec).name for spec in SPECS} == FAMILY_CLAIMS.keys()


def test_witness_explain_bytes(corpus7):
    assert witness_digests(corpus7) == _pinned("witness ")


def test_band_witness_explain_bytes():
    assert band_digests() == _pinned("band witness ")


def test_region_witness_explain_bytes():
    hashes = {}
    for key, argv in region_cases():
        out = _stdout(argv)
        trace = json.loads(out)["trace"]
        assert "local" in (trace["first"]["search"], trace["second"]["search"]), argv
        hashes.setdefault(key, hashlib.sha256()).update(out.encode())
    assert {key: h.hexdigest() for key, h in hashes.items()} == _pinned("region witness ")


def test_construct_json_bytes():
    """`construct --format json` of a ball and of a multigraph, written
    to stdout as the encoder yields it."""
    argvs = [["clique-tree:r=2,k=4", "--radius", "2"], ["multipath:k=3,m=5"]]
    assert {f"construct json {' '.join(argv)}": _digest([["construct", *argv, "--format", "json"]])
            for argv in argvs} == _pinned("construct json ")


def test_end_degree_bytes():
    assert end_degree_digests() == _pinned("end-degree ")


def test_check_bytes(small_corpus):
    assert check_digests(small_corpus) == _pinned("check ")
