"""Byte-identity oracle: sha256 digests of what the command line writes.

Pinned here are the results CSV, manifest and stdout of every shipped recipe
at 2 repetitions (figure1 also with 2 worker processes), the files of
`crowdfdb generate` at its defaults, and `crowdfdb policy` outputs on the
default spec, on a budgeted accuracy-linked run and on a raw-response /
gold-tally pair.  Manifests and stdout have their creation time and the
output directory masked.  A change that moves a digest updates it in the same
diff, and says which rows moved and why; print the current table with
`PYTHONPATH=src python tests/capture_digests.py`.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from crowdfdb import cli
from crowdfdb.simulator import THREADS_ENV_VAR

RECIPES = (
    "appendix-figure5", "appendix-figure6", "appendix-figure7", "appendix-figure8",
    "figure1", "figure2", "figure3", "figure4",
)

_CREATED = re.compile(rb"^manifest\.created_utc = .*$", re.MULTILINE)


@contextmanager
def _threads(value: str):
    old = os.environ.get(THREADS_ENV_VAR)
    os.environ[THREADS_ENV_VAR] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[THREADS_ENV_VAR]
        else:
            os.environ[THREADS_ENV_VAR] = old


def _masked(data: bytes, out: Path) -> bytes:
    data = data.replace(str(out).encode(), b"<out>")
    return _CREATED.sub(b"manifest.created_utc = <masked>", data)


def _run(out: Path, args: list, files: list[str], threads: str = "1") -> dict[str, bytes]:
    """Run one command in `out`; its stdout and the named files, masked."""
    stdout = io.StringIO()
    with _threads(threads), redirect_stdout(stdout):
        code = cli.main([str(a).format(out=out) for a in args])
    assert code == 0, (args, code)
    found = {"stdout": stdout.getvalue().encode()}
    found.update({name: (out / name).read_bytes() for name in files})
    return {name: _masked(data, out) for name, data in found.items()}


def _experiment(recipe: str, threads: str = "1"):
    def run(out: Path) -> dict[str, bytes]:
        args = ["experiment", "--recipe", recipe, "--repetitions", 2, "--out", "{out}/results.csv"]
        return _run(out, args, ["results.csv", "results.csv.manifest"], threads)

    return run


def _generate(out: Path) -> dict[str, bytes]:
    args = ["generate", "--workers-out", "{out}/workers.csv", "--tasks-out", "{out}/tasks.csv"]
    return _run(out, args, ["workers.csv", "tasks.csv", "workers.csv.manifest"])


def _policy_default(out: Path) -> dict[str, bytes]:
    return _run(out, ["policy", "--out", "{out}/policy.csv"], ["policy.csv", "policy.csv.manifest"])


def _policy_budgeted(out: Path) -> dict[str, bytes]:
    (out / "linked.cfg").write_text("population.cost_model = accuracy-linked\n", encoding="utf-8")
    args = ["policy", "--config", "{out}/linked.cfg", "--budget", 1.8, "--alpha", 0.05, "--gold", 10,
            "--seed", 11, "--out", "{out}/policy.csv"]
    return _run(out, args, ["policy.csv", "policy.csv.manifest"])


def _policy_gold_files(source: str):
    def run(out: Path) -> dict[str, bytes]:
        from test_cli import write_gold_files

        with redirect_stdout(io.StringIO()):
            write_gold_files(out, n_workers=60)
        args = ["policy", "--workers-file", "{out}/workers.csv", f"--{source}", f"{{out}}/{source}.csv",
                "--fairness", "error-rate", "--alpha", 0.01, "--beta", 0.1, "--budget", 2.0,
                "--out", "{out}/policy.csv"]
        return _run(out, args, ["policy.csv", "policy.csv.manifest"])

    return run


CASES = {
    **{f"experiment {recipe}": _experiment(recipe) for recipe in RECIPES},
    "experiment figure1 threads=2": _experiment("figure1", threads="2"),
    "generate defaults": _generate,
    "policy default": _policy_default,
    "policy budgeted": _policy_budgeted,
    "policy responses": _policy_gold_files("responses"),
    "policy tallies": _policy_gold_files("tallies"),
}


def digests(case: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(data).hexdigest() for name, data in CASES[case](Path(tmp)).items()}


DIGESTS = {
    "experiment appendix-figure5": {
        "stdout": "520e4cb790d22beb16b7dae43dc02f610b99340f0c55a0e0384d7c9cb9967e37",
        "results.csv": "73161cf30adb9f055117c2628745ace468b46ea0896cd752ccfe75c8fd744421",
        "results.csv.manifest": "c12fc5e5db8ee005c5ff748935d78072fb42b8e806cda19f5fb5759f6ecb2c9d",
    },
    "experiment appendix-figure6": {
        "stdout": "78b4e21971725227ba9a2a56f6af3e3860179ef7e847301354db9ee9a73ecf10",
        "results.csv": "75a2641e16962b34c6d16a56277d49277026e0ac14ca527ae1f4c15f378a0444",
        "results.csv.manifest": "89ef64f8507639a378fa1e4563ae73f3ee9395b8bf95a76a6e4403f047293a9b",
    },
    "experiment appendix-figure7": {
        "stdout": "1e3df2167e30fc915594076fce0e4cbd7b45480388033eb789b22b6603770e95",
        "results.csv": "34e2ea211c80428b6d492a81b8ef1fd21b13271a8343cd1138f4f86bd8f6c452",
        "results.csv.manifest": "65293283077c951948c73529f758acc091c39045f5e58c11a869373c9378c24a",
    },
    "experiment appendix-figure8": {
        "stdout": "1b4e4a2ad8c245f1c93af9c78709e37aa0f4f6bcff7ded2f27be5f773921bb5d",
        "results.csv": "e2ac940b87bdc33dfff618fcedbd9cb8f05b3d97597227fe4c5978088b1377e9",
        "results.csv.manifest": "d849206f39450c7ad8bc7b3b804b3c09e4be4fca64b494d1f3c48b08dc487d7b",
    },
    "experiment figure1": {
        "stdout": "a276bc1b7acb32f68c911365715cd1c97b4e6cd90fee7f143200e98bc590cd2a",
        "results.csv": "977ff0e13242240633130e9b46e2b067990d5618b7209f276ec7f905480d2c2a",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "experiment figure2": {
        "stdout": "b2cc249e1167d5ded76417f06c08901e5104934102e6def2910b59316b73ab11",
        "results.csv": "ba3460ddc84553cf544f4e94630d8cd6a5e18fc4a7632f4f1f29d51e2388f25e",
        "results.csv.manifest": "5f14e5b32e7e7d89cf357980ecca8e73c8961d156e1d0491ed3bbe5ea13aabf2",
    },
    "experiment figure3": {
        "stdout": "77658352d79d5fde9baa79602f921ae9720652cd9b4cee4cd9d01c3c505682f3",
        "results.csv": "f362ea12da98a10f6020aff103ff821bcad3029c07743877d148703415fc4f69",
        "results.csv.manifest": "7353b8d1fe4632c6d0ee54a40b7152e982b140278c260c5f477f09690616de76",
    },
    "experiment figure4": {
        "stdout": "8a51a414caedcdf0f7e3ed5ea6bae0e8ad181ead53b9177ea4a14ac09fe5d25a",
        "results.csv": "c1e11e43c0d5762976fa2498de80d1ab635c716ea2749ebdb8a42a11b2cf9c8b",
        "results.csv.manifest": "10625067c0ee00ea6f05c0efe7950113bf466dbc6012a855d7bbbf3b827c7a43",
    },
    "experiment figure1 threads=2": {
        "stdout": "a276bc1b7acb32f68c911365715cd1c97b4e6cd90fee7f143200e98bc590cd2a",
        "results.csv": "977ff0e13242240633130e9b46e2b067990d5618b7209f276ec7f905480d2c2a",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "generate defaults": {
        "stdout": "3298dff0bf31f33d17fcd74f11d27faac880d2163686a839aa46ae21aa47da22",
        "workers.csv": "ec7383cbc1992cd9edc92bbfd8f2c106ce9a9f4e770afe2fe0acd5a41f96f423",
        "tasks.csv": "f9eeac133580131a76e507ddfd38f63e526949eb626a55df6c4d9d3e38e31d2e",
        "workers.csv.manifest": "718ec55952d038c79e5aa75f7b1110ac801750e737327b7df2d054c9db7c6304",
    },
    "policy default": {
        "stdout": "a877738f4d56fa7082c0923c3863179204c06daab3ff557c20be089f78254785",
        "policy.csv": "9784eec343d822506a0afced313ee9a4785c6cc258dfaf3282d100f5b2aa4aca",
        "policy.csv.manifest": "b4bbd6411032b225eee582ad1fd083735ad5ef3c6872ea19e34797c84b1ead99",
    },
    "policy budgeted": {
        "stdout": "ff70b195cbc87345ef6263b9ab732d47a864edf82f85cdaf30c2cfab50cbee97",
        "policy.csv": "43f982baed6eed497730139d86124554ad15793f06938c00ba73beeb5dd195f4",
        "policy.csv.manifest": "ad3f7517d666cc04dd09a98f69a5654a86a3c3dec304cea8252be124ef911348",
    },
    "policy responses": {
        "stdout": "ee1024a35e7e0cad22ef32b4e18b120318ee5db0f6d2894d413e274114c35bd1",
        "policy.csv": "2e7f102e165541419d8dd0c3927dcf9c57240d5f6460d4817d0f95005869f397",
        "policy.csv.manifest": "370f1e86116f5548899f06e4cbec399b5bd583d7a2e39acafaef971b1003e92a",
    },
    "policy tallies": {
        "stdout": "ee1024a35e7e0cad22ef32b4e18b120318ee5db0f6d2894d413e274114c35bd1",
        "policy.csv": "2e7f102e165541419d8dd0c3927dcf9c57240d5f6460d4817d0f95005869f397",
        "policy.csv.manifest": "370f1e86116f5548899f06e4cbec399b5bd583d7a2e39acafaef971b1003e92a",
    },
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_keep_their_bytes(case):
    assert digests(case) == DIGESTS[case]


def test_two_processes_write_the_one_process_csv():
    assert DIGESTS["experiment figure1 threads=2"]["results.csv"] == DIGESTS["experiment figure1"]["results.csv"]


def test_responses_and_tallies_give_one_policy():
    for name in ("policy.csv", "stdout"):
        assert DIGESTS["policy responses"][name] == DIGESTS["policy tallies"][name]
