"""Byte-identity oracle: sha256 digests of what the command line writes.

Pinned here are the results CSV, manifest and stdout of every shipped recipe
at 2 repetitions (figure1 also with 2 worker processes), the files of
`crowdfdb generate` at its defaults, and `crowdfdb policy` outputs on the
default spec, on a budgeted accuracy-linked run and on a raw-response /
gold-tally pair, and the `--help` text of the command and of each
subcommand at 80 columns.  Manifests and stdout have their creation time
and the output directory masked.  A change that moves a digest updates it
in the same diff, and says which rows moved and why; print the current
table with `PYTHONPATH=src python tests/capture_digests.py`.
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
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def _masked(data: bytes, out: Path) -> bytes:
    data = data.replace(str(out).encode(), b"<out>")
    return _CREATED.sub(b"manifest.created_utc = <masked>", data)


def _run(out: Path, args: list, files: list[str], threads: str = "1") -> dict[str, bytes]:
    """Run one command in `out`; its stdout and the named files, masked."""
    stdout = io.StringIO()
    with _env(THREADS_ENV_VAR, threads), redirect_stdout(stdout):
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


def _help(*command: str):
    """The help text argparse prints, in the layout of the Python versions
    CI runs (3.10 and 3.11); a later argparse may lay it out otherwise."""
    def run(out: Path) -> dict[str, bytes]:
        stdout = io.StringIO()
        with _env("COLUMNS", "80"), redirect_stdout(stdout), pytest.raises(SystemExit, match="^0$"):
            cli.main([*command, "--help"])
        return {"stdout": stdout.getvalue().encode()}

    return run


CASES = {
    **{f"experiment {recipe}": _experiment(recipe) for recipe in RECIPES},
    "experiment figure1 threads=2": _experiment("figure1", threads="2"),
    "generate defaults": _generate,
    "policy default": _policy_default,
    "policy budgeted": _policy_budgeted,
    "policy responses": _policy_gold_files("responses"),
    "policy tallies": _policy_gold_files("tallies"),
    "help": _help(),
    **{f"help {command}": _help(command) for command in ("generate", "policy", "experiment", "bounds")},
}


def digests(case: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(data).hexdigest() for name, data in CASES[case](Path(tmp)).items()}


DIGESTS = {
    "experiment appendix-figure5": {
        "stdout": "a3bc2ddf80d1409cf8edac9592b77c0c84ce10621caddb69db67e7f4e2fd4b43",
        "results.csv": "06b7709b973e4759ddfc587b08083a917c56f1399cca5446ab67cddcc569b7c8",
        "results.csv.manifest": "c12fc5e5db8ee005c5ff748935d78072fb42b8e806cda19f5fb5759f6ecb2c9d",
    },
    "experiment appendix-figure6": {
        "stdout": "65fcde630a125e710a145f63ec639f4fcc985357f9454a2eb9a6a5cce8160082",
        "results.csv": "97478eb7ed7673f78a3a0d38cfe606159804c28118a60f82ad04d7b4a520280a",
        "results.csv.manifest": "89ef64f8507639a378fa1e4563ae73f3ee9395b8bf95a76a6e4403f047293a9b",
    },
    "experiment appendix-figure7": {
        "stdout": "9b126f9d1cf96c6189e29027f5022d166523929639194098e572ce0e49ab3831",
        "results.csv": "6fdd411f242b14ec321b9bd1f44fc48c9ea5ed1653e6a934fcbf25f0971f6343",
        "results.csv.manifest": "65293283077c951948c73529f758acc091c39045f5e58c11a869373c9378c24a",
    },
    "experiment appendix-figure8": {
        "stdout": "2a9c8f2cc05d838517cd5d00e6d5915fa8b9450355ab7d37d819f61ea841e9b7",
        "results.csv": "66102667683cadb92bd1ab562e6aac77f37accd8d0afa4d3fd0b4420a852e72f",
        "results.csv.manifest": "d849206f39450c7ad8bc7b3b804b3c09e4be4fca64b494d1f3c48b08dc487d7b",
    },
    "experiment figure1": {
        "stdout": "032b21318f03b331d05af223b6fa920cc9b93183f496f46af583f6c7fd3397dd",
        "results.csv": "356d33f9427f5aadb22e92c3e7dda92239a7098aefd91c26728cfa165b5729ba",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "experiment figure2": {
        "stdout": "157dcb58f44e404e96aa8be3a16137b4a15c29e4d057fa453834163dd7170303",
        "results.csv": "c12923e3bda9f541339a9087a772cd94743628d2f4777ed19f80613264635016",
        "results.csv.manifest": "5f14e5b32e7e7d89cf357980ecca8e73c8961d156e1d0491ed3bbe5ea13aabf2",
    },
    "experiment figure3": {
        "stdout": "10030313f9f9bb6baccd68cf5defd4a0bf174a8dcaad5b0c1ff36395b7f06aa1",
        "results.csv": "4e965c83c62ec6dffbeae978b0898132dac71bbe9e972b5f886b26a3dc20d2be",
        "results.csv.manifest": "7353b8d1fe4632c6d0ee54a40b7152e982b140278c260c5f477f09690616de76",
    },
    "experiment figure4": {
        "stdout": "5ea844fbd0e72be09aa2e0ce98a38289e058a54fd343bba048beed04cbad8ebc",
        "results.csv": "7858ef92493bd55846e36ee787b240c1042ef54576a92dafac501de06dfe163f",
        "results.csv.manifest": "10625067c0ee00ea6f05c0efe7950113bf466dbc6012a855d7bbbf3b827c7a43",
    },
    "experiment figure1 threads=2": {
        "stdout": "032b21318f03b331d05af223b6fa920cc9b93183f496f46af583f6c7fd3397dd",
        "results.csv": "356d33f9427f5aadb22e92c3e7dda92239a7098aefd91c26728cfa165b5729ba",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "generate defaults": {
        "stdout": "3298dff0bf31f33d17fcd74f11d27faac880d2163686a839aa46ae21aa47da22",
        "workers.csv": "ec7383cbc1992cd9edc92bbfd8f2c106ce9a9f4e770afe2fe0acd5a41f96f423",
        "tasks.csv": "29937bf5cd41ba529805b53e01389e0a79b029bb3780a5baf74c3bb4c8f143e5",
        "workers.csv.manifest": "718ec55952d038c79e5aa75f7b1110ac801750e737327b7df2d054c9db7c6304",
    },
    "policy default": {
        "stdout": "60c6f6080bb43a9ef4026af28a24f6fc708fd16a26fb6f6e496306c285729ba1",
        "policy.csv": "40937aa60031f8a78fb93173f2382b99cf02390ebe897bb8b353fe0afa1da646",
        "policy.csv.manifest": "b4bbd6411032b225eee582ad1fd083735ad5ef3c6872ea19e34797c84b1ead99",
    },
    "policy budgeted": {
        "stdout": "0df66493dd5dfacc3ebed49e9e25e2baf0ad314f03feda1edd492cfac3372bf5",
        "policy.csv": "b42745d0fdcb7b6830b5d9b8e16a7e2a63278bd1d9fbb91d3c2eb1a2997ec132",
        "policy.csv.manifest": "ad3f7517d666cc04dd09a98f69a5654a86a3c3dec304cea8252be124ef911348",
    },
    "policy responses": {
        "stdout": "319bf934dea7f1dbee3c939955e56ef795ce7a8666b5792a100ec061125f9389",
        "policy.csv": "829fe41724bfdd03f4b3f45ab4d709ccbb229e14debb5451b0528bd7294c2d54",
        "policy.csv.manifest": "f720b9ec3bdde31b5bb1a9f8e5b1349e694ddfdd69dce569af2c0dffb3a26403",
    },
    "policy tallies": {
        "stdout": "319bf934dea7f1dbee3c939955e56ef795ce7a8666b5792a100ec061125f9389",
        "policy.csv": "829fe41724bfdd03f4b3f45ab4d709ccbb229e14debb5451b0528bd7294c2d54",
        "policy.csv.manifest": "0b0720f9966d7f278007e97049c0a96649ce823476c388e9070bca70c0f7d383",
    },
    "help": {
        "stdout": "e2a908198d998deccd9321756453c5f017e20f0d4cbfe61bb04708d454332505",
    },
    "help generate": {
        "stdout": "5c7d4e9f04041220aa2b05238939459cf7fdda6557ab590d03a06b993bbd5d11",
    },
    "help policy": {
        "stdout": "04fc5163dad313f6315575f95aaec1e8961ee512678c76a80649e6f0939bcc0c",
    },
    "help experiment": {
        "stdout": "e74a366378dfa87b1fa5a5141c03e819f2fc75a79c9fd57b43b5440dd08355a6",
    },
    "help bounds": {
        "stdout": "8ef5e60917a6e9cbab9f9c1d5de20366af1681a83e5b2db0c8d90ab1d2ed333b",
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
    # each manifest names its own gold file, so that it replays from it
    assert DIGESTS["policy responses"]["policy.csv.manifest"] != DIGESTS["policy tallies"]["policy.csv.manifest"]
