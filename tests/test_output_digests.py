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
        "stdout": "520e4cb790d22beb16b7dae43dc02f610b99340f0c55a0e0384d7c9cb9967e37",
        "results.csv": "4dbcf04f577a9a16b0bcc980e63d75719dda783376c5104b8ba93dc0e9b57b34",
        "results.csv.manifest": "c12fc5e5db8ee005c5ff748935d78072fb42b8e806cda19f5fb5759f6ecb2c9d",
    },
    "experiment appendix-figure6": {
        "stdout": "78b4e21971725227ba9a2a56f6af3e3860179ef7e847301354db9ee9a73ecf10",
        "results.csv": "d5efe3bbe46ee84ecd5e9e82e0049ab5667470878c2c7985b2e626d8b6f21bff",
        "results.csv.manifest": "89ef64f8507639a378fa1e4563ae73f3ee9395b8bf95a76a6e4403f047293a9b",
    },
    "experiment appendix-figure7": {
        "stdout": "d1766c35a54ea8af8e08cf997993e53c41141d769bef37d9da0dbed8adc1bf04",
        "results.csv": "5f2758080e399f6718a3783afc402535c67f24be37336e0212af53c9cd32720d",
        "results.csv.manifest": "65293283077c951948c73529f758acc091c39045f5e58c11a869373c9378c24a",
    },
    "experiment appendix-figure8": {
        "stdout": "1b4e4a2ad8c245f1c93af9c78709e37aa0f4f6bcff7ded2f27be5f773921bb5d",
        "results.csv": "09602943f4efab253fab5bfe798d4572d36e0e4afc60835ac2ea80bb0c9dfce8",
        "results.csv.manifest": "d849206f39450c7ad8bc7b3b804b3c09e4be4fca64b494d1f3c48b08dc487d7b",
    },
    "experiment figure1": {
        "stdout": "a276bc1b7acb32f68c911365715cd1c97b4e6cd90fee7f143200e98bc590cd2a",
        "results.csv": "1379022037d7fc857d2277eb8e8bf60a1616ef0465335675f2684ef664896711",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "experiment figure2": {
        "stdout": "b2cc249e1167d5ded76417f06c08901e5104934102e6def2910b59316b73ab11",
        "results.csv": "7d44004bf688448812ed6ec260f5739553f4a334d6e01c036a39906f6f04fe2c",
        "results.csv.manifest": "5f14e5b32e7e7d89cf357980ecca8e73c8961d156e1d0491ed3bbe5ea13aabf2",
    },
    "experiment figure3": {
        "stdout": "58eff5dda7e26d24275709b3470fbc486c6b53697281a6eb3e05b593e6bd8a91",
        "results.csv": "bf6c640671d63538c968efcb6b742467ae92cbdb5a3604b6c72189524704b8de",
        "results.csv.manifest": "7353b8d1fe4632c6d0ee54a40b7152e982b140278c260c5f477f09690616de76",
    },
    "experiment figure4": {
        "stdout": "8a51a414caedcdf0f7e3ed5ea6bae0e8ad181ead53b9177ea4a14ac09fe5d25a",
        "results.csv": "e9c6473342b894de6ed50fe7e59059294463b70524afb383372b981b6ff749ce",
        "results.csv.manifest": "10625067c0ee00ea6f05c0efe7950113bf466dbc6012a855d7bbbf3b827c7a43",
    },
    "experiment figure1 threads=2": {
        "stdout": "a276bc1b7acb32f68c911365715cd1c97b4e6cd90fee7f143200e98bc590cd2a",
        "results.csv": "1379022037d7fc857d2277eb8e8bf60a1616ef0465335675f2684ef664896711",
        "results.csv.manifest": "7fd724fb0110b873e0dbb58f70d7d8443097c01dddf00b6b6ea91d599a07b1c5",
    },
    "generate defaults": {
        "stdout": "3298dff0bf31f33d17fcd74f11d27faac880d2163686a839aa46ae21aa47da22",
        "workers.csv": "ec7383cbc1992cd9edc92bbfd8f2c106ce9a9f4e770afe2fe0acd5a41f96f423",
        "tasks.csv": "f9eeac133580131a76e507ddfd38f63e526949eb626a55df6c4d9d3e38e31d2e",
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
