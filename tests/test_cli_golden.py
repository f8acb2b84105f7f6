"""Byte-identity guard for a fixed set of CLI commands.

Each command runs in process through bellsim.cli.main.  The exit code
and the SHA-256 of stdout, stderr and every file written under --out are
compared against hashes recorded before the signal report and the
timing rules were merged into single library functions.  The tripartite
and two-worker runs, at trial counts off the write-block and
sampling-chunk boundaries, were recorded before the run writers became
columnar.  The three 9-row coin-mixture ``simulate`` runs, at the same
kind of trial counts, were recorded before the block schedule was
removed, so they pin the per-trial coin to its earlier draws.  The sampled ``chsh`` and ``chain`` runs, one of them
past a sampling-chunk boundary on two workers, were recorded before the
two commands shared one sampling helper.  The 9-row ``simulate`` and
``chain`` runs past two sampling-chunk boundaries on two workers, whose
later chunks start mid-schedule, were recorded before the sampler
sliced each chunk's rows from one schedule cycle.  Signal reports drop ``witness``,
``witness_max_residual`` and ``certificate`` before hashing: which valid
witness the LP solver returns is not part of the contract, and
tests/test_signaling.py re-checks those fields directly.

Run ``PYTHONPATH=src python tests/test_cli_golden.py`` to print the
hashes of the current code in the layout of GOLDEN.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from bellsim.cli import main

SIMULATE_PRESETS = ("before-before", "finite-speed-1e5c", "mixture-chain")

#: Stands for the path of COIN_SCENARIO, written next to the output dir.
SCENARIO = "<scenario>"

#: A 3-setting singlet mixture whose runs are local with probability 0.4.
COIN_SCENARIO = {
    "schema": "bellsim-scenario-1",
    "name": "coin-mixture",
    "geometry": {
        "events": [{"t": 0.0, "x": 0.0}, {"t": 0.0, "x": 10.0}],
        "boosts": [{"beta": 0.0}, {"beta": 0.0}],
    },
    "model": {"kind": "mixture", "p": 0.4},
    "state": {"kind": "singlet"},
    "settings": [[0.0, 1.0, 2.0], [0.5, 1.5, 2.5]],
    "trials": 16385,
    "seed": 11,
}

COMMANDS = {
    "signal-fig2a": ["signal", "--preset", "fig2a"],
    "signal-fig2b": ["signal", "--preset", "fig2b"],
    "signal-fig1-detection": ["signal", "--preset", "fig1-detection"],
    "signal-fig2a-off-0-2": ["signal", "--preset", "fig2a", "--off-pair", "0,2"],
    "signal-fig2b-off-0-1": ["signal", "--preset", "fig2b", "--off-pair", "0,1"],
    "signal-bipartite": ["signal", "--preset", "before-before"],
    **{
        f"run-{name}-{fmt}": ["preset", "run", name, "--trials", "3000",
                              "--seed", "5", "--format", fmt, "--out"]
        for name in SIMULATE_PRESETS
        for fmt in ("csv", "json")
    },
    "run-fig2b": ["preset", "run", "fig2b", "--out"],
    **{
        f"simulate-fig2b-{fmt}": ["simulate", "--preset", "fig2b", "--trials", "8193",
                                  "--seed", "3", "--format", fmt, "--out"]
        for fmt in ("csv", "json")
    },
    "run-mixture-chain-65537-workers-2": ["preset", "run", "mixture-chain",
                                          "--trials", "65537", "--seed", "5",
                                          "--workers", "2", "--out"],
    "simulate-coin-csv": ["simulate", "--scenario", SCENARIO, "--out"],
    "simulate-coin-json": ["simulate", "--scenario", SCENARIO, "--trials", "8191",
                           "--format", "json", "--out"],
    "simulate-coin-131079-workers-2": ["simulate", "--scenario", SCENARIO,
                                       "--trials", "131079", "--workers", "2", "--out"],
    "timing": ["timing", "--v", "100000c", "--L", "30000"],
    "timing-late": ["timing", "--v", "100000c", "--L", "30000", "--dt", "1e-6"],
    "point-d": ["point-d", "--a", "0,0", "--b", "0,10", "--c", "0,20", "--c-units"],
    "point-d-none": ["point-d", "--a", "0,15", "--b", "0,10", "--c", "0,20",
                     "--c-units"],
    "chain": ["chain", "--n", "4"],
    "chsh": ["chsh"],
    "chsh-sampled": ["chsh", "--trials", "5000", "--seed", "3"],
    "chsh-mixture-70000-workers-2": ["chsh", "--trials", "70000", "--seed", "3",
                                     "--model", "mixture", "--p", "0.3",
                                     "--workers", "2", "--out"],
    "chain-3-local": ["chain", "--n", "3", "--trials", "5000", "--seed", "4",
                      "--model", "local"],
    "chain-4-mixture": ["chain", "--n", "4", "--trials", "5000", "--seed", "4",
                        "--model", "mixture", "--p", "0.25", "--out"],
    "chain-3-mixture-131075-workers-2": ["chain", "--n", "3", "--trials", "131075",
                                         "--model", "mixture", "--p", "0.3",
                                         "--workers", "2"],
    "preset-list": ["preset", "list"],
}

SOLVER_CHOICES = ("witness", "witness_max_residual", "certificate")

#: SHA-256 of empty output.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    "signal-fig2a": {
        "code": 0,
        "stdout": "d52477205901fd754aadac500c44e976931e031859684df7a1091af4e52f68a0",
        "stderr": EMPTY,
        "files": {},
    },
    "signal-fig2b": {
        "code": 0,
        "stdout": "d5f46f223dcc44fa136228afab7f88dd8b7d9aae62fd42643d0c63b5de6a7965",
        "stderr": EMPTY,
        "files": {},
    },
    "signal-fig1-detection": {
        "code": 0,
        "stdout": "4308766b40db8b9a93900dfb954df88ba5716fe547a48f4229ae5cb61eb54164",
        "stderr": EMPTY,
        "files": {},
    },
    "signal-fig2a-off-0-2": {
        "code": 0,
        "stdout": "27ef619002afc03a222c09eab9949876d2b71780f7fd7643d34c26e0e05379d9",
        "stderr": EMPTY,
        "files": {},
    },
    "signal-fig2b-off-0-1": {
        "code": 0,
        "stdout": "42b3260325a9e6c9648cfb49e74fdd4decf21a12303ad1c19b67bde83dee76a3",
        "stderr": EMPTY,
        "files": {},
    },
    "signal-bipartite": {
        "code": 1,
        "stdout": EMPTY,
        "stderr": "1a4c985b4949db43e8b376d1604206204d82485b50b28ccce6a931f78db32e96",
        "files": {},
    },
    "run-before-before-csv": {
        "code": 0,
        "stdout": "19e4be99fd725d42da07b2be5c4abd834dcd8fb2d5f2f8d8e6f65f3aa0f06879",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "de4e06e72ff3d98049941a42b3b223e542d3f3cb694fc43a0df174fbd77fbbfd",
            "summary.json": "19e4be99fd725d42da07b2be5c4abd834dcd8fb2d5f2f8d8e6f65f3aa0f06879",
        },
    },
    "run-before-before-json": {
        "code": 0,
        "stdout": "19e4be99fd725d42da07b2be5c4abd834dcd8fb2d5f2f8d8e6f65f3aa0f06879",
        "stderr": EMPTY,
        "files": {
            "runs.json": "5dfa3f144782467d39b9471d8fb7c365a77751933ab52832c5e0c7d6280a6111",
            "summary.json": "19e4be99fd725d42da07b2be5c4abd834dcd8fb2d5f2f8d8e6f65f3aa0f06879",
        },
    },
    "run-finite-speed-1e5c-csv": {
        "code": 0,
        "stdout": "36a5466d05fa6102c2b05cc39e671221b51b0bd9f16f8bc0f6ddb79c881cc630",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "de4e06e72ff3d98049941a42b3b223e542d3f3cb694fc43a0df174fbd77fbbfd",
            "summary.json": "36a5466d05fa6102c2b05cc39e671221b51b0bd9f16f8bc0f6ddb79c881cc630",
        },
    },
    "run-finite-speed-1e5c-json": {
        "code": 0,
        "stdout": "36a5466d05fa6102c2b05cc39e671221b51b0bd9f16f8bc0f6ddb79c881cc630",
        "stderr": EMPTY,
        "files": {
            "runs.json": "5dfa3f144782467d39b9471d8fb7c365a77751933ab52832c5e0c7d6280a6111",
            "summary.json": "36a5466d05fa6102c2b05cc39e671221b51b0bd9f16f8bc0f6ddb79c881cc630",
        },
    },
    "run-mixture-chain-csv": {
        "code": 0,
        "stdout": "cc9c256c26b7e8c7b71c7db9a72502724f6242358a401c323ad9fb5fb3990c6d",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "4f8bbf80e7dcb1f008c8961d5ab3a10d6199168c93a519a4f2c84b1069567699",
            "summary.json": "cc9c256c26b7e8c7b71c7db9a72502724f6242358a401c323ad9fb5fb3990c6d",
        },
    },
    "run-mixture-chain-json": {
        "code": 0,
        "stdout": "cc9c256c26b7e8c7b71c7db9a72502724f6242358a401c323ad9fb5fb3990c6d",
        "stderr": EMPTY,
        "files": {
            "runs.json": "203e580f12cf350cae7a27bf2336290c42d7d802b281725019680496f7c12f76",
            "summary.json": "cc9c256c26b7e8c7b71c7db9a72502724f6242358a401c323ad9fb5fb3990c6d",
        },
    },
    "run-fig2b": {
        "code": 0,
        "stdout": "d5f46f223dcc44fa136228afab7f88dd8b7d9aae62fd42643d0c63b5de6a7965",
        "stderr": EMPTY,
        "files": {
            "report.json": "d5f46f223dcc44fa136228afab7f88dd8b7d9aae62fd42643d0c63b5de6a7965",
        },
    },
    "simulate-fig2b-csv": {
        "code": 0,
        "stdout": "d4b8b0662928066be16b32039ea395e7c3abe6fd4a4d03200cab8c0a5f2f4cb9",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "128dace79a12d28b4df1e37bb3d51ad44d3b25798aff311c32ae6e6ba30997f5",
            "summary.json": "d4b8b0662928066be16b32039ea395e7c3abe6fd4a4d03200cab8c0a5f2f4cb9",
        },
    },
    "simulate-fig2b-json": {
        "code": 0,
        "stdout": "d4b8b0662928066be16b32039ea395e7c3abe6fd4a4d03200cab8c0a5f2f4cb9",
        "stderr": EMPTY,
        "files": {
            "runs.json": "9f91e0a5d0484f6fc28bc94c270663ff73ce6b809e5c39ebb3a622be5619ae43",
            "summary.json": "d4b8b0662928066be16b32039ea395e7c3abe6fd4a4d03200cab8c0a5f2f4cb9",
        },
    },
    "run-mixture-chain-65537-workers-2": {
        "code": 0,
        "stdout": "03e8a61c8b5978f6b278cdf44b3d74c0410695293a6dbc218ba92e854facd7b8",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "25283d07e3c7bbe37f38e1d8fe08fff9edea94a8294bd6295d3b0d328ca46f1f",
            "summary.json": "03e8a61c8b5978f6b278cdf44b3d74c0410695293a6dbc218ba92e854facd7b8",
        },
    },
    "simulate-coin-csv": {
        "code": 0,
        "stdout": "db2b58fb9bea016a12bbe97c337d4492c954e43efb8303ca79b3bbbbe52897bc",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "73269fe653d81a7ef2895a90400610be0789c55ec778685d7dd84ff13909cba0",
            "summary.json": "db2b58fb9bea016a12bbe97c337d4492c954e43efb8303ca79b3bbbbe52897bc",
        },
    },
    "simulate-coin-json": {
        "code": 0,
        "stdout": "845b3907ae0caa4b07e23a11496275a8fd3ead2ec1fd5c9b2bd24426b2ce658d",
        "stderr": EMPTY,
        "files": {
            "runs.json": "57a37dadc061dade17563802f617e00af5515b6bdb91813140f3d8f784895d1c",
            "summary.json": "845b3907ae0caa4b07e23a11496275a8fd3ead2ec1fd5c9b2bd24426b2ce658d",
        },
    },
    "simulate-coin-131079-workers-2": {
        "code": 0,
        "stdout": "eaa688c207bdc8e21c1c6259f986ac6e416fa94b5ffa4c3fdb55c22535eb9a3c",
        "stderr": EMPTY,
        "files": {
            "runs.csv": "0b65e8584c6b4fd8351e1b3f9ba748d5879f983650a50577be1acea88aca8707",
            "summary.json": "eaa688c207bdc8e21c1c6259f986ac6e416fa94b5ffa4c3fdb55c22535eb9a3c",
        },
    },
    "timing": {
        "code": 0,
        "stdout": "e12ec4ea11091d8240b4874ef109e7070e7645c41f000444d5f6522708a56726",
        "stderr": EMPTY,
        "files": {},
    },
    "timing-late": {
        "code": 0,
        "stdout": "7380c947f6565923392383c2d2e36283e5256a2c240b21663a80e54935cf5b73",
        "stderr": EMPTY,
        "files": {},
    },
    "point-d": {
        "code": 0,
        "stdout": "f6d2fda2d60b50a221999b067a80dff757b6ebcdac6bf2af1f00f7e194e0b49b",
        "stderr": EMPTY,
        "files": {},
    },
    "point-d-none": {
        "code": 0,
        "stdout": "28800120ee2a8b29803afe0f64f720b64fc5b19145e04d45bea23d3f57293d11",
        "stderr": EMPTY,
        "files": {},
    },
    "chain": {
        "code": 0,
        "stdout": "9c132b56637f93ca91599f8cc1a1b6b744f4b8fc70a0a320c75da08e2e2a86bd",
        "stderr": EMPTY,
        "files": {},
    },
    "chsh": {
        "code": 0,
        "stdout": "4e1311a821b1c66a369ad56e1c5a94a05d0737345b53fcd07d41ccc1970ab26e",
        "stderr": EMPTY,
        "files": {},
    },
    "chsh-sampled": {
        "code": 0,
        "stdout": "173cca61f635c33c249a238dcf20ff712f23c3408a512ee2257e54ab66ae2f07",
        "stderr": EMPTY,
        "files": {},
    },
    "chsh-mixture-70000-workers-2": {
        "code": 0,
        "stdout": "b1c34d9f7867b72374c1af156d9df84c9a928e9c1fab880453b83a2db3f2ce00",
        "stderr": EMPTY,
        "files": {
            "chsh.json": "b1c34d9f7867b72374c1af156d9df84c9a928e9c1fab880453b83a2db3f2ce00",
        },
    },
    "chain-3-local": {
        "code": 0,
        "stdout": "8726af0e0421c529f03fbaf42743e2deb0e424c928e58b97622dc76b9a885cba",
        "stderr": EMPTY,
        "files": {},
    },
    "chain-4-mixture": {
        "code": 0,
        "stdout": "a0f7f04ceadf1c96ab4df5b63f9f09887cdb9d7d3840d3a13026df1a9e0478a9",
        "stderr": EMPTY,
        "files": {
            "chain.json": "a0f7f04ceadf1c96ab4df5b63f9f09887cdb9d7d3840d3a13026df1a9e0478a9",
        },
    },
    "chain-3-mixture-131075-workers-2": {
        "code": 0,
        "stdout": "836bc2ccbe3f101cd131ca9cc9db32b6347fbb434c1374c68fa87b42d38474e6",
        "stderr": EMPTY,
        "files": {},
    },
    "preset-list": {
        "code": 0,
        "stdout": "67f9b21b891106996757071e0181e0c898d189ca530ac39919b5487e3125b946",
        "stderr": EMPTY,
        "files": {},
    },
}


def _digest(text: str) -> str:
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and doc.get("schema") == "bellsim-signal-1":
        for key in SOLVER_CHOICES:
            doc.pop(key, None)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_command(argv, out_dir) -> dict:
    """Exit code plus digests of stdout, stderr and every --out file."""
    if argv[-1] == "--out":
        argv = [*argv, str(out_dir)]
    if SCENARIO in argv:
        path = f"{out_dir}.scenario.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(COIN_SCENARIO, fh)
        argv = [path if arg == SCENARIO else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
                files[name] = _digest(fh.read())
    return {
        "code": code,
        "stdout": _digest(stdout.getvalue()),
        "stderr": _digest(stderr.getvalue()),
        "files": files,
    }


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_recorded_hashes(name, tmp_path):
    assert run_command(COMMANDS[name], tmp_path / "out") == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: run_command(argv, os.path.join(tmp, name))
            for name, argv in COMMANDS.items()
        }
    json.dump(table, sys.stdout, indent=4)
    sys.stdout.write("\n")
