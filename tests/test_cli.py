"""End-to-end CLI checks: run, verify-grid, export-balances, prove, check."""

import hashlib
import json
from pathlib import Path

import pytest

from deltamoney.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GRIDDY = """
seed 12
clients 3
register 1 2
register 2 3
register 1 3
issue 1 4000
issue 2 4000
issue 3 4000
advance 30
transfer 1 2 300
advance 6
transfer 2 3 150
advance 6
transfer 3 1 75
quiesce
assert-conservation holds
assert-no-alerts
capture 0
"""


@pytest.fixture
def state(tmp_path):
    scn = tmp_path / "griddy.scn"
    scn.write_text(GRIDDY)
    state_dir = tmp_path / "state"
    log = tmp_path / "run.log"
    code = main(["run", str(scn), "--log", str(log),
                 "--state-dir", str(state_dir)])
    assert code == 0
    return state_dir


def test_run_writes_log_and_state(state, tmp_path):
    log = (tmp_path / "run.log").read_text()
    assert "|assert|conservation|pass" in log
    names = {p.name for p in state.iterdir()}
    assert {"keys.json", "balances.psv", "attestations.psv",
            "grid_0.txt"} <= names
    assert "client_1.snap" in names and "client_0.snap" in names


def test_run_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("clients 2\nregister 1 2\nissue 1 10\nquiesce\n"
                   "assert-balance 1 11\n")
    assert main(["run", str(bad)]) == 1

    broken = tmp_path / "broken.scn"
    broken.write_text("clients two\n")
    assert main(["run", str(broken)]) == 2

    assert main(["run", str(tmp_path / "missing.scn")]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_run_seed_override_changes_nothing_on_fixed_script(tmp_path):
    scn = SCENARIOS / "table4.scn"
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", str(scn), "--log", str(a)]) == 0
    assert main(["run", str(scn), "--log", str(b), "--seed", "4"]) == 0
    assert a.read_text() == b.read_text()


def test_shipped_scenarios_run_clean(tmp_path):
    paths = sorted(SCENARIOS.glob("*.scn"))
    assert len(paths) >= 4
    for path in paths:
        assert main(["run", str(path),
                     "--log", str(tmp_path / "out.log")]) == 0, path.name


def test_verify_grid_accepts_untouched_state(state, capsys):
    assert main(["verify-grid", str(state / "grid_0.txt"), str(state)]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_grid_localizes_forged_cell(state, capsys):
    lines = (state / "grid_0.txt").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("cell|"):
            parts = line.split("|")
            for j in range(1, len(parts)):
                if parts[j] != "-":
                    parts[j] = "00" * 32
                    break
            lines[i] = "|".join(parts)
            break
    forged = state / "grid_forged.txt"
    forged.write_text("\n".join(lines) + "\n")
    assert main(["verify-grid", str(forged), str(state)]) == 1


def test_verify_grid_flags_state_drift(state, tmp_path, capsys):
    scn = tmp_path / "more.scn"
    scn.write_text(GRIDDY + "\ntransfer 1 2 5\nquiesce\n")
    drifted = tmp_path / "drifted"
    assert main(["run", str(scn), "--log", str(tmp_path / "l.log"),
                 "--state-dir", str(drifted)]) == 0
    code = main(["verify-grid", str(state / "grid_0.txt"), str(drifted)])
    out = capsys.readouterr().out
    assert code == 1
    assert "pair (1, 2)" in out


def test_export_balances_prints_table(state, capsys):
    assert main(["export-balances", str(state)]) == 0
    out = capsys.readouterr().out
    assert "valid_balance" in out.splitlines()[0]
    assert "supply: issued=12000 redeemed=0 net=12000" in out
    assert any("forever" in line for line in out.splitlines())


def test_balances_psv_lists_table_rows_then_supply_totals(state):
    lines = (state / "balances.psv").read_text().splitlines()
    assert lines[0].split("|") == [
        "txn_timestamp", "client_id", "valid_balance", "valid_from",
        "valid_to", "remarks",
    ]
    rows = [line.split("|") for line in lines[1:-1]]
    issued = [row for row in rows if row[5] == "Issued"]
    assert [(row[1], row[2]) for row in issued] == [
        ("1", "4000"), ("2", "4000"), ("3", "4000"),
    ]
    assert all(row[4] != "forever" for row in issued)  # closed by the transfers
    assert sorted(row[1] for row in rows if row[4] == "forever") == ["1", "2", "3"]
    assert lines[-1] == "supply|12000|0"


def test_prove_then_check_round_trip(state, tmp_path, capsys):
    vo_path = tmp_path / "p.vo"
    assert main(["prove", str(state), "--pair", "1:2", "--seq", "1",
                 "--out", str(vo_path)]) == 0
    assert main(["check", str(vo_path),
                 "--keys", str(state / "keys.json")]) == 0
    out = capsys.readouterr().out
    assert "correct=True complete=True" in out


def test_check_flags_freshness_against_latest_root(state, tmp_path, capsys):
    vo_path = tmp_path / "p.vo"
    main(["prove", str(state), "--pair", "1:2", "--seq", "1",
          "--out", str(vo_path)])
    att_line = (state / "attestations.psv").read_text().splitlines()[1]
    root = att_line.split("|")[3]
    assert main(["check", str(vo_path), "--keys", str(state / "keys.json"),
                 "--latest", root]) == 0
    assert main(["check", str(vo_path), "--keys", str(state / "keys.json"),
                 "--latest", "ab" * 32]) == 1
    capsys.readouterr()


def test_check_rejects_tampered_and_truncated_vos(state, tmp_path, capsys):
    vo_path = tmp_path / "p.vo"
    main(["prove", str(state), "--pair", "1:2", "--seq", "1",
          "--out", str(vo_path)])
    blob = bytearray(vo_path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad = tmp_path / "bad.vo"
    bad.write_bytes(bytes(blob))
    assert main(["check", str(bad), "--keys", str(state / "keys.json")]) == 1

    cut = tmp_path / "cut.vo"
    cut.write_bytes(vo_path.read_bytes()[:25])
    assert main(["check", str(cut), "--keys", str(state / "keys.json")]) == 1
    capsys.readouterr()


def test_prove_unknown_pair_fails(state, capsys):
    assert main(["prove", str(state), "--pair", "1:9", "--seq", "1"]) == 1
    capsys.readouterr()


def test_keys_file_is_scheme_and_seed(state):
    info = json.loads((state / "keys.json").read_text())
    assert info["scheme"] == "stub"
    assert 0 in info["signers"] and info["im_signer"] in info["signers"]


def test_state_dir_snapshots_reload(state):
    from deltamoney.cli import _load_clients, _load_keystore

    keystore, _ = _load_keystore(state / "keys.json")
    clients = _load_clients(state, keystore)
    assert clients[1].balance == 3_775
    assert clients[2].balance == 4_150
    assert clients[3].balance == 4_075


# sha256 of every file ``run --state-dir`` writes for each shipped
# scenario: snapshots, balance table, attestations, grids and keys
STATE_DIGESTS = {
    "grid3.scn": {
        "attestations.psv":
            "6f549ec831aa46a61a1224f6cd7c60e3a8cce68fa2ab455db8db60771cc221ad",
        "balances.psv":
            "15c3d82d5bf9be0173fa3271312a0e1bb099d8dd63b3193c662708cedfbe7dc8",
        "client_0.snap":
            "e68aa4fc0b6149211f81bca225c40245ebd271ab7664621180f576da3636e7c1",
        "client_1.snap":
            "6318aa36644da57f57e14e3db919ac40b7b4f6e6c8873c9ee9c04cd113463d88",
        "client_2.snap":
            "91f464e29ae8bbf9144fbe9292e0849be05ba69983557bf62597b7d7f6ef7619",
        "client_3.snap":
            "6be0d8ed48f0e516e7064b4897dfea9a1a7ebbe60ee53c82c6fefcc498212f0f",
        "grid_0.txt":
            "cb72e5736adab7d10a2c95f1d83fd77c7b2e57a1b7b453e9e49e93449f6773ce",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "recover.scn": {
        "attestations.psv":
            "61b4128f3723e817f0ad376f58d22d76148be17c29bfbe2e7f58a9bfc8aac224",
        "balances.psv":
            "153f67680863e6d2aa8965550eb4e70bc83d58601ac6d87ddcb84a9ec92252ed",
        "client_0.snap":
            "2c8e6a38d1d84ffe5e25c311b5e474f34fede2280ac09f9fa4cfaa01f47b7ded",
        "client_1.snap":
            "aa6489f98a14b49b2d5252b2e5d7663e0b070d5a074095f33928e2dd487357f7",
        "client_2.snap":
            "50ad3abd067e311c84a48ebb482727133a30cf5c5e5a6c6dc2bd9e1724a634da",
        "client_3.snap":
            "a6f5ac9e84138f64dbec99ec8ec121b5b982c779667424ef47b638ec6401b2b9",
        "client_4.snap":
            "f258dd0988311cccf45e281df5d52fd6e836f9cc2f19eabe176339ff3f6aeee7",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "ring.scn": {
        "attestations.psv":
            "b3852f12f6e727242e5b9570c2f91128fffd149bae7ddf5ff38fb935c434175e",
        "balances.psv":
            "9b9f72f72cbf53188fb396f3280b86de8b63366875b37e344309a9722ed0811e",
        "client_0.snap":
            "c7b35dd8b6be497580601e315cc6d22a2b431cfce79726d4b4253145c78994c7",
        "client_1.snap":
            "ce3f6005f40a679b4abff8e92caff02901e26c8f4a8a921889f6b5ca18356a18",
        "client_2.snap":
            "9ce572e19ae61051878e17728a3c1df0caabc563dfd742068b89da2083f564c0",
        "client_3.snap":
            "b0bb9cd992ccfc1a3c96d95aa5022442775f423575a167b6498e5181a7b82441",
        "client_4.snap":
            "68419ea9d04dd18df1283e4bcf1dd5b54a1e0b55e974350d7b5a4851740e680b",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "supply.scn": {
        "attestations.psv":
            "1061d8df5efa0c99b0e0b820c29f5a2a989dacae1effa82dc253d4e9a371a635",
        "balances.psv":
            "420b6c1acf3cdfaa75dce7ae40ea576032c3d53bf085a9c265176e1a9f116729",
        "client_0.snap":
            "714132e9a86510641d7068fd61c58a2d1c03628cb5446480c7c59507d6865dbc",
        "client_1.snap":
            "02257d3f1aa1ece314c8446f72b019766e967b0a2051862c80c383f20b6a90e8",
        "client_2.snap":
            "b3e4b17b81884ed603a1facc5cd32713a00e2089838ca4566b70c97f635b1837",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
    "table4.scn": {
        "attestations.psv":
            "4d73a7c9d5cfc874702ba858d4ec38ae057e92c361f7d070338983390079262d",
        "balances.psv":
            "0aeca4633c926bc9ee17094ae65cb2c651449a1503600163774cab709b68394f",
        "client_0.snap":
            "6d9bd1bafd9440c610a120de7d368dd318f39f2162c3dacca5f4a0e22f589915",
        "client_1.snap":
            "60a085190d2970f3afc201a8aa9e212c395b005113276fbfb057e87058a6ef8a",
        "client_2.snap":
            "f3679a1ccf98079a6005e288c28b3461444fd849028a8a38f6f488224927c20a",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
}


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_state_dir_files_match_pinned_digests(name, tmp_path):
    assert sorted(p.name for p in SCENARIOS.glob("*.scn")) == sorted(STATE_DIGESTS)
    state_dir = tmp_path / "state"
    assert main(["run", str(SCENARIOS / name), "--log", str(tmp_path / "run.log"),
                 "--state-dir", str(state_dir)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in state_dir.iterdir()}
    assert got == STATE_DIGESTS[name]
