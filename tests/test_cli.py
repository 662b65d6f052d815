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

    # a step the simulation refuses ends the run: here recovering a payee
    # that never crashed, while it holds a record its payer has not appended
    live = tmp_path / "live.scn"
    live.write_text("seed 11\nclients 3\nregister 1 2\nregister 1 3\n"
                    "issue 1 1000\nissue 2 1000\nissue 3 1000\nquiesce\n"
                    "transfer 1 2 10\nadvance 2\nrecover 2\nquiesce\n"
                    "assert-conservation holds\n")
    assert main(["run", str(live)]) == 2
    assert "cannot recover client 2: it is not crashed" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.scn")))
def test_shipped_scenario_state_dir_reloads(name, tmp_path):
    """Every snapshot a shipped scenario leaves reloads to the live
    client's balance, balance-tree root and pair roots; a crashed client
    leaves none.  A replica whose leaf was tampered with (faults.scn) no
    longer hashes to the root its records rebuild to, so its holder's
    snapshot is refused instead."""
    from deltamoney.cli import _load_clients, _load_keystore
    from deltamoney.client import ClientNode
    from deltamoney.errors import CorruptSnapshot
    from deltamoney.peer_ledger import PeerTransactionTree
    from deltamoney.scenario import parse_scenario, run_scenario

    state_dir = tmp_path / "state"
    assert main(["run", str(SCENARIOS / name), "--log", str(tmp_path / "run.log"),
                 "--state-dir", str(state_dir)]) == 0
    sim = run_scenario(parse_scenario((SCENARIOS / name).read_text()))
    keystore, _ = _load_keystore(state_dir / "keys.json")
    live_ids = set(sim.clients) - sim.crashed
    tampered = {cid for cid in live_ids for ptt in sim.clients[cid].ptts.values()
                if PeerTransactionTree.restore(ptt.replica()).root() != ptt.root()}
    assert bool(tampered) == (name == "faults.scn")
    for cid in tampered:
        path = state_dir / f"client_{cid}.snap"
        with pytest.raises(CorruptSnapshot, match="rebuilt root does not match"):
            ClientNode.load_snapshot(path.read_bytes(), keystore)
        path.unlink()
    loaded = _load_clients(state_dir, keystore)
    assert sorted(loaded) == sorted(live_ids - tampered)
    for cid, node in loaded.items():
        live = sim.clients[cid]
        assert node.balance == live.balance, cid
        assert node.mht.root() == live.mht.root(), cid
        assert ({key: ptt.root() for key, ptt in node.ptts.items()}
                == {key: ptt.root() for key, ptt in live.ptts.items()}), cid


def test_verify_grid_accepts_a_grid_captured_while_a_client_is_down(tmp_path, capsys):
    state_dir = tmp_path / "state"
    assert main(["run", str(SCENARIOS / "downgrid.scn"), "--log",
                 str(tmp_path / "run.log"), "--state-dir", str(state_dir)]) == 0
    assert not (state_dir / "client_1.snap").exists()
    assert main(["verify-grid", str(state_dir / "grid_0.txt"), str(state_dir)]) == 0
    assert "verified (2 clients)" in capsys.readouterr().out


def test_verify_grid_names_a_refused_snapshot(state, capsys):
    path = state / "client_2.snap"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    assert main(["verify-grid", str(state / "grid_0.txt"), str(state)]) == 1
    assert ("grid rejected: snapshot of client 2 refused: snapshot checksum "
            "mismatch") in capsys.readouterr().err


def test_prove_loads_only_the_pair_members_and_the_first_that_loads(
        tmp_path, capsys):
    """faults.scn leaves client 2's snapshot refused (a rewritten leaf of
    pair (1, 2)); pair (1, 2) is proved from client 1's snapshot without
    reading client 2's, and pair (2, 3) from client 3's."""
    state_dir = tmp_path / "state"
    assert main(["run", str(SCENARIOS / "faults.scn"), "--log",
                 str(tmp_path / "run.log"), "--state-dir", str(state_dir)]) == 0
    keys = str(state_dir / "keys.json")
    refusal = ("snapshot of client 2 refused: pair (1, 2): rebuilt root does "
               "not match\n")
    for pair, notes in (("1:2", ""), ("2:3", refusal)):
        vo_path = tmp_path / f"{pair.replace(':', '-')}.vo"
        assert main(["prove", str(state_dir), "--pair", pair, "--seq", "1",
                     "--out", str(vo_path)]) == 0
        assert capsys.readouterr().err.startswith(notes + "proof for pair")
        assert main(["check", str(vo_path), "--keys", keys]) == 0
        assert "correct=True complete=True" in capsys.readouterr().out


def test_ed25519_state_dir_passes_the_offline_audit_and_reruns_identically(
        tmp_path, capsys):
    """grid3.scn signed with Ed25519: the grid verifies, a proof checks
    against keys.json alone, a forged grid signature is refused, and a
    second run leaves the same bytes (RFC 8032 signing is deterministic)."""
    def run(name):
        state_dir = tmp_path / name
        assert main(["run", str(SCENARIOS / "grid3.scn"), "--scheme", "ed25519",
                     "--log", str(tmp_path / f"{name}.log"),
                     "--state-dir", str(state_dir)]) == 0
        return state_dir

    state_dir = run("first")
    keys = state_dir / "keys.json"
    assert json.loads(keys.read_text())["scheme"] == "ed25519"
    grid_file = state_dir / "grid_0.txt"
    assert main(["verify-grid", str(grid_file), str(state_dir)]) == 0
    vo_path = tmp_path / "p.vo"
    assert main(["prove", str(state_dir), "--pair", "1:2", "--seq", "1",
                 "--out", str(vo_path)]) == 0
    assert main(["check", str(vo_path), "--keys", str(keys)]) == 0
    assert "correct=True complete=True" in capsys.readouterr().out

    again = run("second")
    names = sorted(p.name for p in state_dir.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (state_dir / name).read_bytes() == (again / name).read_bytes(), name

    lines = grid_file.read_text().splitlines()
    tag, signer, sig = lines[-1].split("|")
    assert tag == "signature" and len(bytes.fromhex(sig)) == 64
    forged = f"{sig[:-2]}{int(sig[-2:], 16) ^ 1:02x}"
    grid_file.write_text("\n".join(lines[:-1] + [f"{tag}|{signer}|{forged}"]) + "\n")
    assert main(["verify-grid", str(grid_file), str(state_dir)]) == 1
    assert "grid signature does not verify" in capsys.readouterr().err


# sha256 of every file ``run --state-dir`` writes for each shipped
# scenario: snapshots, balance table, attestations, grids and keys
STATE_DIGESTS = {
    "crash.scn": {
        "attestations.psv":
            "198a8101f23a466a0579561d1bdc34e7b88dcc7f7f3987198f7e1cbade005189",
        "balances.psv":
            "e5b404bfebd0da7035235b25708e4d21c17b2b9fb70709eb9b32c388a5801ca6",
        "client_0.snap":
            "7757f8922dc5a77a323056d90eb8f0cba9886803c955e8318c37d9b18d27e746",
        "client_1.snap":
            "0576552890f9eb0934d9690c65ccfdc0210f001c07e1ff2cb5cf6e5c85ff05ea",
        "client_2.snap":
            "fd2466a834f4a3a040c9682efad4a092c5acd1e2635ee296637a6d61d06280e6",
        "client_3.snap":
            "f056a1a328190cfaee759d10f5eac6697dff7299e68a3ce9a976b1082054aca8",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "downgrid.scn": {
        "attestations.psv":
            "5b781baeed7ee1b754908c44b2ba05fcfc582c87871eef822933262b39463afa",
        "balances.psv":
            "797fa0293c77d6a55c45c74070c08d85c6fa8c345f24b430091700ba01c4152b",
        "client_0.snap":
            "d97598033c5db26be17c8b731fe5a99bf8f0147dc95206bc62b8d596701f05e9",
        "client_2.snap":
            "a7d5abb98534e6176686b20f6aca8c5eb3f42833415b4dc855e532c3e1c0827d",
        "client_3.snap":
            "6cc523cd58aeb7d6fb8f891232f0ea2c87b6b55cb6ad18eca59948097d68f294",
        "grid_0.txt":
            "709895b11a042cecdf40d2f4c2a10aba78f8345a9599de92ef28de70c46719b8",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "faults.scn": {
        "attestations.psv":
            "040d5fd54fcf11d871fa1da09685969a72811d16494c7ddc8b43f2e0b3468279",
        "balances.psv":
            "1bc7c7d8f18c6faa7f09518e64fa05005f9d88966b03ac23127bc72f09aa7450",
        "client_0.snap":
            "7757f8922dc5a77a323056d90eb8f0cba9886803c955e8318c37d9b18d27e746",
        "client_1.snap":
            "915a6ee68f816b00d4e7dae518099f6bb00ca79ebed51d1d849c03d247d27ded",
        "client_2.snap":
            "cbc0a0972a2ee2b119c9baa07b35cc210a34f80ca7a41bcca90e1c6fca7b9792",
        "client_3.snap":
            "cf003260dfc0d0fbf86a467ad1e90b5f366faa2c38fe9f17476fc671941305ff",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "grid3.scn": {
        "attestations.psv":
            "8b1ae5cec74871cb8e583d320159b741c681485751f192ff4eef7aeaf0632f17",
        "balances.psv":
            "48491bf78af4211e6641078ebeb22fe31bf54ad5b2d82fc5e258a34969ddfe8c",
        "client_0.snap":
            "5138eddc556306dcc65d7e71848af3bcab0656ee6efbbd90b6a114cec7c05983",
        "client_1.snap":
            "0bf7af85588eb434d348cbdc9df0428039e848215b387ae65b9afcb004a0e373",
        "client_2.snap":
            "7c2c473d206f7b76d9bcbb48df30306352235a93a8b8f5ea5954329691145445",
        "client_3.snap":
            "09849f87485b05c8a3c8977617bbbfe0e4161d5cf38be2bf66a027a4f645bbd7",
        "grid_0.txt":
            "4167367daf761478ddb4165ec6fd73d4e0a1181235b58cc6eded415156c3b3d2",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "recover.scn": {
        "attestations.psv":
            "1f5cc72534f50013aa1ac06e146fb958dd11d0c8a2ac7afbd6c2de7c5047cf36",
        "balances.psv":
            "260cc5cf2d1ce0d6c7f466a3f7798d7dbafa178b732c0241e41db1f06052b05b",
        "client_0.snap":
            "45395c9457f8c465fd81ba3bbe34659f7073f131c324c046cc103c7d883e5d91",
        "client_1.snap":
            "382ea13d0368bef6ca64c5af77e7106005d88ee2ed665ec6321a105185e2674c",
        "client_2.snap":
            "73c53689adc1f0dd2c18c88955b5d8593b8b5deda1afa914affb6369b64ec14d",
        "client_3.snap":
            "970551ba28ea082462449a9675778c17cb36bb474d37ca41d73f6a9f832c3cdb",
        "client_4.snap":
            "377d82876c28e268426ec5a4bf6f1eed381b71363495eefd7462bd8d0f9e6a6b",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "reorder.scn": {
        "attestations.psv":
            "f32ab33bc98e6efc91f246a71e6810e9f42918df25f3a1cef6b71fa2d5acf59a",
        "balances.psv":
            "b73b7dcc13f2eb268273eef341413fdc10f6a11d3786a414d0cf001f8f1e1de2",
        "client_0.snap":
            "346c4d3b352f1ce15b3539faa833fac1d3c84a5e12fce4c2ecd1d0c3153229c5",
        "client_1.snap":
            "5cbb6c6bfc9f7bef41a59a70196179cf8c5516465ede56c3333fa4b99b53052e",
        "client_2.snap":
            "cc737dbda007ae482dc86a5eafaa983e2fd99e5d41a39dffdbdc634dac5d9c27",
        "client_3.snap":
            "108391030b2967ecbfd4fc8be1567962e0aebedcad61103efa3be2c0e4201722",
        "client_4.snap":
            "e908e7b0287175d13dcffe8f3dc42a46f14724fc5ec61736a0aace31a8287462",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "ring.scn": {
        "attestations.psv":
            "bcadbd9e3f26c1345fd5dfc47fef3dc6e0d4aedc7d64294dc0ced74d6346a7e0",
        "balances.psv":
            "a722c383562a237e1ef9d5d02b0f48fff088d14801729ad12800ca63a8f57ab2",
        "client_0.snap":
            "e35d52d6b9e76247199c9ff66aaa9b8d836d424f13cebad2047b708757f7472f",
        "client_1.snap":
            "75e294b422218da0310a268f65ff59717a1793497ee4ac3af5e78336cc3e8036",
        "client_2.snap":
            "0ced5672f9dfda58211e24932351d74ea701f8d871c0b9439dbc58fb677afc76",
        "client_3.snap":
            "c960b1864ef80221a6f2689a1ded58b5950d14e16a6dd573c865a0b0f92c4d99",
        "client_4.snap":
            "8cadd9904e8f90364acbd759d7c91489a5bd4db86e2f9deba6248b73a1f9a338",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "stale.scn": {
        "attestations.psv":
            "25654274109e2d2631cc847840d9b56f63e9c954ab81edf23eb7775d7deb561d",
        "balances.psv":
            "089ad1d3727a4ad6dc5b2d64f43e573d2d1dee8c73cf7d4f2a885402180b6c74",
        "client_0.snap":
            "7757f8922dc5a77a323056d90eb8f0cba9886803c955e8318c37d9b18d27e746",
        "client_1.snap":
            "f865ed5b9fb1b4c86f920fbd51da311c3139322e140e1a3aec557da7bb3dba20",
        "client_2.snap":
            "68f9ad230dc8c0101f20abc4d77091a8096bfb7d61583faaa460fdbec2f510f8",
        "client_3.snap":
            "5df82df569ec9c82c3b128c998c72ca32d991de88a9b0a18034a3b4b56f9ffc4",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "supply.scn": {
        "attestations.psv":
            "b3bf0a4781a3ccdf4f369e608b68606bf0e76febdd49350497eb27d20adfb42d",
        "balances.psv":
            "6aea38bca6700abfeaa83c455b9acd4d4e872183a8637f1e6eaec320e97a8de0",
        "client_0.snap":
            "97b287178069c6694e957dbb8251e678d9af293e5302c2bd104ab6703cf931dc",
        "client_1.snap":
            "d9f3ec540fc597b0985a293cb3111e09f9c1b0fc96b7893e417f63d4b62f1404",
        "client_2.snap":
            "eb99829b530b67f22f19df3b830a804f77f913c3137901d78144663714ba348a",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
    "table4.scn": {
        "attestations.psv":
            "c9a5f55fd327d00c19e06d5c6dc038c760dcfe50d8f55913ea95354406200b80",
        "balances.psv":
            "8ba4bec996b5c5347a000ba735c643a88fc4a2134ac0b4d02ef1a71806970ca7",
        "client_0.snap":
            "0f84314c82d8b036172a948d32d98e4dad55e0b8de95306adc355dc2eba697b0",
        "client_1.snap":
            "49ae3b0c740d1937f970a04c978eec5c3b2ad171c6a4189a016713babe167321",
        "client_2.snap":
            "5ace222bb1290bf71bb441f3a003268842f5f6ced79063cb3f14cb42230d6137",
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
