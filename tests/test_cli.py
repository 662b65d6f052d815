"""End-to-end CLI checks: run, verify-grid, export-balances, prove, check."""

import hashlib
import json
from pathlib import Path

import pytest

from deltamoney.cli import main
from deltamoney.data_client import TransactionInclusionVO
from deltamoney.hashing import Signature
from deltamoney.integrity_manager import PTTRAttestation

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


def test_check_reads_a_huge_claimed_range_as_a_failing_verdict(
        state, tmp_path, capsys):
    """A VO claiming seqs 1..2**62 with no record fails its check with a
    verdict line, not an allocation of the claimed range."""
    attestation = PTTRAttestation((1, 2), 2**62, bytes(32), Signature(bytes(32), 0))
    vo_path = tmp_path / "huge.vo"
    vo_path.write_bytes(TransactionInclusionVO(
        (1, 2), 1, 2**62, (), (), attestation).to_bytes())
    assert main(["check", str(vo_path), "--keys", str(state / "keys.json")]) == 1
    assert capsys.readouterr().out == "correct=False complete=False fresh=False\n"


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
    client's balance, balance records and pair roots, and its balance is
    the net of its pair records; a crashed client leaves none.  A replica
    whose leaf was tampered with (faults.scn) no longer hashes to the
    root its records rebuild to, so its holder's snapshot is refused
    instead."""
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
        with pytest.raises(CorruptSnapshot, match="records rebuild to root "
                           "[0-9a-f]{16}, not the replica's"):
            ClientNode.load_snapshot(path.read_bytes(), keystore)
        path.unlink()
    loaded = _load_clients(state_dir, keystore)
    assert sorted(loaded) == sorted(live_ids - tampered)
    for cid, node in loaded.items():
        live = sim.clients[cid]
        assert node.balance == live.balance == node.expected_balance(), cid
        assert node.mht.records == live.mht.records, cid
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
    refusal = ("snapshot of client 2 refused: pair (1, 2): records rebuild to "
               "root 4fb0876137fafeb9, not the replica's d8edd62ac5e2815d\n")
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
            "5b11b23c48f9bde38df336dcadba8775243bfe9f3375cb3327351a83042af085",
        "client_1.snap":
            "fc1dfa3eddb9f6f937d9a484a427086bdf6333901de46a08684b8704459d84f4",
        "client_2.snap":
            "f94104ffa0acacc6dde414a94e5b33a7920943fbbf8bdb8c1db34ca0e2425cea",
        "client_3.snap":
            "4fde0bc6c4359930b60a410612fa47239db8393f5a7756e567bcb812595e704d",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "downgrid.scn": {
        "attestations.psv":
            "5b781baeed7ee1b754908c44b2ba05fcfc582c87871eef822933262b39463afa",
        "balances.psv":
            "797fa0293c77d6a55c45c74070c08d85c6fa8c345f24b430091700ba01c4152b",
        "client_0.snap":
            "1850bc903ed079f57cac4f6fe060d5ed56b0a4f9a997adce47d344b3ce5bf278",
        "client_2.snap":
            "67982763d7700d5a351ae15ae22eaf1af48b551532348233769b9b9e12f4c873",
        "client_3.snap":
            "eb499db098fcdbaa9326891e6dd614fde2c8cd6477b802e1c68958a1a96a333f",
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
            "5b11b23c48f9bde38df336dcadba8775243bfe9f3375cb3327351a83042af085",
        "client_1.snap":
            "5d6a1730a424c5bdb89b2ad076e98f31699f07367496b8747044a710630e72b9",
        "client_2.snap":
            "fb8413f74b12a51d9f1b8a427489cf1aebacef68adb1ebebdf32abd197eba0a1",
        "client_3.snap":
            "4384de55dcc33f71029eb0095535aa0b3c2a86a4613f25ec06fa6dcfeb524a11",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "grid3.scn": {
        "attestations.psv":
            "8b1ae5cec74871cb8e583d320159b741c681485751f192ff4eef7aeaf0632f17",
        "balances.psv":
            "48491bf78af4211e6641078ebeb22fe31bf54ad5b2d82fc5e258a34969ddfe8c",
        "client_0.snap":
            "6e22feb81fca0fa0dfe5498875ac6be00e9decea9c8ce65cc7382b7b890bceea",
        "client_1.snap":
            "7af088e339354e8c58feafdb08791f2f9790f154e49999fd81c49789e4836b6a",
        "client_2.snap":
            "ca9e48671bcc9f80591116593527edafa593450af50b9f5436216dbd691625ec",
        "client_3.snap":
            "b6603e81711177c6bd1f9c2eb3351d2a836c8f36c7fee3f458c4b218a9a1c735",
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
            "4ef9700f06e26710f9e2a34a8869475bf9f19277aafa1aeffec4af5b08d8580a",
        "client_1.snap":
            "93c7801d7586b926cf6e5c7341b1e7b6c82802eaa0c170208f9d28b0f61d0b0e",
        "client_2.snap":
            "4899fc605ea77773d0ce4b469b91689ef22bdb59a16ff4411f08d6521cb0247a",
        "client_3.snap":
            "c9669dcc4e1f053b36c4363127565beb97222e29eb4450643b4ade3d871002ba",
        "client_4.snap":
            "f356944a20e32c1b05459e862c6d61971e32135e286e1e3e8d1363b782d73b0b",
        "grid_0.txt":
            "fc9dfb65e76a83cbeda94608b8ea0d808e5ad677e955048bc4d7fbd271424b0e",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "reorder.scn": {
        "attestations.psv":
            "f32ab33bc98e6efc91f246a71e6810e9f42918df25f3a1cef6b71fa2d5acf59a",
        "balances.psv":
            "b73b7dcc13f2eb268273eef341413fdc10f6a11d3786a414d0cf001f8f1e1de2",
        "client_0.snap":
            "6e0c9d14a25a05943a98e52f1b9b4718b2532e53ab3ecebd7d015a619f07fed8",
        "client_1.snap":
            "d7be427160c6181cff5b3bb351f442f41492f85ab02ca798b0f53136ba6de96e",
        "client_2.snap":
            "134c442750c6bdef4252fda82271c2b98e8aaaeeca7dc1c1c087fbcc523a1b70",
        "client_3.snap":
            "d158f881e7b21c5703a832b79765f7af6760e4af99e142eaef82a3eff635858a",
        "client_4.snap":
            "60cec5f04351c15d7176f8aeccd1fded57194d0152b95d4fd497184280f8e3fe",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "ring.scn": {
        "attestations.psv":
            "bcadbd9e3f26c1345fd5dfc47fef3dc6e0d4aedc7d64294dc0ced74d6346a7e0",
        "balances.psv":
            "a722c383562a237e1ef9d5d02b0f48fff088d14801729ad12800ca63a8f57ab2",
        "client_0.snap":
            "2342a0c9e32fbb291f20ffd825316f6e18f2bd76927d89b099e40fc02f7a5cd4",
        "client_1.snap":
            "09847275450b46ce1fb89b3eecc907d5de9f5a8fd70814143d3aacdc80628c34",
        "client_2.snap":
            "876511a74bb0e43180b473872cb00615f1fd9249ff70cc6fb59b513d03361fb1",
        "client_3.snap":
            "ecce7dbae16aef2c02e32df0ada05cad203d07fd6b0a9712a1e6710c39d249f4",
        "client_4.snap":
            "56acc0732857744c00a2aade6b10fde8d0eccfbf60f7695424fd334c74aaf3c0",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "stale.scn": {
        "attestations.psv":
            "25654274109e2d2631cc847840d9b56f63e9c954ab81edf23eb7775d7deb561d",
        "balances.psv":
            "089ad1d3727a4ad6dc5b2d64f43e573d2d1dee8c73cf7d4f2a885402180b6c74",
        "client_0.snap":
            "5b11b23c48f9bde38df336dcadba8775243bfe9f3375cb3327351a83042af085",
        "client_1.snap":
            "a103ce0a17a8ee20fa78c34a2c38e06511f86eae37c360d2604354e7660e89e5",
        "client_2.snap":
            "53e765fa72bcc25d484ba124b015f6f03dd52691a06570e4857bdd9c72c453a8",
        "client_3.snap":
            "6e065add94d48017793b4eece69eeac4b326b35ed52a4e7148911591b5295caf",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "supply.scn": {
        "attestations.psv":
            "b3bf0a4781a3ccdf4f369e608b68606bf0e76febdd49350497eb27d20adfb42d",
        "balances.psv":
            "6aea38bca6700abfeaa83c455b9acd4d4e872183a8637f1e6eaec320e97a8de0",
        "client_0.snap":
            "9e30449a0a93d07e891bff9781fa4d132c12d13ec4a841fa4a33daf03f33adf0",
        "client_1.snap":
            "f77d0908a26d68e92e56580b37cdcfd261a6ac675113f82a7ca88c65896b6b67",
        "client_2.snap":
            "a6cb9189b614e8d204a728ba9d5e922218c6d6745a7bbe212883389baac42df9",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
    "table4.scn": {
        "attestations.psv":
            "c9a5f55fd327d00c19e06d5c6dc038c760dcfe50d8f55913ea95354406200b80",
        "balances.psv":
            "8ba4bec996b5c5347a000ba735c643a88fc4a2134ac0b4d02ef1a71806970ca7",
        "client_0.snap":
            "a1c3259af5971b778a139a2f77f7ab48cb3ec758d8c1dfd7a4430a6ab9c302a3",
        "client_1.snap":
            "994d9b5e29d4cf92cb946be23b27f5a234126093c0359f1426d1a1ee895d476f",
        "client_2.snap":
            "9bc9e6c0d08159022584e981255b89182da94983be8c2bae53a1f839daaf7ff5",
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
