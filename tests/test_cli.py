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


# sha256 of every file ``run --state-dir`` writes for each shipped
# scenario: snapshots, balance table, attestations, grids and keys
STATE_DIGESTS = {
    "crash.scn": {
        "attestations.psv":
            "a97e7f243da00471d872504309ab59f5e80c13730678a568e08224da0b703f02",
        "balances.psv":
            "e5b404bfebd0da7035235b25708e4d21c17b2b9fb70709eb9b32c388a5801ca6",
        "client_0.snap":
            "d2d3be9924e252cea243100b115b8258c1850374f6ff311246bfb82bdbd1a41a",
        "client_1.snap":
            "db5aea9d6c8fe5525a56121611a64bdafefca82568e01322a050b8cbf92f1be2",
        "client_2.snap":
            "1b09caa841d7b88fa32546e6f4ef0ab4b292f3790c5b866dbf9ffe46f59428b1",
        "client_3.snap":
            "d9e6532371441bb1d843a58117dc4b3548ea163bc399b7194a78f807286e6713",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "downgrid.scn": {
        "attestations.psv":
            "89f2bc91e46be9ea4b86bc0dee51ea63fe0e5acbaaee0cdaa0faf8e3f39bb34b",
        "balances.psv":
            "797fa0293c77d6a55c45c74070c08d85c6fa8c345f24b430091700ba01c4152b",
        "client_0.snap":
            "7c6a377ceced77fde3b31f1792442ef4480b14638a9183d743324ece5e6b01c1",
        "client_2.snap":
            "0e83b64ce8c53a0d64dca2364d6c0531c2a67f8a5b73defc2c00cf955e823f0a",
        "client_3.snap":
            "33afae13038abda3d09e5d9e38e348d0a1382a2c17371038a9d333b8aad8852b",
        "grid_0.txt":
            "3ff6b3ca1849a0a3cca6d85003da8653d42a573a4d3ee744ba9757fa606a7f84",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "faults.scn": {
        "attestations.psv":
            "dfe4a84751c7a039e48a6a560dddadfad2af76683d9413d57ba5268148da7f68",
        "balances.psv":
            "1bc7c7d8f18c6faa7f09518e64fa05005f9d88966b03ac23127bc72f09aa7450",
        "client_0.snap":
            "d2d3be9924e252cea243100b115b8258c1850374f6ff311246bfb82bdbd1a41a",
        "client_1.snap":
            "06f810c3d789f24dec685916a2c40175247e38793c7538244b51f394a445b393",
        "client_2.snap":
            "6c0884218c64f81ebc0b46d4506db391e3c1430323a1fc438a2f29f5825b9c55",
        "client_3.snap":
            "a42f2ebfbea40c33a79028a48a9cae0265b6ac35133a3f3fd020df67a77e4532",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "grid3.scn": {
        "attestations.psv":
            "0d4565f520a62c3aebcf40c5e7e0ace81c03e3f5a6bf301d670a544ff6aaf2c2",
        "balances.psv":
            "48491bf78af4211e6641078ebeb22fe31bf54ad5b2d82fc5e258a34969ddfe8c",
        "client_0.snap":
            "2794c3cd97d82ed2ac3e4ad33bca05139e5f74c5d1fb2a4a92eecf29e99c5c0d",
        "client_1.snap":
            "49cbb89232cd15f452fd7170d5b786b3585bf53ae5aa9082a4634f366acdb414",
        "client_2.snap":
            "6cab6bd2d1319770b4d8040437d2122b7c1fe88a2aa75cbf1fbcb530a26d0d67",
        "client_3.snap":
            "5ae2a2a6932537badd4ea39794b5194f496ca4dd65ec2c7694d7ce6a2bb4ae6e",
        "grid_0.txt":
            "6869b1fb299f555c34748d8851862fb30d66ff12838f28520ae855ab241caf9e",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "recover.scn": {
        "attestations.psv":
            "570210c3b709c9882db3a53a0d0782e41b04c252bab511bc4528266beb885cb6",
        "balances.psv":
            "260cc5cf2d1ce0d6c7f466a3f7798d7dbafa178b732c0241e41db1f06052b05b",
        "client_0.snap":
            "9477e551a82e7752b46721adb1b93315ed418215a6da0562c379019206afef24",
        "client_1.snap":
            "7df56f5fdc59e8ac3428e4e4c9c9ebae60f47324cd2275126dee72a2c9780bf2",
        "client_2.snap":
            "f26f2f66656f38c84d6ed90ee16f0acda9c595ff130794fa74a6e08d2cea1bf1",
        "client_3.snap":
            "adf6fb6211d33edadab2e8c6fee7b3cba897a625b1efe42e08e3a4eb16ce568c",
        "client_4.snap":
            "540873dda23875c7f46ef7dca3341a76baefb74bee6caf3019d28da6da825bed",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "reorder.scn": {
        "attestations.psv":
            "ed48f5ac3e44eba9d008f785fff3b1839aeb5ea371cb45797e615c92044a7127",
        "balances.psv":
            "b73b7dcc13f2eb268273eef341413fdc10f6a11d3786a414d0cf001f8f1e1de2",
        "client_0.snap":
            "89aa931c5d402510cefa6104b85e1a809339d2e5a62336f2c1c1619ccba170b1",
        "client_1.snap":
            "23d99c1261321893d443a1f13c3ecc0283b3333456386cf1f36f714d6ae15a7e",
        "client_2.snap":
            "0fe4cce20e38600563f8de8d81534dd9f462d549c2bd645d63ebfc6e1085da0d",
        "client_3.snap":
            "005e2b4e8ac0792fb61df336a34b76968fbe7d721f11550e1893e465d83985c2",
        "client_4.snap":
            "1e1e26f0acdda4c67567276951958a718500138909c9c743b386e02bf3a2e722",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "ring.scn": {
        "attestations.psv":
            "c647f0956a1a09e843344e4437c741e337aa5e094fb1ecf965cccc2ae9ca8ac5",
        "balances.psv":
            "a722c383562a237e1ef9d5d02b0f48fff088d14801729ad12800ca63a8f57ab2",
        "client_0.snap":
            "ed31a016067b3e4636ae1f34c68b58a48e9b77e279f6efc4632a9c182cfb6bc9",
        "client_1.snap":
            "e3435b22ddb135055fc9447ff5c15c4cc7eb7757275f56c1825f8575850bae53",
        "client_2.snap":
            "689aabe6bf64f0b7659089d1aae2310bf655938c43939f23278eb7e595aecec4",
        "client_3.snap":
            "4308f54dea7202191b5b8ef1cf988c61dd43d20287e4e76967da2e5204535811",
        "client_4.snap":
            "613eedd8dc403e3586e2efc8bfd54835161a3a300e3f0750f8fdc7304fa966df",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "stale.scn": {
        "attestations.psv":
            "1a8cd890bb0ea4d9deb1d2fa093db7fb32f41bcd0c2691a41f585e0fcd6f4476",
        "balances.psv":
            "089ad1d3727a4ad6dc5b2d64f43e573d2d1dee8c73cf7d4f2a885402180b6c74",
        "client_0.snap":
            "d2d3be9924e252cea243100b115b8258c1850374f6ff311246bfb82bdbd1a41a",
        "client_1.snap":
            "4421993cf148a6832b8a939b728954b0e4858d2cf8dd62145942c8a8739d06de",
        "client_2.snap":
            "a4ab18beaa3f7ceac2ad65ae48ec40a785a83941b8d923843c78e9fa51358e2e",
        "client_3.snap":
            "c7310e63857c1d228b70bad431f75c9defee4b359594c8c9ebc20171dcff341b",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "supply.scn": {
        "attestations.psv":
            "7c51010b3f02719e5e07b656ea2d3fad65e121dcd90c5cbbc4afbe89a2d9a9de",
        "balances.psv":
            "6aea38bca6700abfeaa83c455b9acd4d4e872183a8637f1e6eaec320e97a8de0",
        "client_0.snap":
            "2cc8124acf74941dc179a3e9eee98cd4054ab74a6d3199b200435d8d3302cbca",
        "client_1.snap":
            "20f70f194473b92174955ed7cd0349d0ffc934490d6510ff086399eed76970ce",
        "client_2.snap":
            "256e665dc00605b63ec6f5ee662b586db5db3f3a41b9e55648ebd8f7659909bf",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
    "table4.scn": {
        "attestations.psv":
            "47c4f9012ff1bdb2c72e4b179d7141ccd34b9c05c7872297b93880db11551f94",
        "balances.psv":
            "8ba4bec996b5c5347a000ba735c643a88fc4a2134ac0b4d02ef1a71806970ca7",
        "client_0.snap":
            "1d679c7db15a0b4ba4f91fc4f7d3c2fd43cf37668ec3084d69eafdae8fcac0d1",
        "client_1.snap":
            "b8af30cd6707ac02916b5e4bc13ca511721c312ccf37779226b503e8c1b8b7b4",
        "client_2.snap":
            "bf3adcc4f951c1298d868380bd76e1303247494d55f441571fe09f726d3f5ef8",
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
