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
            "3ccb6b36f5ae6f41741d4428cc520e31c06d415a4441a72b0f1cd4c16f5ebd6e",
        "client_1.snap":
            "007bb603123b0ee97c2c917648d6269f4d5c9fab9e12e8c75cf8e5cc3396ccb1",
        "client_2.snap":
            "df40aefbeea06c78c010634e68e6c26b7ccbd8fb9540672608f1bdb9f320be67",
        "client_3.snap":
            "356d5900e4b44a5391b6002029b3c1325a346194f7967d54b3d4535badca4913",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "downgrid.scn": {
        "attestations.psv":
            "5b781baeed7ee1b754908c44b2ba05fcfc582c87871eef822933262b39463afa",
        "balances.psv":
            "797fa0293c77d6a55c45c74070c08d85c6fa8c345f24b430091700ba01c4152b",
        "client_0.snap":
            "09577a01147245520127ccda11e450664d3eaae773a71d96fe65ed39565852b6",
        "client_2.snap":
            "b8ba00e424cc9963cefb4b8d4508b376f9ee5f50a56abff0bc27b503851b9966",
        "client_3.snap":
            "7b7f42e2a9fa733d6a795b5895dd01d354ee9c892d8c5ce61fc502f386f507a3",
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
            "3ccb6b36f5ae6f41741d4428cc520e31c06d415a4441a72b0f1cd4c16f5ebd6e",
        "client_1.snap":
            "b767b27a9de6b6e0e5c6b3327ddb631c8970995f6cdfd2b9d1223e90065c3586",
        "client_2.snap":
            "3df3f36442a784279f93045e1be2fb6c5c2e8e5ce5d328536499add0fa97e2c9",
        "client_3.snap":
            "5737960a9d0a92c47b44ea657c6fa94a2fd76f0786528333dbdcc19eeb0ff575",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "grid3.scn": {
        "attestations.psv":
            "8b1ae5cec74871cb8e583d320159b741c681485751f192ff4eef7aeaf0632f17",
        "balances.psv":
            "48491bf78af4211e6641078ebeb22fe31bf54ad5b2d82fc5e258a34969ddfe8c",
        "client_0.snap":
            "b7e841fd4005ad6e45ce1424e26f0d4e94e5a71715c41905ebfb97c5f1a03a41",
        "client_1.snap":
            "18d0506627dad8db7e24355f98ab6bce86b581bd8c0ab2f51f276646dad131e9",
        "client_2.snap":
            "aa72e237cd32dcb17cff4f3eae55ea5ca80896390a181edbf7c8e872e6cac7d3",
        "client_3.snap":
            "9d05275b0850effb753575f08932a8557fa169a6807b8553619ef753c9671913",
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
            "81f74854c837df1c334604faf73c3989d022dc57b63ae853ff353d30055f0b51",
        "client_1.snap":
            "8ff0f4b13a1f321a317f48a3260eacf8c2a09871c388e30401671fe381cbf463",
        "client_2.snap":
            "898efd1b6febec383bf31ed267980e33d0c467b0323bb5dee6eff49365140a64",
        "client_3.snap":
            "ef883f001ed2d05cf045541daa1806013bc2dd2bd8fe11062e507f2d9955b648",
        "client_4.snap":
            "7dc17d8ec00d1d6efa11a927ce02ed890d5d884f0fb79461ac0966066e01fc07",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "reorder.scn": {
        "attestations.psv":
            "f32ab33bc98e6efc91f246a71e6810e9f42918df25f3a1cef6b71fa2d5acf59a",
        "balances.psv":
            "b73b7dcc13f2eb268273eef341413fdc10f6a11d3786a414d0cf001f8f1e1de2",
        "client_0.snap":
            "cd2fb8e2be983ab35da57d70b187f45aa2f5e3b699cb4ea268378a2a9be923bc",
        "client_1.snap":
            "f2ef9638bd573d295b2abf3dee9fb25c9c3430a4d7ed10f4aabccffe074d1f11",
        "client_2.snap":
            "abd7969fadb788b1446ff17381939a19942c2f3142460c759d5bfca37b42f617",
        "client_3.snap":
            "89e799b5fb5b801b3ec54e637c95c71d9575c2eb6a58069a42a288bef9c1e61f",
        "client_4.snap":
            "ce9cbeee4233fc126360465c56ea34cd223ad9bef96ab53898a93b639517359a",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "ring.scn": {
        "attestations.psv":
            "bcadbd9e3f26c1345fd5dfc47fef3dc6e0d4aedc7d64294dc0ced74d6346a7e0",
        "balances.psv":
            "a722c383562a237e1ef9d5d02b0f48fff088d14801729ad12800ca63a8f57ab2",
        "client_0.snap":
            "fbf7e34aaab4f242d2f857b2fe5d39f397ee0cf8f39b843f38d783fa0db86852",
        "client_1.snap":
            "e6e5d8d9e57ce559bcfeda7dbb305dc4e16437893ff8fe1f194d9f798317d752",
        "client_2.snap":
            "9cbacf59eaae029ad4bcea4aae98538f626435ee8c793a802711a537645357cc",
        "client_3.snap":
            "d02a5ca7f2b53131f3c193c35955b325b68ccc62b82b612c4333a0edca90a017",
        "client_4.snap":
            "0cffde7693e9b18cb947dbe047e8a44cfdb6003a9624bb22e4d8fd2233215f82",
        "keys.json":
            "eb43f0b91db7cba7ce686051970f2424c6cadab2ba728327616f2f62bfa73aef",
    },
    "stale.scn": {
        "attestations.psv":
            "25654274109e2d2631cc847840d9b56f63e9c954ab81edf23eb7775d7deb561d",
        "balances.psv":
            "089ad1d3727a4ad6dc5b2d64f43e573d2d1dee8c73cf7d4f2a885402180b6c74",
        "client_0.snap":
            "3ccb6b36f5ae6f41741d4428cc520e31c06d415a4441a72b0f1cd4c16f5ebd6e",
        "client_1.snap":
            "bc1a820822c10055b7f3c60fe0985ecb723e76359b085df176a9b30222fe050e",
        "client_2.snap":
            "e2d3e76850ac29d29b140a33fbe23a8f802251b0d13e5b1d84d8d970cd7519c3",
        "client_3.snap":
            "9fff446d01409828502f68f80f78cb658e3dee2ba4311850f7fa5bf6da0f1105",
        "keys.json":
            "43ffcded543f2745cfb0b310650b60258b262fb01bf4c71a66624223e659da69",
    },
    "supply.scn": {
        "attestations.psv":
            "b3bf0a4781a3ccdf4f369e608b68606bf0e76febdd49350497eb27d20adfb42d",
        "balances.psv":
            "6aea38bca6700abfeaa83c455b9acd4d4e872183a8637f1e6eaec320e97a8de0",
        "client_0.snap":
            "497a31d0f836b99d386ebbfdcc9afa9f3cc2803f8db28a5ccb59d4bdf9eaa2c0",
        "client_1.snap":
            "cc47b3baa9174a4dc550a53122d9c34fb072787ca2020e2ddf030767367928bc",
        "client_2.snap":
            "9167201f85c9d132a342c3d5664527f09a6c42bd72162070e174be0fe6c459a0",
        "keys.json":
            "22bfa27fa90f8e84592cfc4094db9ca66b910ae118d4937bb9a550fa45e38469",
    },
    "table4.scn": {
        "attestations.psv":
            "c9a5f55fd327d00c19e06d5c6dc038c760dcfe50d8f55913ea95354406200b80",
        "balances.psv":
            "8ba4bec996b5c5347a000ba735c643a88fc4a2134ac0b4d02ef1a71806970ca7",
        "client_0.snap":
            "b23edd3c8cdf2a8ea23339f9d2930c63b34bd34b0541b04150cf51b989756a34",
        "client_1.snap":
            "623a176a6d2a21dbe5d15789be2fd06ce10ce5b60bdf4463b3b64c9e40df4c5d",
        "client_2.snap":
            "42d90963d998c6e18c8adb922b4bc4aacd6243e3c1ceb76b80524d7905b263da",
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
