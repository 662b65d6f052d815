"""Command-line front end: run scenarios, then audit what they left behind.

A ``run --state-dir`` leaves a self-contained audit trail on disk: one
snapshot per client, the manager's balance table, signed grid captures,
the Integrity Manager's attestations, and the key material needed to
check every signature.  The other subcommands work purely from that
directory, so they model an offline auditor rather than a live peer.
A snapshot that does not load is a verification failure of its client:
``verify-grid`` needs every snapshot and names the one it refused;
``prove`` reads only the pair's two members and uses the first that
loads.

Exit codes: 0 pass, 1 assertion or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .client import ClientNode, pair_of
from .currency_manager import MANAGER_ID
from .data_client import authorize, query_transactions, parse_vo, verify_vo
from .errors import CorruptSnapshot, DeltaMoneyError
from .hashing import SCHEMES, KeyStore, Signature
from .integrity_manager import (
    IntegrityManager,
    PTTRAttestation,
    export_grid,
    parse_grid,
)
from .scenario import parse_scenario, run_scenario
from .sim import IM_SIGNER, Simulation, grid_roots

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ----------------------------------------------------------------------
# state directory layout


def _write_state(sim: Simulation, state_dir: Path) -> None:
    state_dir.mkdir(parents=True, exist_ok=True)
    keys = {
        "scheme": sim.keystore.scheme,
        "seed": sim.keystore.seed.hex(),
        "im_signer": IM_SIGNER,
        "signers": sorted(
            set(sim.clients) | {MANAGER_ID, IM_SIGNER}
        ),
    }
    (state_dir / "keys.json").write_text(json.dumps(keys, indent=2) + "\n")

    for client_id, node in sorted(sim.clients.items()):
        if client_id in sim.crashed:
            continue
        path = state_dir / f"client_{client_id}.snap"
        path.write_bytes(node.persist_snapshot())

    rows = ["txn_timestamp|client_id|valid_balance|valid_from|valid_to|remarks"]
    for row in sim.cm.table.rows:
        valid_to = "forever" if row.open else str(row.valid_to)
        rows.append(
            f"{row.txn_timestamp}|{row.client_id}|{row.valid_balance}"
            f"|{row.valid_from}|{valid_to}|{row.remarks}"
        )
    rows.append(f"supply|{sim.cm.supply.total_issued}|{sim.cm.supply.total_redeemed}")
    (state_dir / "balances.psv").write_text("\n".join(rows) + "\n")

    atts = ["pair_a|pair_b|pair_seq|root|signer|signature"]
    for key in sorted(sim.im.latest_validated):
        att = sim.im.attest_pttr(key)
        atts.append(
            f"{att.pair_key[0]}|{att.pair_key[1]}|{att.pair_seq}"
            f"|{att.root.hex()}|{att.signature.signer_id}"
            f"|{att.signature.bytes.hex()}"
        )
    (state_dir / "attestations.psv").write_text("\n".join(atts) + "\n")

    for grid in sim.grids:
        path = state_dir / f"grid_{grid.epoch}.txt"
        path.write_text(export_grid(grid))


def _load_keystore(path: Path) -> tuple[KeyStore, int]:
    info = json.loads(path.read_text())
    keystore = KeyStore(info["scheme"], bytes.fromhex(info["seed"]))
    for signer in info["signers"]:
        keystore.generate(signer)
    return keystore, info["im_signer"]


def _load_client(path: Path, keystore: KeyStore) -> ClientNode:
    """Load one ``client_N.snap``; a refusal names client N."""
    try:
        return ClientNode.load_snapshot(path.read_bytes(), keystore)
    except CorruptSnapshot as exc:
        client = path.stem.removeprefix("client_")
        raise CorruptSnapshot(f"snapshot of client {client} refused: {exc}") from exc


def _load_clients(state_dir: Path, keystore: KeyStore) -> dict[int, ClientNode]:
    clients = {}
    for path in sorted(state_dir.glob("client_*.snap")):
        node = _load_client(path, keystore)
        clients[node.id] = node
    return clients


def _load_attestations(state_dir: Path) -> dict[tuple[int, int], PTTRAttestation]:
    out = {}
    path = state_dir / "attestations.psv"
    if not path.exists():
        return out
    for line in path.read_text().splitlines()[1:]:
        a, b, seq, root, signer, sig = line.split("|")
        key = (int(a), int(b))
        out[key] = PTTRAttestation(
            key, int(seq), bytes.fromhex(root),
            Signature(bytes.fromhex(sig), int(signer)),
        )
    return out


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> int:
    text = Path(args.scenario).read_text()
    scenario = parse_scenario(text)
    sim = run_scenario(scenario, seed=args.seed, scheme=args.scheme)
    report = sim.log.text() + "\n"
    if args.log:
        Path(args.log).write_text(report)
    else:
        sys.stdout.write(report)
    if args.state_dir:
        _write_state(sim, Path(args.state_dir))
    if sim.log.failures:
        for failure in sim.log.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_verify_grid(args) -> int:
    state_dir = Path(args.state_dir)
    keystore, im_signer = _load_keystore(state_dir / "keys.json")
    im = IntegrityManager(keystore, im_signer)
    try:
        mhtrs, pttrs = grid_roots(_load_clients(state_dir, keystore))
        grid = parse_grid(Path(args.grid_file).read_text())
        verdict = im.verify_grid(grid, mhtrs, pttrs)
    except (DeltaMoneyError, ValueError) as exc:
        print(f"grid rejected: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if verdict.matches:
        print(f"grid epoch {grid.epoch}: verified "
              f"({len(grid.client_index)} clients)")
        return EXIT_PASS
    for i, j in verdict.mismatched_cells:
        a, b = grid.client_index[i], grid.client_index[j]
        what = f"balance tree of client {a}" if i == j else f"pair ({a}, {b})"
        print(f"grid epoch {grid.epoch}: cell ({i}, {j}) mismatch: {what}")
    return EXIT_FAIL


def _cmd_export_balances(args) -> int:
    path = Path(args.state_dir) / "balances.psv"
    lines = path.read_text().splitlines()
    header, rows = lines[0].split("|"), lines[1:]
    supply = None
    table = []
    for line in rows:
        parts = line.split("|")
        if parts[0] == "supply":
            supply = (int(parts[1]), int(parts[2]))
        else:
            table.append(parts)
    widths = [max(len(header[i]), *(len(r[i]) for r in table)) if table
              else len(header[i]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if supply:
        print(f"supply: issued={supply[0]} redeemed={supply[1]} "
              f"net={supply[0] - supply[1]}")
    return EXIT_PASS


def _cmd_prove(args) -> int:
    state_dir = Path(args.state_dir)
    a, _, b = args.pair.partition(":")
    key = pair_of(int(a), int(b))
    keystore, _ = _load_keystore(state_dir / "keys.json")
    attestation = _load_attestations(state_dir).get(key)
    if attestation is None:
        print(f"no attestation on file for pair {key}", file=sys.stderr)
        return EXIT_FAIL
    holder = None
    for client_id in key:
        path = state_dir / f"client_{client_id}.snap"
        if path.exists():
            try:
                holder = _load_client(path, keystore)
                break
            except CorruptSnapshot as exc:
                print(exc, file=sys.stderr)
    if holder is None or key not in holder.ptts:
        print(f"no stored replica holds pair {key}", file=sys.stderr)
        return EXIT_FAIL
    grant = authorize(0, holder.id, [key], enrolled=[holder.id])
    _, vo = query_transactions(grant, key, args.seq, args.seq, holder, attestation)
    blob = vo.to_bytes()
    if args.out:
        Path(args.out).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)
    print(f"proof for pair {key} seq {args.seq}: {len(blob)} bytes",
          file=sys.stderr)
    return EXIT_PASS


def _cmd_check(args) -> int:
    keystore, _ = _load_keystore(Path(args.keys))
    latest = bytes.fromhex(args.latest) if args.latest else None
    try:
        vo = parse_vo(Path(args.vo_file).read_bytes())
        verdict = verify_vo(vo, keystore, latest)
    except (DeltaMoneyError, ValueError) as exc:
        print(f"verification object rejected: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"correct={verdict.correct} complete={verdict.complete} "
          f"fresh={verdict.fresh}")
    ok = verdict.correct and verdict.complete
    if args.latest:
        ok = ok and verdict.fresh
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamoney",
        description="drive and audit simulated delta-money networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--log", default=None, help="write the event log here")
    p_run.add_argument("--state-dir", default=None,
                       help="persist snapshots, balances, grids, and keys")
    p_run.add_argument("--scheme", default="stub", choices=tuple(SCHEMES))
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("verify-grid", help="recheck a captured grid")
    p_grid.add_argument("grid_file")
    p_grid.add_argument("state_dir")
    p_grid.set_defaults(func=_cmd_verify_grid)

    p_bal = sub.add_parser("export-balances", help="print the balance table")
    p_bal.add_argument("state_dir")
    p_bal.set_defaults(func=_cmd_export_balances)

    p_prove = sub.add_parser("prove", help="emit a transaction inclusion VO")
    p_prove.add_argument("state_dir")
    p_prove.add_argument("--pair", required=True, metavar="A:B")
    p_prove.add_argument("--seq", required=True, type=int)
    p_prove.add_argument("--out", default=None, help="write VO bytes here")
    p_prove.set_defaults(func=_cmd_prove)

    p_check = sub.add_parser("check", help="verify a VO file")
    p_check.add_argument("vo_file")
    p_check.add_argument("--keys", required=True,
                         help="keys.json from the run's state dir")
    p_check.add_argument("--latest", default=None, metavar="HEX",
                         help="current validated root, for freshness")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (DeltaMoneyError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
