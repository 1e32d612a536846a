import ast
import dataclasses
import gc
import os
import stat
from pathlib import Path

import pytest

from chipmunkring import acorn, cli, codec, hots, ringsig
from chipmunkring.cli import main

SEED0 = "00" * 32
SEED1 = "01" * 32
SEED2 = "02" * 32


@pytest.fixture()
def workspace(tmp_path):
    """Two key pairs, a message file, and a signed ring signature."""
    for name, seed in (("alice", SEED0), ("bob", SEED1)):
        assert main(["keygen", "--out", str(tmp_path / name), "--seed", seed]) == 0
    msg = tmp_path / "message.bin"
    msg.write_bytes(b"cli test message")
    ring = f"{tmp_path}/alice.pk,{tmp_path}/bob.pk"
    sig = tmp_path / "out.sig"
    rc = main(["sign", "--sk", str(tmp_path / "alice.sk"), "--ring", ring,
               "--message", str(msg), "--out", str(sig), "--seed", SEED2])
    assert rc == 0
    return tmp_path, ring, msg, sig


def test_keygen_deterministic_with_seed(tmp_path):
    for run in ("a", "b"):
        assert main(["keygen", "--out", str(tmp_path / run), "--seed", SEED0]) == 0
    assert (tmp_path / "a.pk").read_bytes() == (tmp_path / "b.pk").read_bytes()
    assert (tmp_path / "a.sk").read_bytes() == (tmp_path / "b.sk").read_bytes()


def test_keygen_without_seed_distinct(tmp_path):
    for run in ("a", "b"):
        assert main(["keygen", "--out", str(tmp_path / run)]) == 0
    assert (tmp_path / "a.pk").read_bytes() != (tmp_path / "b.pk").read_bytes()


def test_keygen_file_header(tmp_path):
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", SEED0]) == 0
    sk = (tmp_path / "k.sk").read_bytes()
    assert sk[:4] == b"CHRS"
    assert sk[6] == 2  # object kind: private key


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.usefixtures("umask_022")
def test_secret_files_are_owner_only(tmp_path):
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", SEED0]) == 0
    assert main(["share", "--sk", str(tmp_path / "k.sk"), "--threshold", "2",
                 "--participants", "3", "--out-prefix", str(tmp_path / "k"),
                 "--seed", SEED1]) == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"k.pk": 0o644, "k.sk": 0o600, "k.share01": 0o600,
                     "k.share02": 0o600, "k.share03": 0o600}


# existing[0] is the first path keygen checks
@pytest.mark.parametrize("existing", [("k.sk", "k.pk"), ("k.pk",)])
def test_keygen_never_overwrites(tmp_path, capsys, existing):
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", SEED0]) == 0
    for name in {"k.pk", "k.sk"} - set(existing):
        (tmp_path / name).unlink()
    before = contents(tmp_path)
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", SEED1]) == 3
    assert f"refusing to overwrite {tmp_path / existing[0]}" in capsys.readouterr().err
    assert contents(tmp_path) == before


@pytest.mark.parametrize("existing", [("k.share01", "k.share02", "k.share03"),
                                      ("k.share03",)])
def test_share_never_overwrites(tmp_path, capsys, existing):
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", SEED0]) == 0
    for name in existing:
        (tmp_path / name).write_bytes(b"kept " + name.encode())
    before = contents(tmp_path)
    # no share is written while any of the three would clash
    assert main(["share", "--sk", str(tmp_path / "k.sk"), "--threshold", "2",
                 "--participants", "3", "--out-prefix", str(tmp_path / "k"),
                 "--seed", SEED1]) == 3
    assert "refusing to overwrite" in capsys.readouterr().err
    assert contents(tmp_path) == before


def test_keygen_bad_seed(tmp_path):
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", "zz"]) == 2
    assert main(["keygen", "--out", str(tmp_path / "k"), "--seed", "00" * 31]) == 2
    assert list(tmp_path.iterdir()) == []


def test_sign_verify_roundtrip(workspace, capsys):
    tmp_path, ring, msg, sig = workspace
    rc = main(["verify", "--sig", str(sig), "--ring", ring, "--message", str(msg)])
    assert rc == 0
    assert "accept" in capsys.readouterr().out


@pytest.fixture()
def unfreeze_after():
    yield
    gc.unfreeze()


@pytest.mark.usefixtures("unfreeze_after")
def test_main_freezes_the_heap_it_starts_with(workspace):
    tmp_path, ring, msg, sig = workspace
    gc.unfreeze()
    rc = main(["verify", "--sig", str(sig), "--ring", ring, "--message", str(msg)])
    assert rc == 0
    # the interpreter's exit-time collection skips what main() froze
    assert gc.get_freeze_count() > 0


def test_sign_mode_multi_roundtrip(tmp_path, capsys):
    names = ("alice", "bob", "carol")
    for name, seed in zip(names, (SEED0, SEED1, SEED2)):
        assert main(["keygen", "--out", str(tmp_path / name), "--seed", seed]) == 0
    ring = ",".join(str(tmp_path / f"{name}.pk") for name in names)
    msg = tmp_path / "message.bin"
    msg.write_bytes(b"cli multi-mode message")
    sig = tmp_path / "out.sig"
    assert main(["sign", "--sk", str(tmp_path / "bob.sk"), "--ring", ring,
                 "--message", str(msg), "--out", str(sig), "--seed", SEED0,
                 "--mode", "multi"]) == 0
    data = sig.read_bytes()
    assert len(data) == 1456 + 160 * 3  # member record: 32 + 96-byte proof + 32
    assert data[7] == 2  # header mode byte: multi
    capsys.readouterr()
    assert main(["verify", "--sig", str(sig), "--ring", ring, "--message", str(msg)]) == 0
    assert "accept" in capsys.readouterr().out


def test_verify_rejects_modified_message(workspace, capsys):
    tmp_path, ring, msg, sig = workspace
    msg.write_bytes(msg.read_bytes() + b"\x00")
    rc = main(["verify", "--sig", str(sig), "--ring", ring, "--message", str(msg)])
    assert rc == 1
    assert "challenge" in capsys.readouterr().out


def test_verify_refuses_an_empty_message(workspace, capsys):
    # the workspace signature with its challenge and tags recomputed over b""
    tmp_path, ring, msg, sig = workspace
    keys = ringsig.Ring(members=[codec.decode_public_key(path.read_bytes())
                                 for path in (tmp_path / "alice.pk", tmp_path / "bob.pk")])
    honest = codec.decode_signature(sig.read_bytes())
    rhash = ringsig.ring_hash(keys)
    challenge = ringsig.challenge_digest(
        b"", rhash, ((e.randomness, e.acorn_proof) for e in honest.per_member))
    tag = acorn.linkability_tag(rhash, b"", challenge)
    entries = tuple(dataclasses.replace(e, linkability=tag) for e in honest.per_member)
    crafted = tmp_path / "empty.sig"
    crafted.write_bytes(codec.encode_signature(
        dataclasses.replace(honest, challenge=challenge, per_member=entries)))
    msg.write_bytes(b"")
    capsys.readouterr()
    rc = main(["verify", "--sig", str(crafted), "--ring", ring, "--message", str(msg)])
    assert rc == 2
    assert capsys.readouterr().out == "reject: structural (empty message)\n"


def test_verify_truncated_signature(workspace):
    tmp_path, ring, msg, sig = workspace
    sig.write_bytes(sig.read_bytes()[:-5])
    assert main(["verify", "--sig", str(sig), "--ring", ring,
                 "--message", str(msg)]) == 2


def test_verify_missing_file(workspace):
    tmp_path, ring, msg, sig = workspace
    assert main(["verify", "--sig", str(tmp_path / "nope.sig"), "--ring", ring,
                 "--message", str(msg)]) == 3


def test_sign_signer_not_in_ring(workspace, capsys):
    tmp_path, ring, msg, sig = workspace
    assert main(["keygen", "--out", str(tmp_path / "carol"), "--seed", SEED2]) == 0
    capsys.readouterr()
    rc = main(["sign", "--sk", str(tmp_path / "carol.sk"), "--ring", ring,
               "--message", str(msg), "--out", str(tmp_path / "x.sig")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: signer's public key is not among the ring keys\n")
    assert not (tmp_path / "x.sig").exists()


def test_sign_oversized_ring(tmp_path, key_pool, single_params):
    # 65 public keys: one over the limit
    paths = []
    for i, (_, pk) in enumerate(key_pool):
        p = tmp_path / f"k{i}.pk"
        p.write_bytes(codec.encode_public_key(pk))
        paths.append(str(p))
    extra_sk, extra_pk = hots.keygen(b"\x99" * 32, single_params)
    p = tmp_path / "k64.pk"
    p.write_bytes(codec.encode_public_key(extra_pk))
    paths.append(str(p))
    (tmp_path / "m").write_bytes(b"m")
    (tmp_path / "extra.sk").write_bytes(codec.encode_private_key(extra_sk))
    rc = main(["sign", "--sk", str(tmp_path / "extra.sk"), "--ring", ",".join(paths),
               "--message", str(tmp_path / "m"), "--out", str(tmp_path / "x.sig")])
    assert rc == 2


def test_threshold_workflow(workspace, capsys):
    tmp_path, ring, msg, _ = workspace
    rc = main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "2",
               "--participants", "4", "--out-prefix", str(tmp_path / "alice"),
               "--seed", SEED2])
    assert rc == 0
    for x in (1, 3):
        rc = main(["partial-sign", "--share", f"{tmp_path}/alice.share{x:02d}",
                   "--ring", ring, "--message", str(msg),
                   "--out", f"{tmp_path}/p{x}.part"])
        assert rc == 0
    rc = main(["combine", "--partials", f"{tmp_path}/p1.part,{tmp_path}/p3.part",
               "--ring", ring, "--message", str(msg), "--threshold", "2",
               "--out", str(tmp_path / "t.sig")])
    assert rc == 0
    rc = main(["verify", "--sig", str(tmp_path / "t.sig"), "--ring", ring,
               "--message", str(msg)])
    assert rc == 0
    assert "accept" in capsys.readouterr().out


def test_combine_with_too_few_partials(workspace):
    tmp_path, ring, msg, _ = workspace
    assert main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "2",
                 "--participants", "4", "--out-prefix", str(tmp_path / "alice"),
                 "--seed", SEED2]) == 0
    assert main(["partial-sign", "--share", f"{tmp_path}/alice.share01",
                 "--ring", ring, "--message", str(msg),
                 "--out", f"{tmp_path}/p1.part"]) == 0
    rc = main(["combine", "--partials", f"{tmp_path}/p1.part", "--ring", ring,
               "--message", str(msg), "--threshold", "2",
               "--out", str(tmp_path / "t.sig")])
    assert rc == 2


def test_combine_with_corrupted_partial(workspace):
    tmp_path, ring, msg, _ = workspace
    assert main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "2",
                 "--participants", "4", "--out-prefix", str(tmp_path / "alice"),
                 "--seed", SEED2]) == 0
    for x in (1, 2):
        assert main(["partial-sign", "--share", f"{tmp_path}/alice.share{x:02d}",
                     "--ring", ring, "--message", str(msg),
                     "--out", f"{tmp_path}/p{x}.part"]) == 0
    blob = bytearray((tmp_path / "p2.part").read_bytes())
    blob[100] ^= 0x01  # inside sigma_share
    (tmp_path / "p2.part").write_bytes(bytes(blob))
    rc = main(["combine", "--partials", f"{tmp_path}/p1.part,{tmp_path}/p2.part",
               "--ring", ring, "--message", str(msg), "--threshold", "2",
               "--out", str(tmp_path / "t.sig")])
    assert rc == 4


def test_combine_below_the_dealt_threshold_names_both_causes(workspace, capsys):
    # every share is sound, but 2 partials cannot rebuild a 3-of-4 dealing
    tmp_path, ring, msg, _ = workspace
    assert main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "3",
                 "--participants", "4", "--out-prefix", str(tmp_path / "alice"),
                 "--seed", SEED2]) == 0
    for x in (1, 2):
        assert main(["partial-sign", "--share", f"{tmp_path}/alice.share{x:02d}",
                     "--ring", ring, "--message", str(msg),
                     "--out", f"{tmp_path}/p{x}.part"]) == 0
    capsys.readouterr()
    rc = main(["combine", "--partials", f"{tmp_path}/p1.part,{tmp_path}/p2.part",
               "--ring", ring, "--message", str(msg), "--threshold", "2",
               "--out", str(tmp_path / "t.sig")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "byzantine share detected: combined signature verifies under no ring key; "
        "a share is corrupt, or the shares were dealt with a threshold above t = 2\n")
    assert not (tmp_path / "t.sig").exists()


# partials made on ring (alice, bob) and message.bin, combined on another
@pytest.mark.parametrize("ring_names, message", [
    (("bob", "carol"), b"cli test message"),  # another ring, without the master key
    (("alice", "bob", "carol"), b"cli test message"),  # a superset of the ring
    (("alice", "bob"), b"another message"),
], ids=["other-ring", "superset-ring", "other-message"])
def test_combine_names_a_wrong_ring_or_message(workspace, capsys, ring_names, message):
    tmp_path, ring, msg, _ = workspace
    assert main(["keygen", "--out", str(tmp_path / "carol"), "--seed", SEED2]) == 0
    assert main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "2",
                 "--participants", "3", "--out-prefix", str(tmp_path / "alice"),
                 "--seed", SEED2]) == 0
    for x in (1, 2):
        assert main(["partial-sign", "--share", f"{tmp_path}/alice.share{x:02d}",
                     "--ring", ring, "--message", str(msg),
                     "--out", f"{tmp_path}/p{x}.part"]) == 0
    msg.write_bytes(message)
    capsys.readouterr()
    rc = main(["combine", "--partials", f"{tmp_path}/p1.part,{tmp_path}/p2.part",
               "--ring", ",".join(f"{tmp_path}/{name}.pk" for name in ring_names),
               "--message", str(msg), "--threshold", "2",
               "--out", str(tmp_path / "t.sig")])
    assert rc == 2
    assert ("error: the partials were made on another message or ring, "
            "or participant 1's proof is corrupt") in capsys.readouterr().err
    assert not (tmp_path / "t.sig").exists()


def test_sign_never_overwrites(workspace, capsys):
    tmp_path, ring, msg, _ = workspace
    before = contents(tmp_path)
    capsys.readouterr()
    rc = main(["sign", "--sk", str(tmp_path / "alice.sk"), "--ring", ring,
               "--message", str(msg), "--out", str(tmp_path / "alice.sk"),
               "--seed", SEED1])
    assert rc == 3
    assert "File exists" in capsys.readouterr().err
    assert contents(tmp_path) == before


def test_partial_sign_refuses_a_ring_without_the_master_key(workspace, capsys):
    # combine would blame a sound share as byzantine; partial-sign refuses first
    tmp_path, _, msg, _ = workspace
    assert main(["keygen", "--out", str(tmp_path / "carol"), "--seed", SEED2]) == 0
    assert main(["share", "--sk", str(tmp_path / "alice.sk"), "--threshold", "2",
                 "--participants", "3", "--out-prefix", str(tmp_path / "alice"),
                 "--seed", SEED2]) == 0
    capsys.readouterr()
    rc = main(["partial-sign", "--share", f"{tmp_path}/alice.share01",
               "--ring", f"{tmp_path}/bob.pk,{tmp_path}/carol.pk",
               "--message", str(msg), "--out", f"{tmp_path}/p1.part"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the share's master public key is not among the ring keys\n")
    assert not (tmp_path / "p1.part").exists()


def test_only_main_writes_to_stderr():
    # every refusal raises, and main alone turns it into a message and an exit code
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = {top.name if isinstance(top, ast.FunctionDef) else "<module>"
               for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "stderr"
               and isinstance(node.value, ast.Name) and node.value.id == "sys"}
    assert writers == {"main"}
