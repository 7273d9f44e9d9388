#!/usr/bin/env python3
"""Regenerate tests/serve/journal_corpus/: crafted corrupt journal files.

Each file is either recovered-with-truncation (torn/corrupt tails) or
rejected with a named-field error (structural violations) by
serve::scan_journal; tests/serve/test_journal_corpus.cpp pins which.  The
corpus is committed — rerun this only when the journal format changes.

Format (see src/serve/journal.hpp): magic "IPASSJ02", then records of
  u32 len | u8 type | u64 seq | body (len - 9 bytes) | u32 crc
with len covering type+seq+body, CRC-32C over the same region, big-endian.
An Admit body is the request text; a Commit body is the response's 8-byte
digest, u32 CRC-32C then u32 length.  The corpus keeps one file per
recover-or-reject decision, including the refused "IPASSJ01" format, whose
commits carried the full response.
"""

import os
import struct

MAGIC = b"IPASSJ02"
V1_MAGIC = b"IPASSJ01"
ADMIT, COMMIT = 1, 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "tests", "serve", "journal_corpus")

_TABLE = []
for n in range(256):
    c = n
    for _ in range(8):
        c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
    _TABLE.append(c)


def crc32c(data: bytes) -> int:
    c = 0xFFFFFFFF
    for b in data:
        c = _TABLE[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def record(rtype: int, seq: int, body: bytes) -> bytes:
    region = struct.pack(">BQ", rtype, seq) + body
    return struct.pack(">I", len(region)) + region + struct.pack(">I", crc32c(region))


def admit(seq: int, request: bytes) -> bytes:
    return record(ADMIT, seq, request)


def digest(response: bytes) -> bytes:
    return struct.pack(">II", crc32c(response), len(response))


def commit(seq: int, response: bytes) -> bytes:
    return record(COMMIT, seq, digest(response))


def write(name: str, payload: bytes) -> None:
    with open(os.path.join(OUT_DIR, name), "wb") as f:
        f.write(payload)
    print(f"  {name}: {len(payload)} bytes")


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    base = MAGIC + admit(0, b"req zero") + commit(0, b"resp zero")

    # --- recovered with truncation -------------------------------------
    write("empty.wal", b"")
    write("short_magic.wal", MAGIC[:5])
    full = admit(1, b"req one")
    write("torn_tail_mid_record.wal", base + full[: len(full) - 3])
    bad = bytearray(admit(1, b"req one"))
    bad[-6] ^= 0x40  # flip a body bit; the stored CRC no longer matches
    write("bad_crc.wal", base + bytes(bad) + commit(1, b"resp one"))
    write("zero_length_record.wal",
          base + struct.pack(">I", 0) + b"\x01\x00\x00junk")
    write("over_cap_record.wal",
          base + struct.pack(">I", 9 << 20) + b"pretend giant record")

    # --- rejected with a named-field error -----------------------------
    write("bad_magic.wal", b"NOTAJRNL" + admit(0, b"req zero"))
    write("duplicate_admit.wal", base + admit(0, b"req zero again"))
    write("duplicate_commit.wal", base + commit(0, b"resp zero again"))
    write("commit_without_admit.wal", base + commit(7, b"orphan response"))
    write("bad_record_type.wal", base + record(9, 1, b"mystery"))
    short = struct.pack(">BI", ADMIT, 0xDEAD)  # 5 bytes: no room for a u64 seq
    write("short_seq_record.wal",
          base + struct.pack(">I", len(short)) + short
          + struct.pack(">I", crc32c(short)))
    # A J01 writer's file: its commits carry the whole response.
    write("j01_magic.wal",
          V1_MAGIC + admit(0, b"req zero") + record(COMMIT, 0, b"resp zero"))
    # The J01 commit shape under the J02 magic: not a digest.
    write("commit_body_not_8_bytes.wal",
          MAGIC + admit(0, b"req zero") + record(COMMIT, 0, b"resp zero"))


if __name__ == "__main__":
    main()
