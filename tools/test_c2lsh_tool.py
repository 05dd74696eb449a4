#!/usr/bin/env python3
"""End-to-end smoke of c2lsh_tool: build -> info -> query on a tiny generated
.fvecs, then the error a file of the retired single-stream index format gets.

    python3 tools/test_c2lsh_tool.py path/to/c2lsh_tool

Queries are data rows 0..4 jittered by a tiny amount, so query i's nearest
neighbour is data row i and must be the first id of its .ivecs row.
"""

import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

N, DIM, NQ, K = 400, 12, 5, 3
# First u64 of a file written by the retired single-stream index format.
RETIRED_MAGIC = 0xC25123AA2012F00D


def write_fvecs(path, rows):
    with open(path, "wb") as f:
        for row in rows:
            f.write(struct.pack("<i", len(row)) + struct.pack("<%df" % len(row), *row))


def read_ivecs(path):
    data = Path(path).read_bytes()
    rows, off = [], 0
    while off < len(data):
        (k,) = struct.unpack_from("<i", data, off)
        rows.append(list(struct.unpack_from("<%di" % k, data, off + 4)))
        off += 4 + 4 * k
    return rows


def run(tool, *args, expect_rc=0):
    proc = subprocess.run([tool, *args], capture_output=True, text=True, timeout=120)
    if proc.returncode != expect_rc:
        sys.exit("c2lsh_tool %s: exit %d (want %d)\nstdout:\n%s\nstderr:\n%s"
                 % (" ".join(args), proc.returncode, expect_rc, proc.stdout, proc.stderr))
    return proc


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: test_c2lsh_tool.py <c2lsh_tool>")
    tool = sys.argv[1]
    rng = random.Random(7)
    data = [[rng.gauss(0, 10) for _ in range(DIM)] for _ in range(N)]
    queries = [[x + rng.gauss(0, 0.05) for x in data[i]] for i in range(NQ)]

    with tempfile.TemporaryDirectory(prefix="c2lsh_tool_smoke_") as tmp:
        d = Path(tmp)
        write_fvecs(d / "data.fvecs", data)
        write_fvecs(d / "queries.fvecs", queries)
        index = str(d / "index.c2lsh")

        run(tool, "--mode", "build", "--data", str(d / "data.fvecs"), "--index", index)
        info = run(tool, "--mode", "info", "--index", index).stdout
        if "objects:     %d" % N not in info or "dim:         %d" % DIM not in info:
            sys.exit("info does not report %d objects of dim %d:\n%s" % (N, DIM, info))

        out = str(d / "result.ivecs")
        run(tool, "--mode", "query", "--data", str(d / "data.fvecs"), "--index", index,
            "--queries", str(d / "queries.fvecs"), "--k", str(K), "--out", out)
        rows = read_ivecs(out)
        if len(rows) != NQ:
            sys.exit("query wrote %d rows, want %d" % (len(rows), NQ))
        for i, row in enumerate(rows):
            if len(row) != K or row[0] != i:
                sys.exit("query %d answered %s; want %d ids starting with %d" % (i, row, K, i))

        retired = d / "retired.c2lsh"
        retired.write_bytes(struct.pack("<QI", RETIRED_MAGIC, 2) + bytes(256))
        for mode in ("info", "query"):
            err = run(tool, "--mode", mode, "--data", str(d / "data.fvecs"), "--index",
                      str(retired), "--queries", str(d / "queries.fvecs"), "--out", out,
                      expect_rc=1).stderr
            if "NotSupported" not in err or "rebuild the index with --mode build" not in err:
                sys.exit("--mode %s on a retired-format file: want a NotSupported "
                         "error naming the rebuild, got:\n%s" % (mode, err))
    print("c2lsh_tool smoke: build, info, query and retired-format rejection OK")


if __name__ == "__main__":
    main()
