"""Pinned sha256 digests of small ``afpath verify`` reports.

A report is fully determined by (source, depth, seed, samples, suites), so
a change to the arithmetic that alters any byte of it fails here.  The
digests were recorded before the exact-integer kernels carried their forms
with the tables, and every change since must reproduce them.
"""

import hashlib

import pytest

from afpath.cli import main

# Vertices 1,3,3,3,3 with multiplicities 0-2: parallel edges and several
# vertices per level, which no built-in has.
MIXED = """BRATTELI 1
levels 4
vertices 1 3 3 3 3
incidence 0
1 2 1
incidence 1
1 0 1
1 1 0
0 2 1
incidence 2
2 0 1
0 1 1
1 1 0
incidence 3
1 0 0
0 1 1
1 2 0
"""

DIGESTS = {
    ("car", 7): "eaef6c5dfbac47f070a0612a4a7354b1cc4d9cdcaf54bc3f167f02f33cee4a10",
    ("car", 11): "d6c5ef59c0fbd9b510671b0e41932340c88104e8796341e0dbb59084293f5219",
    ("pascal", 7): "3b5e89b27be3a4b911906f9a4f648d650c0dce60ba22c97de34e93637ae0e805",
    ("pascal", 11): "ebbaa79b5f179dbe3d4630d7727ae111deb29dbaa77f7da8fcceb41b8a0a4bf6",
    ("fibonacci", 7): "0a4245b9fc480da14749cf1d2d84b9cc2b461b60bdece299d2d99b42a2c0702a",
    ("fibonacci", 11): "e0c76c8b0167b687f99a8c2252189b866f8d6320f1d615f4edcaa42e7e6d542f",
    ("uhf3", 7): "adb98086d1d3d61f385bb1e498bf8b7f2d21f11ba619dc114ccf144ea61658f8",
    ("uhf3", 11): "94d4eef86809b30ef48dcd4eec455d28a3ed55cd2d31913e8bee255fc72bf972",
    ("mixed.bratteli", 7): "ed5afec313713495760fdfc3856719c32ef927f92046f2d9dca8063d28f1d547",
    ("mixed.bratteli", 11): "2fefffc6cd18742857a68d2a4b15be00daf38f664b68922eb102da5177289cfe",
}


@pytest.mark.parametrize("source,seed", sorted(DIGESTS))
def test_verify_report_digest(source, seed, tmp_path, monkeypatch, capsys):
    # The report header names the source, so the file is read through a
    # relative path from a fixed name.
    (tmp_path / "mixed.bratteli").write_text(MIXED)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", source, "--depth", "3", "--samples", "5", "--seed", str(seed)]) == 0
    report = capsys.readouterr().out
    assert report.endswith("RESULT PASS\n")
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[(source, seed)]
