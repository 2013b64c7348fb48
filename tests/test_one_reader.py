"""Only ``mrcompress.wire`` parses bytes on its own.

Every other module reads through its bounded ``Reader`` and ``inflate``,
so a count read from a file is checked against the bytes left before
anything is allocated, and an inflate has a cap. The zlib writer,
``deflate``, lives there too, so its level is set in one place.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
READER = SRC / "mrcompress" / "wire.py"
MODULES = sorted(p for p in SRC.rglob("*.py") if p != READER)
# unbounded reads, the error they raise when short, and a second zlib writer
FORBIDDEN = ("unpack_from(", "calcsize(", "zlib.decompress", "struct.error", "zlib.compress")


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_parses_bytes_outside_the_reader(path):
    text = path.read_text()
    assert [word for word in FORBIDDEN if word in text] == []
