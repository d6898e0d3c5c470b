"""Time the BM25 term index's cold build, save and load over a directory.

    PYTHONPATH=src python3 tools/index_io.py [DIR]

Every ``*.py`` file under DIR (by default the running interpreter's
standard library, leaving out site-packages) is one document, with git's
blob id of its bytes; files that are not UTF-8 are listed but not
indexed, as a resolve does. The script times one cold
``TermIndex.update``, then the median of 5 saves and of 5 loads of the
index in a temporary directory, and prints one JSON line with the times,
the counts and the saved file's size. It imports patchcrew from the
path, so pointing PYTHONPATH at another checkout's ``src`` times that
checkout's index format.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

from patchcrew.custodian import TermIndex, load_term_index, save_term_index

RUNS = 5


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else sysconfig.get_paths()["stdlib"])
    contents = {str(f.relative_to(root)): f.read_bytes()
                for f in sorted(root.rglob("*.py"))
                if f.is_file() and "site-packages" not in f.parts}
    listing = {path: hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
               for path, data in contents.items()}

    def read(blobs):
        for path in blobs:
            try:
                yield path, contents[path].decode("utf-8")
            except UnicodeDecodeError:
                pass

    index = TermIndex()
    start = time.perf_counter()
    index.update(listing, read)
    update_s = time.perf_counter() - start
    saves, loads = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl.bm25"
        for _ in range(RUNS):
            start = time.perf_counter()
            save_term_index(index, path)
            saves.append(time.perf_counter() - start)
            start = time.perf_counter()
            loaded = load_term_index(path)
            loads.append(time.perf_counter() - start)
            del loaded  # freed outside the timed load
        size = path.stat().st_size
    print(json.dumps({
        "root": str(root), "files": len(listing),
        "blobs": len(index.blob_ids), "terms": len(index.postings),
        "pairs": sum(len(index._pairs(t)) // 2 for t in index.postings),
        "update_s": round(update_s, 4),
        "save_s": round(statistics.median(saves), 4),
        "load_s": round(statistics.median(loads), 4), "bytes": size}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
