"""Time the BM25 term index's cold build, save and load over a directory.

    PYTHONPATH=src python3 tools/index_io.py [DIR]

Every ``*.py`` file under DIR (by default the running interpreter's
standard library, leaving out site-packages) is one document, with git's
blob id of its bytes; files that are not UTF-8 are listed but not
indexed, as a resolve does. The script times one cold
``TermIndex.update``, then the median of 5 saves and of 5 loads of the
index in a temporary directory. Then it times the warm cycle of a
resolve at the next revision, in which one line is appended to each of
the first five files in sorted order: the median of 5 runs of a load of
the saved index, an update to the revised listing and a save to a second
file. It prints one JSON line with the times, the counts and the saved
file's size. It imports patchcrew from the path, so pointing PYTHONPATH
at another checkout's ``src`` times that checkout's index format.
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
    revised = {**contents, **{path: contents[path] + b"# revised\n"
                              for path in sorted(contents)[:5]}}
    listing, revised_listing = (
        {path: hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
         for path, data in files.items()} for files in (contents, revised))

    def reader(files):
        def read(blobs):
            for path in blobs:
                try:
                    yield path, files[path].decode("utf-8")
                except UnicodeDecodeError:
                    pass
        return read

    def timed(call, *args):
        start = time.perf_counter()
        result = call(*args)
        return result, time.perf_counter() - start

    index = TermIndex()
    _, update_s = timed(index.update, listing, reader(contents))
    times: dict[str, list[float]] = {name: [] for name in (
        "save_s", "load_s", "warm_load_s", "warm_update_s", "warm_save_s")}
    with tempfile.TemporaryDirectory() as tmp:
        path, warm_path = Path(tmp) / "memory.jsonl.bm25", Path(tmp) / "warm"
        for _ in range(RUNS):
            times["save_s"].append(timed(save_term_index, index, path)[1])
            loaded, load_s = timed(load_term_index, path)
            times["load_s"].append(load_s)
            del loaded  # freed outside the timed load
        size = path.stat().st_size
        for _ in range(RUNS):
            loaded, load_s = timed(load_term_index, path)
            times["warm_load_s"].append(load_s)
            times["warm_update_s"].append(timed(
                loaded.update, revised_listing, reader(revised))[1])
            times["warm_save_s"].append(
                timed(save_term_index, loaded, warm_path)[1])
            del loaded
    print(json.dumps({
        "root": str(root), "files": len(contents),
        "blobs": len(index.blob_ids), "terms": len(index.postings),
        "pairs": sum(len(index._pairs(t)) // 2 for t in index.postings),
        "update_s": round(update_s, 4),
        **{name: round(statistics.median(runs), 4)
           for name, runs in times.items()}, "bytes": size}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
