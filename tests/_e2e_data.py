"""Shared data for the end-to-end replay fixture.

One toy repository with a copy-paste bug (``add`` subtracts), one issue,
and a full set of authored responses for every completion the pipeline
makes while fixing it. The checked-in cassette under
``tests/fixtures/e2e/`` was produced from these responses by
``gen_cassette.py``; tests replay it and never hit a backend.

The authored responses dispatch on prompt content where one template
serves several calls (per-file summaries, relevance decisions, review
phases), so they stay correct regardless of BM25 rank order.
"""

from __future__ import annotations

import contextlib
import json
import re
import subprocess
import sys
from pathlib import Path

INSTANCE_ID = "calc-add-001"

CALC_OLD = (
    "def add(a, b):\n"
    "    return a - b\n"
    "\n"
    "\n"
    "def sub(a, b):\n"
    "    return a - b\n"
)

CALC_NEW = (
    "def add(a, b):\n"
    "    return a + b\n"
    "\n"
    "\n"
    "def sub(a, b):\n"
    "    return a - b\n"
)

REPO_FILES = {
    "calc.py": CALC_OLD,
    "README.md": "# calc\nTiny arithmetic helpers: add and sub.\n",
    "t_old.py": (
        "import sys\n"
        "\n"
        "from calc import sub\n"
        "\n"
        "sys.exit(0 if sub(5, 3) == 2 else 1)\n"
    ),
    "t_new.py": (
        "import sys\n"
        "\n"
        "from calc import add\n"
        "\n"
        "sys.exit(0 if add(2, 3) == 5 else 1)\n"
    ),
}

ISSUE_TEXT = (
    "add(2, 3) returns -1 instead of 5. The add helper in calc.py "
    "subtracts its arguments; it must add them."
)

# A file big enough that a one-line edit diffs shorter than the content,
# exercising the summary-update path instead of a fresh summarization.
MEMO_PATH = "store.py"

MEMO_OLD = (
    '"""In-memory key-value store with size-bounded eviction."""\n'
    "\n"
    "MAX_ENTRIES = 128\n"
    "\n"
    "\n"
    "class Store:\n"
    "    def __init__(self):\n"
    "        self.data = {}\n"
    "        self.hits = 0\n"
    "        self.misses = 0\n"
    "\n"
    "    def get(self, key, default=None):\n"
    "        if key in self.data:\n"
    "            self.hits += 1\n"
    "            return self.data[key]\n"
    "        self.misses += 1\n"
    "        return default\n"
    "\n"
    "    def put(self, key, value):\n"
    "        if len(self.data) >= MAX_ENTRIES:\n"
    "            self.data.pop(next(iter(self.data)))\n"
    "        self.data[key] = value\n"
    "\n"
    "    def stats(self):\n"
    '        return {"hits": self.hits, "misses": self.misses,\n'
    '                "size": len(self.data)}\n'
)

MEMO_NEW = MEMO_OLD.replace("MAX_ENTRIES = 128", "MAX_ENTRIES = 256")

# flags the cassette was recorded under; replays must reuse them
TOP_K = 4
MEETING_ROUNDS = 1

SUMMARIES = {
    "calc.py": "calc.py holds the arithmetic helpers add and sub; the body "
               "of add currently subtracts.",
    "README.md": "Project overview for the arithmetic utility library.",
    "t_old.py": "Check script for the subtraction helper; exits nonzero on "
                "a wrong result.",
    "t_new.py": "Check script for the addition helper; exits nonzero on a "
                "wrong result.",
    MEMO_PATH: "store.py implements a bounded in-memory key-value store "
               "with hit/miss counters.",
}

TASK_TEXT = ("Fix the add function so it returns a + b instead of a - b. "
             "Touch nothing else.")

_FILE_LINE = re.compile(r"^File: (.+)$", re.MULTILINE)


def _summary_response(rendered: str) -> str:
    m = _FILE_LINE.search(rendered)
    assert m, "summary prompt lacks a File: line"
    return SUMMARIES[m.group(1)]


def _relevance_response(rendered: str) -> str:
    _, _, summary_part = rendered.partition("Summary of a candidate file:")
    if "calc.py holds" in summary_part:
        return ("The faulty helper lives in this file.\n"
                "DECISION: YES")
    return "Not where the arithmetic is implemented.\nDECISION: NO"


def _review_response(rendered: str) -> str:
    if "Current phase: decision" in rendered:
        return "DECISION: YES"
    return ("The diff flips the faulty operator to addition and leaves sub "
            "alone. Matches the task.")


RESPONSES = {
    "P1": "Raise the store's eviction threshold from 128 to 256 entries.",
    "P2": _summary_response,
    "P3": _relevance_response,
    "P4": TASK_TEXT,
    "P5": "A Python developer comfortable with small numeric utilities; "
          "values minimal diffs.",
    "P6": "A careful Python developer; changes only the faulty return line "
          "in calc.py, nothing else.",
    "P7": "Only one task, so one stage.\n[[0]]",
    "P8": "A QA engineer who verifies arithmetic correctness and rejects "
          "any change wider than the task.",
    "P9": "The subtraction on line 2 is the bug.\n[[2,2]]",
    "P10": "    return a + b\n",
    "P11": _review_response,
    "MEETING_OPEN": "Goal: make add actually add. One task on calc.py; "
                    "confirm it is minimal.",
    "MEETING_TURN": "Task confirmed. I will flip the operator on the "
                    "faulty line; no dependencies.",
    "MEETING_SUMMARY": "Agreed: one-line fix in calc.py, no other files "
                       "move.",
}


class AuthoredBackend:
    """Backend whose answers are written by hand, for recording fixtures
    and for direct scripted tests."""

    mode = "live"
    network_calls = 0

    def __init__(self, responses=None):
        self.responses = dict(RESPONSES if responses is None else responses)

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        handler = self.responses[template_id]
        return handler(rendered_prompt) if callable(handler) else handler


def build_fixture_repo(repo_dir: Path, files=None) -> str:
    """git repository with one commit holding the fixture files; returns
    the commit hash."""
    repo_dir.mkdir(parents=True, exist_ok=True)
    for rel, content in (files or REPO_FILES).items():
        target = repo_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return commit_all(repo_dir)


def commit_all(repo_dir: Path, message: str = "baseline") -> str:
    """Commit everything under repo_dir (initialised if need be); returns
    the commit hash."""
    env_args = ["-c", "user.name=dev", "-c", "user.email=dev@example.com"]
    if not (repo_dir / ".git").exists():
        subprocess.run(["git", "init", "-q"], cwd=repo_dir, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo_dir, check=True)
    subprocess.run(["git", *env_args, "commit", "-q", "-m", message],
                   cwd=repo_dir, check=True)
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo_dir,
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def instance_dict(repo_dir: Path, sha: str, *, instance_id: str = INSTANCE_ID,
                  fail_to_pass: list[str] | None = None) -> dict:
    py = sys.executable
    return {
        "instance_id": instance_id,
        "repo_path": str(repo_dir),
        "base_revision": sha,
        "issue_text": ISSUE_TEXT,
        "pass_to_pass": [f"{py} t_old.py"],
        "fail_to_pass": fail_to_pass if fail_to_pass is not None
        else [f"{py} t_new.py"],
        "timeout_seconds": 120,
    }


def write_instance(path: Path, repo_dir: Path, sha: str, **kwargs) -> Path:
    path.write_text(json.dumps(instance_dict(repo_dir, sha, **kwargs),
                               indent=2) + "\n", encoding="utf-8")
    return path


FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "e2e"
CASSETTE_PATH = FIXTURE_DIR / "cassette.jsonl"
EXPECTED_PATCH_PATH = FIXTURE_DIR / "expected.patch"
EXPECTED_REPORT_DIR = FIXTURE_DIR / "expected_report"  # minus run.txt


def cassette_without(template_id: str, dest: Path) -> Path:
    """A copy of the fixture cassette with every record of one template
    dropped, so replaying a call of that template misses."""
    records = [line for line in CASSETTE_PATH.read_text(
        encoding="utf-8").splitlines()
        if line.strip() and json.loads(line)["template_id"] != template_id]
    dest.write_text("\n".join(records) + "\n", encoding="utf-8")
    return dest


@contextlib.contextmanager
def calls_in_turn():
    """Run every stage's calls one at a time, in input order, as a serial
    pipeline would: the kick-off meeting first, then the QA personas. A
    recording backend appends records as calls finish, so only in this
    mode does a cassette list them in a fixed order."""
    from patchcrew import coder, custodian, planner, runner

    def in_turn(fn, items, workers=None):
        return [fn(item) for item in items]

    patches = [(module, "map_concurrently", in_turn)
               for module in (custodian, planner, coder, runner)]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    for module, name, serial in patches:
        setattr(module, name, serial)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
